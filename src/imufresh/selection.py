"""Per-feature hypothesis tests with false-discovery-rate control.

Every feature column is tested for association with the target; the test is
dispatched on the (feature, target) type combination:

============  ============  =======================================
feature       target        test
============  ============  =======================================
binary        binary        Fisher exact (two-sided)
real          binary        two-sample Kolmogorov-Smirnov
real          real          Kendall tau-b (normal approximation)
binary        real          Kolmogorov-Smirnov between feature groups
constant      any           p = 1 (never aborts a run)
============  ============  =======================================

Selection uses the Benjamini-Yekutieli step-up procedure by default, which
is valid under the arbitrary dependence structure of mass-extracted
features; Benjamini-Hochberg is available behind ``method="bh"``.
Multiclass targets are handled one-vs-rest: a feature is selected if it
passes for any class at level q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    BadParameters,
    DegenerateFeature,
    DegenerateSplit,
    DegenerateTable,
    DegenerateTarget,
)
from .extraction import FeatureMatrix
from .names import FeatureName
from .timeseries import render_float

TEST_FISHER = "fisher_exact"
TEST_KS = "ks_two_sample"
TEST_KENDALL = "kendall_tau"
TEST_CONSTANT = "constant"


# ---------------------------------------------------------------------------
# Fisher exact test
# ---------------------------------------------------------------------------

# p_k <= p_obs * (1 + 1e-12), evaluated exactly on integer numerators.
_FISHER_TOL_NUM = 10**12 + 1
_FISHER_TOL_DEN = 10**12


def fisher_exact_test(table: Sequence[Sequence[int]]) -> float:
    """Two-sided Fisher exact p for a 2x2 contingency table.

    Sums hypergeometric probabilities of all tables with the observed
    margins whose probability does not exceed the observed table's
    (relative tolerance 1e-12 on the comparison).  Exact integer
    arithmetic, so large margins neither overflow nor lose precision.
    """
    (a, b), (c, d) = table
    cells = (a, b, c, d)
    if any(int(v) != v or v < 0 for v in cells):
        raise BadParameters(f"contingency cells must be non-negative integers: {cells}")
    a, b, c, d = (int(v) for v in cells)
    r1, r2 = a + b, c + d
    c1, c2 = a + c, b + d
    if min(r1, r2, c1, c2) == 0:
        raise DegenerateTable(f"zero margin in table {[[a, b], [c, d]]}")
    n = r1 + r2
    k_lo = max(0, c1 - r2)
    k_hi = min(r1, c1)
    num_obs = math.comb(r1, a) * math.comb(r2, c1 - a)
    total = 0
    for k in range(k_lo, k_hi + 1):
        num_k = math.comb(r1, k) * math.comb(r2, c1 - k)
        if num_k * _FISHER_TOL_DEN <= num_obs * _FISHER_TOL_NUM:
            total += num_k
    return min(1.0, float(Fraction(total, math.comb(n, c1))))


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov test
# ---------------------------------------------------------------------------

def ks_statistic(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> float:
    """D = sup |ECDF_a - ECDF_b|."""
    a_sorted = np.sort(np.asarray(a, dtype=np.float64))
    b_sorted = np.sort(np.asarray(b, dtype=np.float64))
    if a_sorted.size == 0 or b_sorted.size == 0:
        raise DegenerateSplit("KS test requires two non-empty samples")
    both = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, both, side="right") / a_sorted.size
    cdf_b = np.searchsorted(b_sorted, both, side="right") / b_sorted.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def _kolmogorov_sf(lam: float) -> float:
    """2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), truncated at terms < 1e-10.

    Below lam = 0.04 the series value is 1 to far beyond double precision,
    so 1.0 is returned directly (this also covers lam = 0, where the raw
    series does not converge).
    """
    if lam < 0.04:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 201):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample_test(
    a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray
) -> float:
    """Asymptotic two-sample KS p-value with small-sample lambda correction."""
    d = ks_statistic(a, b)
    n_a = np.asarray(a).size
    n_b = np.asarray(b).size
    ne = n_a * n_b / (n_a + n_b)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return _kolmogorov_sf(lam)


# ---------------------------------------------------------------------------
# Kendall tau-b
# ---------------------------------------------------------------------------

def _concordance_sum(x: np.ndarray, y: np.ndarray) -> int:
    """S = sum over pairs i<j of sign(x_j - x_i) * sign(y_j - y_i)."""
    n = x.size
    s = 0
    chunk = 2048
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dx = np.sign(x[lo:hi, None] - x[None, :]).astype(np.int8)
        dy = np.sign(y[lo:hi, None] - y[None, :]).astype(np.int8)
        s += int(np.sum(dx * dy, dtype=np.int64))
    return s // 2  # each unordered pair was counted twice


def _tie_counts(v: np.ndarray) -> np.ndarray:
    _, counts = np.unique(v, return_counts=True)
    return counts[counts > 1].astype(np.int64)


def kendall_tau(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> float:
    """Kendall tau-b with tie correction."""
    tau, _ = _kendall_tau_p(x, y)
    return tau


def kendall_tau_test(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray
) -> float:
    """Two-sided p for tau != 0 from the tie-adjusted normal approximation."""
    _, p = _kendall_tau_p(x, y)
    return p


def _kendall_tau_p(x, y) -> tuple[float, float]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise BadParameters("kendall_tau requires two equally sized 1-D vectors")
    n = xa.size
    if n < 3:
        raise BadParameters(f"kendall_tau requires n >= 3, got {n}")
    t = _tie_counts(xa)
    u = _tie_counts(ya)
    n0 = n * (n - 1) // 2
    n1 = int(np.sum(t * (t - 1) // 2))
    n2 = int(np.sum(u * (u - 1) // 2))
    if n1 == n0 or n2 == n0:
        raise DegenerateFeature("all values tied in one vector")
    s = _concordance_sum(xa, ya)
    tau = s / math.sqrt(float(n0 - n1) * float(n0 - n2))

    # var(S) = n(n-1)(2n+5)/18 with tie adjustments (Kendall's formula).
    vt = int(np.sum(t * (t - 1) * (2 * t + 5)))
    vu = int(np.sum(u * (u - 1) * (2 * u + 5)))
    v0 = n * (n - 1) * (2 * n + 5)
    var_s = (v0 - vt - vu) / 18.0
    var_s += (
        np.sum(t * (t - 1) * (t - 2)) * np.sum(u * (u - 1) * (u - 2))
    ) / (9.0 * n * (n - 1) * (n - 2))
    var_s += (np.sum(t * (t - 1)) * np.sum(u * (u - 1))) / (2.0 * n * (n - 1))
    if var_s <= 0:
        return tau, 1.0
    z = s / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# FDR selection
# ---------------------------------------------------------------------------

def fdr_select(
    p_values: Sequence[float] | np.ndarray, q: float, method: str = "by"
) -> tuple[np.ndarray, int]:
    """Step-up FDR selection; returns (selected indices, threshold rank k*).

    ``method="by"`` applies the Benjamini-Yekutieli harmonic correction
    c(m); ``method="bh"`` is plain Benjamini-Hochberg.  Ties at the
    threshold p-value are included.
    """
    if not (0.0 < q < 1.0):
        raise BadParameters(f"q must be in (0, 1), got {q}")
    if method not in ("by", "bh"):
        raise BadParameters(f"method must be 'by' or 'bh', got {method!r}")
    p = np.asarray(p_values, dtype=np.float64)
    if p.ndim != 1:
        raise BadParameters("p_values must be 1-D")
    if p.size == 0:
        return np.empty(0, dtype=np.int64), 0
    if np.any(np.isnan(p)) or np.any(p < 0) or np.any(p > 1):
        raise BadParameters("p-values must lie in [0, 1]")
    m = p.size
    sorted_p = np.sort(p)
    c_m = float(np.sum(1.0 / np.arange(1, m + 1))) if method == "by" else 1.0
    thresholds = np.arange(1, m + 1) * (q / (m * c_m))
    passing = np.nonzero(sorted_p <= thresholds)[0]
    if passing.size == 0:
        return np.empty(0, dtype=np.int64), 0
    k_star = int(passing[-1]) + 1
    return np.nonzero(p <= sorted_p[k_star - 1])[0].astype(np.int64), k_star


def benjamini_yekutieli(p_values: Sequence[float] | np.ndarray, q: float) -> np.ndarray:
    """Indices selected by the Benjamini-Yekutieli procedure at level q."""
    return fdr_select(p_values, q, method="by")[0]


def benjamini_hochberg(p_values: Sequence[float] | np.ndarray, q: float) -> np.ndarray:
    return fdr_select(p_values, q, method="bh")[0]


# ---------------------------------------------------------------------------
# select_features
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureTargetTest:
    """Outcome of testing one feature against the target."""

    feature_name: FeatureName
    test_kind: str
    p_value: float
    n_effective: int


@dataclass(frozen=True)
class SelectionReport:
    """All per-feature tests plus the FDR-selected subset, sorted by p."""

    q: float
    tests: tuple[FeatureTargetTest, ...]
    selected: tuple[FeatureName, ...]

    def selected_canonical(self) -> tuple[str, ...]:
        return tuple(f.canonical() for f in self.selected)


_PASS_CELLS = 1 << 16  # bounds the (row, column, group) count blocks of one sorted pass


def _sorted_pass(values: np.ndarray, in_group: np.ndarray) -> tuple[np.ndarray, ...]:
    """NaN-free and distinct values per column of *values* (n, m), and KS D
    and p per column and one-vs-rest group of *in_group* (n, G).

    One stable argsort sorts every column, NaN cells last; its tie runs are
    its distinct values.  D is the largest ``|c0/n0 - c1/n1|`` over the
    runs' last rows, c0 and c1 counting the rows out of and in the group at
    or below them: the floats ``ks_statistic`` takes.  Over two values, p is
    ``ks_two_sample_test``'s, with ``_kolmogorov_sf`` once per distinct
    lambda; two values take Fisher's from the rows at the lower one.  Other
    p are 1, as are a group's with no rows among a column's.
    """
    (n, m), n_groups = values.shape, in_group.shape[1]
    order = np.argsort(values, axis=0, kind="stable")
    ranked = np.take_along_axis(values, order, axis=0)
    n_eff = np.count_nonzero(~np.isnan(values), axis=0)
    at_or_below = np.arange(1, n + 1)[:, None]
    run_end = np.append(ranked[1:] != ranked[:-1], np.ones((1, m), dtype=bool), axis=0)
    run_end &= at_or_below <= n_eff
    n_distinct = run_end.sum(axis=0)
    d, lam = np.zeros((2, m, n_groups), dtype=np.float64)
    p = np.ones((m, n_groups), dtype=np.float64)
    step = max(1, _PASS_CELLS // (n * max(1, n_groups)))
    for lo in range(0, m, step):
        cols = slice(lo, lo + step)
        c1 = in_group[order[:, cols]].cumsum(axis=0)
        c0 = at_or_below[:, :, None] - c1
        n1 = np.take_along_axis(c1, np.maximum(n_eff[cols] - 1, 0)[None, :, None], axis=0)[0]
        n0 = n_eff[cols, None] - n1
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = np.abs(c0 / n0 - c1 / n1)
        d[cols] = np.where(run_end[:, cols, None], gaps, 0.0).max(axis=0)
        ok = (n0 > 0) & (n1 > 0)
        ks = ok & (n_distinct[cols, None] > 2)
        ne = n0[ks] * n1[ks] / (n0[ks] + n1[ks])
        lam[cols][ks] = (np.sqrt(ne) + 0.12 + 0.11 / np.sqrt(ne)) * d[cols][ks]
        low = run_end[:, cols].argmax(axis=0)  # the lower value's last row
        in_low = np.take_along_axis(c1, low[None, :, None], axis=0)[0]
        table = np.stack([[low[:, None] + 1 - in_low, in_low], [n0, n1]])
        table[1] -= table[0]
        for c, g in zip(*np.nonzero(ok & (n_distinct[cols, None] == 2))):
            p[lo + c, g] = fisher_exact_test(table[:, :, c, g].tolist())
    ks = lam > 0  # p is 1 at lambda 0
    distinct_lam, where = np.unique(lam[ks], return_inverse=True)
    p[ks] = np.array([_kolmogorov_sf(v) for v in distinct_lam.tolist()])[where]
    return n_eff, n_distinct, d, p


def select_features(
    matrix: FeatureMatrix,
    target: Sequence,
    q: float = 0.05,
    method: str = "by",
) -> SelectionReport:
    """FRESH selection: test every column, then FDR-select at level q.

    The target may be binary (two distinct values, any type), real-valued,
    or categorical with more than two classes (handled one-vs-rest).  A
    binary target is one group, its second class against the first.  NaN
    feature cells are dropped pairwise per column; a feature that is
    constant (or all NaN) after dropping gets p = 1.  One sorted pass
    (``_sorted_pass``) tests every column against every group at once; a
    real target's columns are then tested one after another.
    """
    n = matrix.n_rows
    if n < 2:
        raise BadParameters("selection requires at least 2 rows")
    target_list = list(target)
    if len(target_list) != n:
        raise BadParameters(f"target length {len(target_list)} != row count {n}")

    numeric = all(isinstance(v, (int, float, np.integer, np.floating)) for v in target_list)
    if numeric:
        target_rows = np.asarray(target_list, dtype=np.float64)
        row_ok = ~np.isnan(target_rows)
        target_rows = target_rows[row_ok]
        classes = np.unique(target_rows)
    else:
        target_rows = np.asarray([str(v) for v in target_list], dtype=object)
        row_ok = np.ones(n, dtype=bool)
        classes = sorted(set(target_rows))
    if len(classes) <= 1:
        raise DegenerateTarget("target is constant")
    real = numeric and len(classes) > 2
    # One-vs-rest groups; a binary target is one group, its second class.
    groups = [] if real else classes[1:] if len(classes) == 2 else classes

    values = matrix.values[row_ok]
    if values.shape[0] < 2:
        raise DegenerateTarget("fewer than 2 rows with a usable target")

    in_group = target_rows[:, None] == np.asarray(groups, dtype=target_rows.dtype)
    n_eff, n_distinct, _, p_matrix = _sorted_pass(values, in_group)
    # Constant below two distinct values, Fisher at two, else KS.
    kinds = np.array([TEST_CONSTANT, TEST_FISHER, TEST_KS])[np.clip(n_distinct, 1, 3) - 1].tolist()
    if real:
        p_matrix = np.ones((matrix.n_cols, 1), dtype=np.float64)
        for col in np.flatnonzero(n_distinct > 1).tolist():
            mask = ~np.isnan(values[:, col])
            xv, tv = values[mask, col], target_rows[mask]
            if n_distinct[col] == 2:  # KS between the target's two feature groups
                low = xv == xv.min()
                p_matrix[col, 0], kinds[col] = ks_two_sample_test(tv[low], tv[~low]), TEST_KS
                continue
            kinds[col] = TEST_KENDALL
            try:
                p_matrix[col, 0] = kendall_tau_test(xv, tv)
            except DegenerateFeature:
                pass  # all target values tied: p stays 1

    selected_mask = np.zeros(matrix.n_cols, dtype=bool)
    for p_group in p_matrix.T:
        selected_mask[fdr_select(p_group, q, method)[0]] = True

    best_p = p_matrix.min(axis=1)
    # Columns are in canonical-name order, so a stable sort breaks p ties by name.
    order = np.argsort(best_p, kind="stable")
    tests = tuple(
        FeatureTargetTest(matrix.feature_names[i], kinds[i], float(best_p[i]), int(n_eff[i]))
        for i in order
    )
    selected = tuple(matrix.feature_names[i] for i in order if selected_mask[i])
    return SelectionReport(q=q, tests=tests, selected=selected)


# ---------------------------------------------------------------------------
# Report CSV
# ---------------------------------------------------------------------------

def save_report_csv(report: SelectionReport, stream: TextIO) -> None:
    """``feature,p_value,test_kind,selected`` sorted by p ascending."""
    selected_set = set(report.selected_canonical())
    stream.write("feature,p_value,test_kind,selected\n")
    for test in report.tests:
        name = test.feature_name.canonical()
        flag = "True" if name in selected_set else "False"
        stream.write(f"{name},{render_float(test.p_value)},{test.test_kind},{flag}\n")


def save_report(report: SelectionReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_report_csv(report, fh)
