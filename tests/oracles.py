"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately written with plain Python loops and stdlib
arithmetic (no numpy), so a library bug cannot hide in a shared code path.
The exceptions are loops that a vectorised library path replaced and that
must agree with it exactly:

- ``best_split``: the per-feature numpy loop of the forest's split search,
  including which candidate wins a tie;
- ``grow_tree``: the tree grower with per-node Python lists, which partitions
  each node by comparing its rows with the threshold, and draws from the
  counter-based stream ``stream_output`` in Python integers;
- ``leaf_probs``, ``tree_apply`` and ``predict_proba``: prediction one tree
  at a time, which the forest's walk over all trees at once must match bit
  for bit;
- ``load_recording_csv`` and ``save_recording_csv``: the line-at-a-time
  wide recording CSV reader, which refuses the long header as the library
  does, and the wide writer;
- ``save_matrix_csv``: the feature-matrix writer one cell at a time;
- ``tiles``: segmentation one window at a time, which the grid
  ``WindowSet`` must match in ids, labels and times bit for bit;
- ``select_features``: selection's per-target-mode test dispatch (a binary
  branch, a multiclass branch and a real branch), which must give the same
  report as the library's single per-column loop;
- the ``*_kernel`` functions: the per-parameter batch kernels of the
  calculators whose family kernels share intermediates (``quantile``,
  ``median``, ``change_quantiles``, ``agg_linear_trend``,
  ``binned_entropy``), one numpy call chain per parameter set, which the
  families must match bit for bit.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np

from imufresh.calculators import _linear_fit
from imufresh.errors import (
    BadParameters,
    DegenerateFeature,
    DegenerateTable,
    DegenerateTarget,
    InconsistentChannels,
    InvalidValue,
    NonUniformSampling,
)
from imufresh.forest import Tree
from imufresh.selection import (
    TEST_CONSTANT,
    TEST_FISHER,
    TEST_KENDALL,
    TEST_KS,
    FeatureTargetTest,
    SelectionReport,
    fdr_select,
    fisher_exact_test,
    kendall_tau_test,
    ks_two_sample_test,
)
from imufresh.timeseries import UNIFORM_STEP_RTOL, Recording, render_float, validate_kind


# --- quantiles / change_quantiles -----------------------------------------

def quantile(xs, q):
    """Linear interpolation between order statistics at position (n-1)*q."""
    s = sorted(xs)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return s[lo] + frac * (s[hi] - s[lo])


def change_quantiles(xs, ql, qh, isabs, f_agg):
    lo = quantile(xs, ql)
    hi = quantile(xs, qh)
    kept = []
    for i in range(len(xs) - 1):
        if lo <= xs[i] <= hi and lo <= xs[i + 1] <= hi:
            d = xs[i + 1] - xs[i]
            kept.append(abs(d) if isabs else d)
    if not kept:
        return 0.0
    mean = sum(kept) / len(kept)
    if f_agg == "mean":
        return mean
    return sum((v - mean) ** 2 for v in kept) / len(kept)


# --- linear trends ----------------------------------------------------------

def linear_trend(xs, attr):
    n = len(xs)
    t_mean = (n - 1) / 2.0
    x_mean = sum(xs) / n
    stt = sum((t - t_mean) ** 2 for t in range(n))
    sxt = sum((t - t_mean) * (x - x_mean) for t, x in zip(range(n), xs))
    slope = sxt / stt
    intercept = x_mean - slope * t_mean
    if attr == "slope":
        return slope
    if attr == "intercept":
        return intercept
    if attr == "stderr":
        rss = sum((x - (slope * t + intercept)) ** 2 for t, x in zip(range(n), xs))
        if n == 2 or rss == 0.0:
            return 0.0
        return math.sqrt(rss / (n - 2) / stt)
    if attr == "rvalue":
        sxx = sum((x - x_mean) ** 2 for x in xs)
        if sxx == 0.0:
            return 0.0
        return sxt / math.sqrt(stt * sxx)
    raise ValueError(attr)


def agg_linear_trend(xs, f_agg, chunk_len, attr):
    n_chunks = len(xs) // chunk_len
    if n_chunks < 2:
        return math.nan
    agg = []
    for c in range(n_chunks):
        chunk = xs[c * chunk_len : (c + 1) * chunk_len]
        if f_agg == "max":
            agg.append(max(chunk))
        elif f_agg == "min":
            agg.append(min(chunk))
        else:
            agg.append(sum(chunk) / len(chunk))
    return linear_trend(agg, attr)


# --- per-parameter calculator kernels: (n_windows, w) -> (n_windows,) -------

_TREND_ATTRS = ("slope", "intercept", "stderr", "rvalue")


def quantile_kernel(X, q):
    return np.quantile(X, q, axis=1)


def median_kernel(X):
    return np.median(X, axis=1)


def change_quantiles_kernel(X, f_agg, isabs, qh, ql):
    lo = np.quantile(X, ql, axis=1, keepdims=True)
    hi = np.quantile(X, qh, axis=1, keepdims=True)
    inside = (X >= lo) & (X <= hi)
    keep = inside[:, :-1] & inside[:, 1:]
    d = np.abs(np.diff(X, axis=1)) if isabs else np.diff(X, axis=1)
    count = np.maximum(keep.sum(axis=1), 1)
    mean = np.where(keep, d, 0.0).sum(axis=1) / count
    if f_agg == "mean":
        return mean
    return np.where(keep, (d - mean[:, None]) ** 2, 0.0).sum(axis=1) / count


def agg_linear_trend_kernel(X, f_agg, chunk_len, attr):
    # The fit itself is the library's; linear_trend above checks it.
    n_chunks = X.shape[1] // chunk_len
    if n_chunks < 2:
        return np.full(X.shape[0], math.nan)
    chunks = X[:, : n_chunks * chunk_len].reshape(X.shape[0], n_chunks, chunk_len)
    return _linear_fit(getattr(chunks, f_agg)(axis=2))[_TREND_ATTRS.index(attr)]


def binned_entropy_kernel(X, bins):
    out = np.zeros(X.shape[0])
    for i, x in enumerate(X):
        lo, hi = float(x.min()), float(x.max())
        if lo == hi:
            continue
        try:
            hist, _ = np.histogram(x, bins=bins, range=(lo, hi))
        except ValueError:  # too many bins for the range: undefined
            out[i] = math.nan
            continue
        p = hist[hist > 0] / x.size
        out[i] = -np.sum(p * np.log(p))
    return out


# --- Fisher exact -------------------------------------------------------------

def fisher_exact(table):
    """Exact two-sided p via Fraction-valued hypergeometric enumeration."""
    (a, b), (c, d) = table
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    denom = math.comb(n, c1)

    def prob(k):
        return Fraction(math.comb(r1, k) * math.comb(r2, c1 - k), denom)

    p_obs = prob(a)
    total = Fraction(0)
    for k in range(max(0, c1 - r2), min(r1, c1) + 1):
        p_k = prob(k)
        if p_k <= p_obs:
            total += p_k
    return float(total)


# --- Kendall tau-b -------------------------------------------------------------

def kendall(xs, ys):
    """(tau_b, two-sided p) by O(n^2) pair counting and longhand tie terms."""
    n = len(xs)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[j] - xs[i]
            dy = ys[j] - ys[i]
            if dx > 0 and dy > 0 or dx < 0 and dy < 0:
                s += 1
            elif dx > 0 and dy < 0 or dx < 0 and dy > 0:
                s -= 1

    def tie_sizes(vs):
        counts = {}
        for v in vs:
            counts[v] = counts.get(v, 0) + 1
        return [c for c in counts.values() if c > 1]

    t_ties = tie_sizes(xs)
    u_ties = tie_sizes(ys)
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in t_ties)
    n2 = sum(u * (u - 1) // 2 for u in u_ties)
    tau = s / math.sqrt(float(n0 - n1) * float(n0 - n2))

    vt = sum(t * (t - 1) * (2 * t + 5) for t in t_ties)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in u_ties)
    var_s = (n * (n - 1) * (2 * n + 5) - vt - vu) / 18.0
    var_s += (
        sum(t * (t - 1) * (t - 2) for t in t_ties)
        * sum(u * (u - 1) * (u - 2) for u in u_ties)
    ) / (9.0 * n * (n - 1) * (n - 2))
    var_s += (
        sum(t * (t - 1) for t in t_ties) * sum(u * (u - 1) for u in u_ties)
    ) / (2.0 * n * (n - 1))
    if var_s <= 0:
        return tau, 1.0
    z = s / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, min(1.0, p)


# --- Kolmogorov-Smirnov ---------------------------------------------------------

def ks_d(a, b):
    """sup |ECDF_a - ECDF_b| by direct evaluation at every sample point."""
    best = 0.0
    for point in list(a) + list(b):
        f_a = sum(1 for v in a if v <= point) / len(a)
        f_b = sum(1 for v in b if v <= point) / len(b)
        best = max(best, abs(f_a - f_b))
    return best


def ks_p(d, n_a, n_b):
    """Direct evaluation of 2*sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    ne = n_a * n_b / (n_a + n_b)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    if lam == 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for j in range(1, 100001):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


# --- Benjamini-Yekutieli ----------------------------------------------------------

def by_selected(p_values, q):
    """Indices selected by the BY step-up rule, computed longhand."""
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    c_m = sum(1.0 / i for i in range(1, m + 1))
    k_star = 0
    for rank, idx in enumerate(order, start=1):
        if p_values[idx] <= rank * q / (m * c_m):
            k_star = rank
    if k_star == 0:
        return set()
    threshold = p_values[order[k_star - 1]]
    return {i for i in range(m) if p_values[i] <= threshold}


# --- feature selection ---------------------------------------------------------

def _binary_target_p(xv, in_group):
    """p for a non-constant feature against a boolean group indicator."""
    g0 = xv[~in_group]
    g1 = xv[in_group]
    values = np.unique(xv)
    kind = TEST_FISHER if values.size == 2 else TEST_KS
    if g0.size == 0 or g1.size == 0:
        return 1.0, kind
    if values.size == 2:
        table = [
            [int(np.sum(g0 == values[0])), int(np.sum(g1 == values[0]))],
            [int(np.sum(g0 == values[1])), int(np.sum(g1 == values[1]))],
        ]
        try:
            return fisher_exact_test(table), kind
        except DegenerateTable:
            return 1.0, kind
    return ks_two_sample_test(g0, g1), kind


def _real_target_p(xv, tv):
    values = np.unique(xv)
    if values.size == 2:
        a = tv[xv == values[0]]
        b = tv[xv == values[1]]
        return ks_two_sample_test(a, b), TEST_KS
    if xv.size < 3:
        return 1.0, TEST_KENDALL
    try:
        return kendall_tau_test(xv, tv), TEST_KENDALL
    except DegenerateFeature:
        return 1.0, TEST_KENDALL


def _test_columns(values, target_rows, mode, class_values):
    """(p-values, test kinds, n_effective) of every column."""
    n_classes = len(class_values) if mode == "multiclass" else 1
    p_block = np.ones((values.shape[1], n_classes), dtype=np.float64)
    kinds = []
    n_eff = []
    for col in range(values.shape[1]):
        x = values[:, col]
        mask = ~np.isnan(x)
        xv = x[mask]
        n_eff.append(int(mask.sum()))
        if xv.size == 0 or np.unique(xv).size <= 1:
            kinds.append(TEST_CONSTANT)
            continue
        tv = target_rows[mask]
        if mode == "binary":
            p, kind = _binary_target_p(xv, tv == class_values[1])
            p_block[col, 0] = p
        elif mode == "real":
            p, kind = _real_target_p(xv, tv)
            p_block[col, 0] = p
        else:
            kind = TEST_FISHER if np.unique(xv).size == 2 else TEST_KS
            for ci, cls in enumerate(class_values):
                p_block[col, ci] = _binary_target_p(xv, tv == cls)[0]
        kinds.append(kind)
    return p_block, kinds, n_eff


def select_features(matrix, target, q=0.05, method="by"):
    """The selection report, dispatched on the target mode: binary,
    multiclass (one-vs-rest over every class) or real."""
    n = matrix.n_rows
    if n < 2:
        raise BadParameters("selection requires at least 2 rows")
    target_list = list(target)
    if len(target_list) != n:
        raise BadParameters(f"target length {len(target_list)} != row count {n}")
    numeric = all(isinstance(v, (int, float, np.integer, np.floating)) for v in target_list)
    if numeric:
        t_real = np.asarray(target_list, dtype=np.float64)
        row_ok = ~np.isnan(t_real)
        t_real = t_real[row_ok]
        distinct = np.unique(t_real)
        if distinct.size <= 1:
            raise DegenerateTarget("target is constant")
        mode = "binary" if distinct.size == 2 else "real"
        class_values = list(distinct) if mode == "binary" else []
        target_rows = t_real
    else:
        t_cat = np.asarray([str(v) for v in target_list], dtype=object)
        row_ok = np.ones(n, dtype=bool)
        classes = sorted(set(t_cat))
        if len(classes) <= 1:
            raise DegenerateTarget("target is constant")
        mode = "binary" if len(classes) == 2 else "multiclass"
        class_values = classes
        target_rows = t_cat
    values = matrix.values[row_ok]
    if values.shape[0] < 2:
        raise DegenerateTarget("fewer than 2 rows with a usable target")

    p_matrix, kinds, n_eff = _test_columns(values, target_rows, mode, class_values)
    selected_mask = np.zeros(matrix.n_cols, dtype=bool)
    threshold_rank = 0
    for ci in range(p_matrix.shape[1]):
        idx, k_star = fdr_select(p_matrix[:, ci], q, method)
        selected_mask[idx] = True
        threshold_rank = max(threshold_rank, k_star)
    best_p = p_matrix.min(axis=1)
    order = np.argsort(best_p, kind="stable")
    tests = tuple(
        FeatureTargetTest(matrix.feature_names[i], kinds[i], float(best_p[i]), n_eff[i])
        for i in order
    )
    selected = tuple(matrix.feature_names[i] for i in order if selected_mask[i])
    return SelectionReport(q=q, tests=tests, selected=selected, threshold_rank=threshold_rank)


# --- forest split search -----------------------------------------------------

def best_split(x_cols, y, idx, counts, feats, n_classes):
    """Best (gain, feature, threshold) over the sampled features, or None.

    One feature at a time, in sampled order with thresholds ascending; a
    later candidate wins only with a strictly larger gain.
    """
    n_node = idx.size
    imp_parent = 1.0 - float(np.dot(counts, counts)) / (n_node * n_node)
    class_eye = np.arange(n_classes)
    best_gain = 0.0
    best = None
    for f in feats:
        v = x_cols[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = y[idx][order]
        boundaries = np.nonzero(vs[:-1] < vs[1:])[0]
        if boundaries.size == 0:
            continue
        n_left = boundaries + 1
        cum = np.cumsum(ys[:, None] == class_eye, axis=0)
        c_left = cum[boundaries]
        c_right = counts - c_left
        n_right = n_node - n_left
        gini_left = 1.0 - np.sum(c_left * c_left, axis=1) / (n_left * n_left)
        gini_right = 1.0 - np.sum(c_right * c_right, axis=1) / (n_right * n_right)
        gain = imp_parent - (n_left * gini_left + n_right * gini_right) / n_node
        pick = int(np.argmax(gain))
        if gain[pick] > best_gain:
            best_gain = float(gain[pick])
            b = int(boundaries[pick])
            thr = (vs[b] + vs[b + 1]) / 2.0
            if thr >= vs[b + 1]:  # adjacent floats, or an overflowing sum
                thr = vs[b]
            best = (int(f), float(thr))
    if best is None:
        return None
    return best_gain, best[0], best[1]


GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix(z):
    """SplitMix64's finaliser on a Python int, mod 2**64."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_output(seed, t, i):
    """Output i of tree t's stream under *seed*: ``mix(s_t + (i + 1) gamma)``
    with ``s_t = mix(S + (t + 1) gamma)``, S the seed's low 64 bits."""
    start = mix((seed & MASK64) + (t + 1) * GAMMA)
    return mix(start + (i + 1) * GAMMA)


def bootstrap(seed, t, n):
    """Tree t's bootstrap of n rows: slot j takes row ``u(j) mod n``."""
    return [stream_output(seed, t, j) % n for j in range(n)]


def grow_tree(x, y, n_classes, seed, t, importance_acc):
    """Tree t of the forest seeded *seed*, grown with per-node Python lists,
    calling ``best_split`` and partitioning each node by comparing its rows
    with the threshold.  Its k-th searched node in DFS order takes the
    features with the ``mtry`` smallest keys ``u(n + k p + f)``, ascending."""
    n, p = x.shape
    mtry = max(1, math.isqrt(p))  # floor(sqrt(p)) features per node
    boot = np.asarray(bootstrap(seed, t, n), dtype=np.int64)
    searched = 0

    feature, threshold, left, right, counts_list = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts_list.append(np.zeros(n_classes, dtype=np.float64))
        return len(feature) - 1

    root = new_node()
    stack = [(boot, root)]
    while stack:
        idx, nid = stack.pop()
        node_counts = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
        counts_list[nid] = node_counts
        n_node = idx.size
        if int(np.count_nonzero(node_counts)) <= 1:  # pure
            continue
        first = n + searched * p
        keys = [stream_output(seed, t, first + f) for f in range(p)]
        feats = sorted(range(p), key=keys.__getitem__)[:mtry]
        searched += 1
        split = best_split(x, y, idx, node_counts, feats, n_classes)
        if split is None:
            continue
        gain, f, thr = split
        importance_acc[f] += (n_node / n) * gain
        go_left = x[idx, f] <= thr
        lid = new_node()
        rid = new_node()
        feature[nid] = f
        threshold[nid] = thr
        left[nid] = lid
        right[nid] = rid
        stack.append((idx[~go_left], rid))
        stack.append((idx[go_left], lid))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        counts=np.asarray(counts_list, dtype=np.float64),
    )


# --- forest prediction ---------------------------------------------------------

def leaf_probs(tree):
    """Each node's class frequencies; an all-zero node gives all zeros."""
    totals = tree.counts.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    return tree.counts / safe


def tree_apply(tree, rows):
    """Leaf index of every row in one tree, walked level by level."""
    idx = np.zeros(rows.shape[0], dtype=np.int32)
    active = tree.feature[idx] >= 0
    while np.any(active):
        sel = np.nonzero(active)[0]
        node = idx[sel]
        go_left = rows[sel, tree.feature[node]] <= tree.threshold[node]
        idx[sel] = np.where(go_left, tree.left[node], tree.right[node])
        active[sel] = tree.feature[idx[sel]] >= 0
    return idx


def predict_proba(model, rows):
    """One walk per tree, leaf frequencies summed in tree order."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    out = np.zeros((rows.shape[0], len(model.classes)), dtype=np.float64)
    for tree in model.trees:
        out += leaf_probs(tree)[tree_apply(tree, rows)]
    return out / len(model.trees)


# --- segmentation --------------------------------------------------------------

LABEL_EDGE_EPS = 1e-9


def tiles(recording, w, labels):
    """``(start_index, window_id, label)`` of each window of *w* samples,
    tiled from sample 0 one window at a time.  A window's label is that of
    the first interval, by start, holding its whole time span within the
    edge slack, else None; with ``labels=None`` every label is None."""
    intervals = sorted(labels or [], key=lambda iv: (iv[0], iv[1]))
    rate, t0 = recording.sample_rate_hz, recording.t0
    out = []
    wid = 0
    for start in range(0, recording.length - w + 1, w):
        label = None
        if labels is not None:
            t_start = t0 + start / rate
            t_end = t0 + (start + w) / rate
            for iv_start, iv_end, iv_label in intervals:
                if t_start >= iv_start - LABEL_EDGE_EPS and t_end <= iv_end + LABEL_EDGE_EPS:
                    label = iv_label
                    break
        out.append((start, wid, label))
        wid += 1
    return out


# --- recording CSV ------------------------------------------------------------

def load_recording_csv(stream):
    """The wide reader one line at a time: same checks, exceptions and
    result.  The long layout's header ``time,kind,value`` is refused."""
    if hasattr(stream, "mode") and "b" in getattr(stream, "mode", ""):
        text = io.TextIOWrapper(stream, encoding="utf-8")
    elif isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
        text = io.TextIOWrapper(stream, encoding="utf-8")
    else:
        text = stream  # already text

    header = text.readline().rstrip("\n").rstrip("\r")
    if header == "time,kind,value":
        raise InconsistentChannels("the long layout is not read: only the wide layout is")
    grid, channels = _wide_channels(text, header.split(","))

    if grid.shape[0] < 2:
        raise InconsistentChannels("each channel needs at least 2 samples to infer a rate")
    dt = float((grid[-1] - grid[0]) / (len(grid) - 1))
    if dt <= 0:
        raise NonUniformSampling("time values must be strictly increasing")
    tolerance = UNIFORM_STEP_RTOL * dt + 2 * np.spacing(np.abs(grid).max())
    if np.any(np.abs(np.diff(grid) - dt) > tolerance):
        raise NonUniformSampling("non-uniform time step")
    return Recording(sample_rate_hz=1.0 / dt, channels=channels, t0=float(grid[0]))


def _data_lines(text):
    """(line number, line) of each non-blank line after the header."""
    for lineno, line in enumerate(text, start=2):
        line = line.rstrip("\n").rstrip("\r")
        if line:
            yield lineno, line


def _wide_channels(text, names):
    """A header of ``time`` and distinct valid kinds; every line's field
    count, then the time column, then each kind's column in header order."""
    if names[0] != "time" or len(names) < 2:
        raise InconsistentChannels(f"bad header {','.join(names)!r}")
    kinds = [validate_kind(name) for name in names[1:]]
    if len(set(kinds)) != len(kinds):
        raise InconsistentChannels(f"header names a kind twice: {names!r}")
    columns = [[] for _ in names]
    for lineno, line in _data_lines(text):
        parts = line.split(",")
        if len(parts) != len(names):
            raise InconsistentChannels(
                f"line {lineno}: expected {len(names)} fields, got {len(parts)}"
            )
        for column, field in zip(columns, parts):
            column.append(field)
    if not columns[0]:
        raise InconsistentChannels("CSV contains no data rows")

    def parse(j):
        try:
            return np.asarray(columns[j], dtype=np.float64)
        except ValueError as exc:
            raise InvalidValue(f"{names[j]!r} column: unparseable field ({exc})") from None

    times = parse(0)
    channels = {}
    for j, kind in enumerate(kinds, start=1):
        channels[kind] = parse(j)
        _check_finite(kind, times, channels[kind])
    return times, channels


def _check_finite(kind, times, values):
    if not np.all(np.isfinite(values)):
        raise InvalidValue(f"channel {kind!r} contains NaN or infinite values")
    if not np.all(np.isfinite(times)):
        raise InvalidValue(f"channel {kind!r} has NaN or infinite timestamps")


def save_recording_csv(recording, stream):
    """The wide writer one time step at a time, with one join per row."""
    kinds = recording.kinds
    stream.write(",".join(("time",) + kinds) + "\n")
    for i in range(recording.length):
        cells = [recording.t0 + i / recording.sample_rate_hz]
        cells.extend(recording.channels[kind][i] for kind in kinds)
        stream.write(",".join(render_float(v) for v in cells) + "\n")


def save_matrix_csv(matrix, stream):
    """The feature-matrix writer with one ``render_float`` per cell."""
    header = ["window_id"] + (["label"] if matrix.labels is not None else [])
    stream.write(",".join(header + list(matrix.canonical_names())) + "\n")
    for r in range(matrix.n_rows):
        cells = [str(int(matrix.window_ids[r]))]
        if matrix.labels is not None:
            cells.append(matrix.labels[r])
        cells.extend(render_float(v) for v in matrix.values[r])
        stream.write(",".join(cells) + "\n")
