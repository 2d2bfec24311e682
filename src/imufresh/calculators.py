"""Curated library of parameterized time-series feature calculators.

Each calculator is a family kernel mapping an ``(n_windows, w)`` array
(``w >= 2``) and a list of parameter dicts to an ``(n_windows,
len(params_list))`` array: one column per parameter set, so a parameter
sweep shares its intermediates (a row sort, the step differences, a
corridor mask, a chunk aggregate, a linear fit).  Each intermediate is
computed from whole rows, never from which parameters were requested, so a
column's bits do not depend on the other entries of ``params_list``.
Kernels reduce only within rows (never ``@`` on a 2-D array), so a row's
bits do not depend on its batch either.

Each calculator declares an ordered parameter signature; the signature
order is what the canonical feature-name codec uses.  Population statistics
are used throughout.  A calculator may return NaN only in its documented
undefined cases:

* ``skewness``: n < 3 or zero variance
* ``kurtosis``: n < 4 or zero variance
* ``autocorrelation``: zero variance, or lag >= n
* ``agg_linear_trend``: fewer than 2 full chunks
* ``c3`` / ``time_reversal_asymmetry_statistic``: n <= 2 * lag

:func:`default_settings` enumerates the full parameter grid, the product
of each parameter's declared ``grid`` values that the calculator's cross
check accepts (:data:`GRID_FEATURES_PER_KIND` features per channel kind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import BadParameters, UnknownCalculator
from .names import (
    FeatureName,
    ParamValue,
    split_param_token,
    split_tokens,
    validate_identifier,
)
from .timeseries import validate_kind

Params = Mapping[str, ParamValue]
Family = Callable[[np.ndarray, Sequence[Params]], np.ndarray]

# ---------------------------------------------------------------------------
# Row kernels: (n_windows, w) -> (n_windows,), lifted into families by _each
# ---------------------------------------------------------------------------

def _nan_rows(X: np.ndarray) -> np.ndarray:
    return np.full(X.shape[0], math.nan)


def _minimum(X: np.ndarray) -> np.ndarray:
    return X.min(axis=1)


def _maximum(X: np.ndarray) -> np.ndarray:
    return X.max(axis=1)


def _mean(X: np.ndarray) -> np.ndarray:
    return X.mean(axis=1)


def _variance(X: np.ndarray) -> np.ndarray:
    return X.var(axis=1)


def _standard_deviation(X: np.ndarray) -> np.ndarray:
    return X.std(axis=1)


def _skewness(X: np.ndarray) -> np.ndarray:
    # Bias-corrected (adjusted Fisher-Pearson) G1.
    n = X.shape[1]
    if n < 3:
        return _nan_rows(X)
    d = X - X.mean(axis=1, keepdims=True)
    m2 = (d * d).mean(axis=1)
    m3 = (d * d * d).mean(axis=1)
    g1 = np.divide(m3, m2**1.5, out=_nan_rows(X), where=m2 != 0.0)
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def _kurtosis(X: np.ndarray) -> np.ndarray:
    # Bias-adjusted excess kurtosis G2.
    n = X.shape[1]
    if n < 4:
        return _nan_rows(X)
    d = X - X.mean(axis=1, keepdims=True)
    m2 = (d * d).mean(axis=1)
    m4 = (d * d * d * d).mean(axis=1)
    g2 = np.divide(m4, m2 * m2, out=_nan_rows(X), where=m2 != 0.0) - 3.0
    return (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)


def _abs_energy(X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", X, X)


def _root_mean_square(X: np.ndarray) -> np.ndarray:
    return np.sqrt((X * X).mean(axis=1))


def _mean_abs_change(X: np.ndarray) -> np.ndarray:
    return np.abs(np.diff(X, axis=1)).mean(axis=1)


def _mean_change(X: np.ndarray) -> np.ndarray:
    return (X[:, -1] - X[:, 0]) / (X.shape[1] - 1)


def _autocorrelation(X: np.ndarray, lag: int) -> np.ndarray:
    n = X.shape[1]
    if lag >= n:
        return _nan_rows(X)
    v = X.var(axis=1)
    d = X - X.mean(axis=1, keepdims=True)
    num = np.einsum("ij,ij->i", d[:, : n - lag], d[:, lag:])
    return np.divide(num, (n - lag) * v, out=_nan_rows(X), where=v != 0.0)


def _partial_stationarity_gap(X: np.ndarray) -> np.ndarray:
    half = X.shape[1] // 2
    gap = np.abs(X[:, :half].mean(axis=1) - X[:, half:].mean(axis=1))
    return gap / (X.std(axis=1) + 1e-12)


def _c3(X: np.ndarray, lag: int) -> np.ndarray:
    n = X.shape[1]
    if n <= 2 * lag:
        return _nan_rows(X)
    return (X[:, : n - 2 * lag] * X[:, lag : n - lag] * X[:, 2 * lag :]).mean(axis=1)


def _time_reversal_asymmetry_statistic(X: np.ndarray, lag: int) -> np.ndarray:
    n = X.shape[1]
    if n <= 2 * lag:
        return _nan_rows(X)
    a = X[:, 2 * lag :]
    b = X[:, lag : n - lag]
    c = X[:, : n - 2 * lag]
    return (a * a * b - b * c * c).mean(axis=1)


def _each(kernel: Callable[..., np.ndarray]) -> Family:
    """The family of a row kernel: one kernel call per parameter set."""

    def family(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
        return np.stack([kernel(X, **params) for params in params_list], axis=1)

    return family


# ---------------------------------------------------------------------------
# Family kernels with shared intermediates
# ---------------------------------------------------------------------------

def _sorted_quantile(S: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(X, q, axis=1)`` from ``S = np.sort(X, axis=1)``, bit for bit.

    numpy's ``linear`` rule: virtual index ``(n-1)*q`` between the order
    statistics ``floor`` and ``floor + 1``, the upper one clamped to the last
    (at q = 1 numpy weighs against a clamped index -1 instead, which gives
    the same bits), interpolated as numpy's ``_lerp`` does: counting back
    from the upper neighbour when the weight is >= 0.5.
    """
    n = S.shape[1]
    v = (n - 1) * q
    below = math.floor(v)
    a, b = S[:, below], S[:, min(below + 1, n - 1)]
    t = v - below
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _quantile(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
    # Linear interpolation between order statistics at position (n-1)*q.
    S = np.sort(X, axis=1)
    return np.stack([_sorted_quantile(S, params["q"]) for params in params_list], axis=1)


def _median(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
    # np.median's mean of the one or two middle order statistics.
    S = np.sort(X, axis=1)
    k = S.shape[1] // 2
    mid = S[:, k] if S.shape[1] % 2 else (S[:, k - 1] + S[:, k]) / 2
    return np.stack([mid for _ in params_list], axis=1)


def _change_quantiles(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
    # Mean or variance of the steps with both ends inside the row's corridor
    # [quantile ql, quantile qh]; 0.0 where no step is.  One sort gives every
    # corridor bound, and one mask per (ql, qh) serves both isabs and f_agg.
    S = np.sort(X, axis=1)
    d = np.diff(X, axis=1)
    steps = {False: d, True: np.abs(d)}
    levels = {params[key] for params in params_list for key in ("ql", "qh")}
    bound = {q: _sorted_quantile(S, q)[:, None] for q in levels}
    corridors: dict[tuple, list[int]] = {}
    for j, params in enumerate(params_list):
        corridors.setdefault((params["ql"], params["qh"]), []).append(j)
    out = np.empty((X.shape[0], len(params_list)))
    for (ql, qh), cols in corridors.items():
        inside = (X >= bound[ql]) & (X <= bound[qh])
        keep = inside[:, :-1] & inside[:, 1:]
        count = np.maximum(keep.sum(axis=1), 1)
        means: dict[bool, np.ndarray] = {}
        for j in cols:
            isabs = params_list[j]["isabs"]
            if isabs not in means:
                means[isabs] = np.where(keep, steps[isabs], 0.0).sum(axis=1) / count
            mean = means[isabs]
            if params_list[j]["f_agg"] == "mean":
                out[:, j] = mean
            else:
                dev = (steps[isabs] - mean[:, None]) ** 2
                out[:, j] = np.where(keep, dev, 0.0).sum(axis=1) / count
    return out


def _linear_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fit of each row against t = 0..n-1.

    Returns (slope, intercept, stderr, rvalue), one value per row.  stderr
    is the slope standard error, defined as 0.0 for n == 2 or an exact fit;
    rvalue is Pearson r, 0.0 for a constant row.
    """
    n = X.shape[1]
    t = np.arange(n, dtype=np.float64)
    t_mean = (n - 1) / 2.0
    x_mean = X.mean(axis=1)
    dt = t - t_mean
    dx = X - x_mean[:, None]
    stt = float(np.dot(dt, dt))
    sxt = np.einsum("ij,j->i", dx, dt)
    slope = sxt / stt
    intercept = x_mean - slope * t_mean
    resid = X - (slope[:, None] * t + intercept[:, None])
    rss = np.einsum("ij,ij->i", resid, resid)
    if n == 2:
        stderr = np.zeros_like(rss)
    else:
        stderr = np.where(rss == 0.0, 0.0, np.sqrt(rss / (n - 2) / stt))
    sxx = np.einsum("ij,ij->i", dx, dx)
    rvalue = np.divide(sxt, np.sqrt(stt * sxx), out=np.zeros_like(sxx), where=sxx != 0.0)
    return slope, intercept, stderr, rvalue


_TREND_ATTRS = ("slope", "intercept", "stderr", "rvalue")


def _linear_trend(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
    # One fit per row feeds every attribute.
    fit = _linear_fit(X)
    return np.stack(
        [fit[_TREND_ATTRS.index(params["attr"])] for params in params_list], axis=1
    )


def _agg_linear_trend(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
    # One chunk aggregate and one fit per (chunk_len, f_agg) feed every
    # attribute; NaN with fewer than 2 full chunks.
    fits: dict[tuple, tuple | None] = {}
    out = np.empty((X.shape[0], len(params_list)))
    for j, params in enumerate(params_list):
        key = (params["chunk_len"], params["f_agg"])
        if key not in fits:
            chunk_len, f_agg = key
            n_chunks = X.shape[1] // chunk_len
            fits[key] = None
            if n_chunks >= 2:
                chunks = X[:, : n_chunks * chunk_len].reshape(X.shape[0], n_chunks, chunk_len)
                fits[key] = _linear_fit(getattr(chunks, f_agg)(axis=2))  # max, min or mean
        fit = fits[key]
        out[:, j] = math.nan if fit is None else fit[_TREND_ATTRS.index(params["attr"])]
    return out


def _uniform_bin_counts(X: np.ndarray, lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """``np.histogram(x, bins, range=(x.min(), x.max()))`` counts of each row
    (``lo < hi``), bit for bit: numpy's uniform-bin rule, with its
    ``np.linspace`` edges and the decrement and increment that put values
    within an ulp of an edge on the edge's side.  A row whose range spans
    too few floats for ``bins`` bins of finite width, where ``np.histogram``
    raises, counts nothing."""
    edges = np.linspace(lo, hi, bins + 1, axis=1)
    wide = np.flatnonzero(np.all(edges[:, :-1] < edges[:, 1:], axis=1))
    V, lo, hi, edges = X[wide], lo[wide], hi[wide], edges[wide]
    idx = ((V - lo[:, None]) / (hi - lo)[:, None] * bins).astype(np.intp)
    idx[idx == bins] -= 1
    idx[V < np.take_along_axis(edges, idx, axis=1)] -= 1
    idx[(V >= np.take_along_axis(edges, idx + 1, axis=1)) & (idx != bins - 1)] += 1
    flat = idx + bins * wide[:, None]
    return np.bincount(flat.ravel(), minlength=X.shape[0] * bins).reshape(-1, bins)


def _binned_entropy(X: np.ndarray, params_list: Sequence[Params]) -> np.ndarray:
    # Entropy of the row's histogram over [min, max]; 0.0 for a constant row;
    # NaN for a row whose range is too narrow for its bins.  Each row sums
    # its non-empty bins in bin order in one array of their number, as one
    # np.sum per row would.
    lo, hi = X.min(axis=1), X.max(axis=1)
    rows = np.flatnonzero(lo != hi)
    V, lo, hi = X[rows], lo[rows], hi[rows]
    out = np.zeros((X.shape[0], len(params_list)))
    for j, params in enumerate(params_list):
        counts = _uniform_bin_counts(V, lo, hi, params["bins"])
        filled = counts > 0
        n_filled = filled.sum(axis=1)
        for k in np.unique(n_filled):
            group = np.flatnonzero(n_filled == k)
            if k == 0:  # only a row too narrow for its bins counts nothing
                out[rows[group], j] = math.nan
                continue
            p = counts[group][filled[group]].reshape(len(group), k) / X.shape[1]
            out[rows[group], j] = -np.sum(p * np.log(p), axis=1)
    return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter: name, value type, optional domain check, and
    the values :func:`default_settings` sweeps."""

    name: str
    value_type: type
    check: Callable[[ParamValue], bool] | None = None
    describe: str = ""
    grid: tuple[ParamValue, ...] = ()


@dataclass(frozen=True)
class Calculator:
    """Registered calculator: family kernel plus ordered signature."""

    name: str
    family: Family
    params: tuple[ParamSpec, ...] = ()
    cross_check: Callable[[dict[str, ParamValue]], str | None] | None = None


def _unit_interval(v: ParamValue) -> bool:
    return isinstance(v, float) and 0.0 <= v <= 1.0


def _positive_int(v: ParamValue) -> bool:
    return isinstance(v, int) and v >= 1


def _one_of(name: str, options: tuple[str, ...], describe: str) -> ParamSpec:
    """A string parameter whose domain and grid are both *options*."""
    return ParamSpec(name, str, lambda v: v in options, describe, options)


def _ql_below_qh(params: dict[str, ParamValue]) -> str | None:
    if params["ql"] >= params["qh"]:  # type: ignore[operator]
        return f"requires ql < qh, got ql={params['ql']}, qh={params['qh']}"
    return None


CALCULATORS: dict[str, Calculator] = {}


def _register(
    name: str,
    family: Family,
    *params: ParamSpec,
    cross_check: Callable[[dict[str, ParamValue]], str | None] | None = None,
) -> None:
    validate_identifier(name, "calculator name")
    CALCULATORS[name] = Calculator(name, family, params, cross_check)


for _name, _family in [
    ("minimum", _each(_minimum)),
    ("maximum", _each(_maximum)),
    ("mean", _each(_mean)),
    ("median", _median),
    ("variance", _each(_variance)),
    ("standard_deviation", _each(_standard_deviation)),
    ("skewness", _each(_skewness)),
    ("kurtosis", _each(_kurtosis)),
    ("abs_energy", _each(_abs_energy)),
    ("root_mean_square", _each(_root_mean_square)),
    ("mean_abs_change", _each(_mean_abs_change)),
    ("mean_change", _each(_mean_change)),
    ("partial_stationarity_gap", _each(_partial_stationarity_gap)),
]:
    _register(_name, _family)

_register(
    "quantile",
    _quantile,
    ParamSpec("q", float, _unit_interval, "0 <= q <= 1",
              (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
)
_register(
    "change_quantiles",
    _change_quantiles,
    _one_of("f_agg", ("mean", "var"), "mean or var"),
    ParamSpec("isabs", bool, grid=(False, True)),
    ParamSpec("qh", float, _unit_interval, "0 <= qh <= 1", (0.2, 0.4, 0.6, 0.8, 1.0)),
    ParamSpec("ql", float, _unit_interval, "0 <= ql <= 1", (0.0, 0.2, 0.4, 0.6, 0.8)),
    cross_check=_ql_below_qh,
)
_register("linear_trend", _linear_trend, _one_of("attr", _TREND_ATTRS, "trend attribute"))
_register(
    "agg_linear_trend",
    _agg_linear_trend,
    _one_of("f_agg", ("max", "min", "mean"), "chunk aggregate"),
    ParamSpec("chunk_len", int, _positive_int, "chunk_len >= 1", (5, 10, 50)),
    _one_of("attr", _TREND_ATTRS, "trend attribute"),
)
_register(
    "autocorrelation",
    _each(_autocorrelation),
    ParamSpec("lag", int, _positive_int, "lag >= 1", (1, 2, 3, 5, 10)),
)
_register(
    "binned_entropy", _binned_entropy, ParamSpec("bins", int, _positive_int, "bins >= 1", (5, 10))
)
for _name, _family in [
    ("c3", _each(_c3)),
    ("time_reversal_asymmetry_statistic", _each(_time_reversal_asymmetry_statistic)),
]:
    _register(_name, _family, ParamSpec("lag", int, _positive_int, "lag >= 1", (1, 2, 3)))


def _validate_params(calc: Calculator, params: Mapping[str, ParamValue]) -> dict[str, ParamValue]:
    """Check *params* against the signature; returns values in declared order."""
    declared = {p.name for p in calc.params}
    given = set(params)
    if given != declared:
        missing = sorted(declared - given)
        extra = sorted(given - declared)
        raise BadParameters(
            f"{calc.name}: parameter set mismatch"
            + (f", missing {missing}" if missing else "")
            + (f", unexpected {extra}" if extra else "")
        )
    out: dict[str, ParamValue] = {}
    for spec in calc.params:
        value = params[spec.name]
        if spec.value_type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if spec.value_type is bool:
            ok_type = isinstance(value, bool)
        elif spec.value_type is int:
            ok_type = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok_type = isinstance(value, spec.value_type)
        if not ok_type:
            raise BadParameters(
                f"{calc.name}: parameter {spec.name!r} must be {spec.value_type.__name__}, "
                f"got {value!r}"
            )
        if spec.check is not None and not spec.check(value):
            raise BadParameters(
                f"{calc.name}: parameter {spec.name!r}={value!r} out of domain"
                + (f" ({spec.describe})" if spec.describe else "")
            )
        out[spec.name] = value
    if calc.cross_check is not None:
        problem = calc.cross_check(out)
        if problem:
            raise BadParameters(f"{calc.name}: {problem}")
    return out


def make_feature_name(
    kind: str, calculator: str, params: Mapping[str, ParamValue] | None = None
) -> FeatureName:
    """Build a FeatureName with params validated and canonically ordered."""
    calc = CALCULATORS.get(calculator)
    if calc is None:
        raise UnknownCalculator(f"unknown calculator {calculator!r}")
    ordered = _validate_params(calc, params or {})
    return FeatureName(kind=kind, calculator=calculator, params=tuple(ordered.items()))


def compute_feature(
    x: Sequence[float] | np.ndarray,
    calculator: str,
    params: Mapping[str, ParamValue] | None = None,
) -> float:
    """Apply one calculator to a value sequence (length >= 2).

    This is the calculator's family kernel run on a batch of one row with
    one parameter set, the same code path :func:`~imufresh.extraction.extract`
    takes.
    """
    calc = CALCULATORS.get(calculator)
    if calc is None:
        raise UnknownCalculator(f"unknown calculator {calculator!r}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise BadParameters(f"{calculator}: input must be a 1-D sequence of length >= 2")
    validated = _validate_params(calc, params or {})
    return float(calc.family(arr[None, :], [validated])[0, 0])


# ---------------------------------------------------------------------------
# Feature-name decoding
# ---------------------------------------------------------------------------

def decode_feature_name(s: str) -> FeatureName:
    """Parse a canonical feature-name string.

    The first ``__`` token is the kind (a kind cannot contain ``__``), the
    second the calculator.  Parameters are re-ordered into the calculator's
    declared order, so the result of decoding a canonical string re-encodes
    byte-identically.
    """
    kind, calc_name, *param_tokens = split_tokens(s)
    validate_kind(kind)
    validate_identifier(calc_name, "calculator name")
    if calc_name not in CALCULATORS:
        raise UnknownCalculator(f"unknown calculator {calc_name!r} in {s!r}")
    params: dict[str, ParamValue] = {}
    for token in param_tokens:
        pname, pvalue = split_param_token(token)
        if pname in params:
            raise BadParameters(f"duplicate parameter {pname!r} in {s!r}")
        params[pname] = pvalue
    return make_feature_name(kind, calc_name, params)


# ---------------------------------------------------------------------------
# Extraction settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtractionSettings:
    """Which (calculator, params) to compute for each channel kind."""

    features: tuple[FeatureName, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        deduped: dict[str, FeatureName] = {}
        for feature in self.features:
            deduped.setdefault(feature.canonical(), feature)
        ordered = tuple(deduped[c] for c in sorted(deduped))
        object.__setattr__(self, "features", ordered)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted({f.kind for f in self.features}))

    def canonical_names(self) -> tuple[str, ...]:
        return tuple(f.canonical() for f in self.features)


def settings_from_feature_names(names: Iterable[str]) -> ExtractionSettings:
    """Decode canonical names and group them into extraction settings."""
    return ExtractionSettings(features=tuple(decode_feature_name(n) for n in names))


def _grid(calc: Calculator) -> list[tuple[str, dict[str, ParamValue]]]:
    """Every combination of *calc*'s parameter grids that its cross check
    accepts; ``{}`` alone for a calculator without parameters."""
    names = [spec.name for spec in calc.params]
    grids = [spec.grid for spec in calc.params]
    combos = (dict(zip(names, values)) for values in product(*grids))
    return [
        (calc.name, params)
        for params in combos
        if calc.cross_check is None or calc.cross_check(params) is None
    ]


_GRID = tuple(entry for calc in CALCULATORS.values() for entry in _grid(calc))

# Features per kind produced by default_settings.
GRID_FEATURES_PER_KIND = len(_GRID)


def default_settings(kinds: Iterable[str]) -> ExtractionSettings:
    """Full curated parameter grid applied to every kind."""
    kind_list = sorted(set(kinds))
    if not kind_list:
        raise BadParameters("default_settings requires at least one kind")
    features = [
        make_feature_name(kind, calc, params)
        for kind in kind_list
        for calc, params in _GRID
    ]
    return ExtractionSettings(features=tuple(features))


# ---------------------------------------------------------------------------
# Settings file format
# ---------------------------------------------------------------------------

def write_settings_file(settings: ExtractionSettings, stream: TextIO) -> None:
    """One canonical feature name per line."""
    for name in settings.canonical_names():
        stream.write(name + "\n")


def read_settings_file(
    stream: TextIO, known_kinds: set[str] | None = None
) -> ExtractionSettings:
    """Parse a settings file: one canonical feature name per line.

    Blank lines and ``#`` comments are ignored.  *known_kinds* is ignored,
    and accepted only for callers that still pass it: a name's kind is
    always its first ``__`` token.
    """
    lines = [
        ln.strip()
        for ln in stream
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    return settings_from_feature_names(lines)
