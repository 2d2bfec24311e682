"""Curated library of parameterized time-series feature calculators.

Each calculator maps a value sequence (length >= 2) to one real number and
declares an ordered parameter signature; the signature order is what the
canonical feature-name codec uses.  Population statistics are used
throughout.  A calculator may return NaN only in its documented undefined
cases:

* ``skewness``: n < 3 or zero variance
* ``kurtosis``: n < 4 or zero variance
* ``autocorrelation``: zero variance, or lag >= n
* ``agg_linear_trend``: fewer than 2 full chunks
* ``c3`` / ``time_reversal_asymmetry_statistic``: n <= 2 * lag

:func:`default_settings` enumerates the full parameter grid
(:data:`GRID_FEATURES_PER_KIND` features per channel kind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import BadParameters, MalformedFeatureName, UnknownCalculator
from .names import (
    FeatureName,
    ParamValue,
    match_kind,
    split_param_token,
    split_tokens,
    validate_identifier,
)
from .timeseries import validate_kind

# ---------------------------------------------------------------------------
# Calculator implementations
# ---------------------------------------------------------------------------

def _minimum(x: np.ndarray) -> float:
    return float(np.min(x))


def _maximum(x: np.ndarray) -> float:
    return float(np.max(x))


def _mean(x: np.ndarray) -> float:
    return float(np.mean(x))


def _median(x: np.ndarray) -> float:
    return float(np.median(x))


def _variance(x: np.ndarray) -> float:
    return float(np.var(x))


def _standard_deviation(x: np.ndarray) -> float:
    return float(np.std(x))


def _skewness(x: np.ndarray) -> float:
    # Bias-corrected (adjusted Fisher-Pearson) G1.
    n = x.size
    if n < 3:
        return math.nan
    d = x - np.mean(x)
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return math.nan
    m3 = float(np.mean(d * d * d))
    g1 = m3 / m2**1.5
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def _kurtosis(x: np.ndarray) -> float:
    # Bias-adjusted excess kurtosis G2.
    n = x.size
    if n < 4:
        return math.nan
    d = x - np.mean(x)
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        return math.nan
    m4 = float(np.mean(d * d * d * d))
    g2 = m4 / (m2 * m2) - 3.0
    return (n - 1) / ((n - 2) * (n - 3)) * ((n + 1) * g2 + 6.0)


def _quantile(x: np.ndarray, q: float) -> float:
    # Linear interpolation between order statistics at position (n-1)*q.
    return float(np.quantile(x, q))


def _abs_energy(x: np.ndarray) -> float:
    return float(np.dot(x, x))


def _root_mean_square(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


def _mean_abs_change(x: np.ndarray) -> float:
    return float(np.mean(np.abs(np.diff(x))))


def _mean_change(x: np.ndarray) -> float:
    return float((x[-1] - x[0]) / (x.size - 1))


def _change_quantiles(x: np.ndarray, f_agg: str, isabs: bool, qh: float, ql: float) -> float:
    lo = np.quantile(x, ql)
    hi = np.quantile(x, qh)
    inside = (x >= lo) & (x <= hi)
    keep = inside[:-1] & inside[1:]
    d = np.diff(x)[keep]
    if d.size == 0:
        return 0.0
    if isabs:
        d = np.abs(d)
    return float(np.mean(d)) if f_agg == "mean" else float(np.var(d))


def _linear_fit(x: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares fit of x against t = 0..n-1.

    Returns (slope, intercept, stderr, rvalue).  stderr is the slope
    standard error, defined as 0.0 for n == 2 or an exact fit; rvalue is
    Pearson r, 0.0 for constant x.
    """
    n = x.size
    t = np.arange(n, dtype=np.float64)
    t_mean = (n - 1) / 2.0
    x_mean = float(np.mean(x))
    dt = t - t_mean
    dx = x - x_mean
    stt = float(np.dot(dt, dt))
    sxt = float(np.dot(dt, dx))
    slope = sxt / stt
    intercept = x_mean - slope * t_mean
    resid = x - (slope * t + intercept)
    rss = float(np.dot(resid, resid))
    if n == 2 or rss == 0.0:
        stderr = 0.0
    else:
        stderr = math.sqrt(rss / (n - 2) / stt)
    sxx = float(np.dot(dx, dx))
    rvalue = 0.0 if sxx == 0.0 else sxt / math.sqrt(stt * sxx)
    return slope, intercept, stderr, rvalue


_TREND_ATTRS = ("slope", "intercept", "stderr", "rvalue")


def _linear_trend(x: np.ndarray, attr: str) -> float:
    fit = _linear_fit(x)
    return fit[_TREND_ATTRS.index(attr)]


_CHUNK_AGGS: dict[str, Callable[..., np.ndarray]] = {
    "max": np.max,
    "min": np.min,
    "mean": np.mean,
}


def _agg_linear_trend(x: np.ndarray, f_agg: str, chunk_len: int, attr: str) -> float:
    n_chunks = x.size // chunk_len
    if n_chunks < 2:
        return math.nan
    chunks = x[: n_chunks * chunk_len].reshape(n_chunks, chunk_len)
    agg = np.asarray(_CHUNK_AGGS[f_agg](chunks, axis=1), dtype=np.float64)
    return _linear_trend(agg, attr)


def _autocorrelation(x: np.ndarray, lag: int) -> float:
    n = x.size
    if lag >= n:
        return math.nan
    v = float(np.var(x))
    if v == 0.0:
        return math.nan
    m = float(np.mean(x))
    num = float(np.dot(x[: n - lag] - m, x[lag:] - m))
    return num / ((n - lag) * v)


def _partial_stationarity_gap(x: np.ndarray) -> float:
    half = x.size // 2
    gap = abs(float(np.mean(x[:half])) - float(np.mean(x[half:])))
    return gap / (float(np.std(x)) + 1e-12)


def _binned_entropy(x: np.ndarray, bins: int) -> float:
    lo = float(np.min(x))
    hi = float(np.max(x))
    if lo == hi:
        return 0.0
    hist, _ = np.histogram(x, bins=bins, range=(lo, hi))
    p = hist[hist > 0] / x.size
    return float(-np.sum(p * np.log(p)))


def _c3(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return math.nan
    return float(np.mean(x[: n - 2 * lag] * x[lag : n - lag] * x[2 * lag :]))


def _time_reversal_asymmetry_statistic(x: np.ndarray, lag: int) -> float:
    n = x.size
    if n <= 2 * lag:
        return math.nan
    a = x[2 * lag :]
    b = x[lag : n - lag]
    c = x[: n - 2 * lag]
    return float(np.mean(a * a * b - b * c * c))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """One declared parameter: name, value type, and optional domain check."""

    name: str
    value_type: type
    check: Callable[[ParamValue], bool] | None = None
    describe: str = ""


@dataclass(frozen=True)
class Calculator:
    """Registered calculator: compute function plus ordered signature."""

    name: str
    func: Callable[..., float]
    params: tuple[ParamSpec, ...] = ()
    cross_check: Callable[[dict[str, ParamValue]], str | None] | None = None


def _unit_interval(v: ParamValue) -> bool:
    return isinstance(v, float) and 0.0 <= v <= 1.0


def _positive_int(v: ParamValue) -> bool:
    return isinstance(v, int) and v >= 1


def _choice(*options: str) -> Callable[[ParamValue], bool]:
    return lambda v: v in options


def _ql_below_qh(params: dict[str, ParamValue]) -> str | None:
    if params["ql"] >= params["qh"]:  # type: ignore[operator]
        return f"requires ql < qh, got ql={params['ql']}, qh={params['qh']}"
    return None


CALCULATORS: dict[str, Calculator] = {}


def _register(calc: Calculator) -> None:
    validate_identifier(calc.name, "calculator name")
    CALCULATORS[calc.name] = calc


for _name, _func in [
    ("minimum", _minimum),
    ("maximum", _maximum),
    ("mean", _mean),
    ("median", _median),
    ("variance", _variance),
    ("standard_deviation", _standard_deviation),
    ("skewness", _skewness),
    ("kurtosis", _kurtosis),
    ("abs_energy", _abs_energy),
    ("root_mean_square", _root_mean_square),
    ("mean_abs_change", _mean_abs_change),
    ("mean_change", _mean_change),
    ("partial_stationarity_gap", _partial_stationarity_gap),
]:
    _register(Calculator(name=_name, func=_func))

_register(
    Calculator(
        name="quantile",
        func=_quantile,
        params=(ParamSpec("q", float, _unit_interval, "0 <= q <= 1"),),
    )
)
_register(
    Calculator(
        name="change_quantiles",
        func=_change_quantiles,
        params=(
            ParamSpec("f_agg", str, _choice("mean", "var"), "mean or var"),
            ParamSpec("isabs", bool),
            ParamSpec("qh", float, _unit_interval, "0 <= qh <= 1"),
            ParamSpec("ql", float, _unit_interval, "0 <= ql <= 1"),
        ),
        cross_check=_ql_below_qh,
    )
)
_register(
    Calculator(
        name="linear_trend",
        func=_linear_trend,
        params=(ParamSpec("attr", str, _choice(*_TREND_ATTRS), "trend attribute"),),
    )
)
_register(
    Calculator(
        name="agg_linear_trend",
        func=_agg_linear_trend,
        params=(
            ParamSpec("f_agg", str, _choice("max", "min", "mean"), "chunk aggregate"),
            ParamSpec("chunk_len", int, _positive_int, "chunk_len >= 1"),
            ParamSpec("attr", str, _choice(*_TREND_ATTRS), "trend attribute"),
        ),
    )
)
_register(
    Calculator(
        name="autocorrelation",
        func=_autocorrelation,
        params=(ParamSpec("lag", int, _positive_int, "lag >= 1"),),
    )
)
_register(
    Calculator(
        name="binned_entropy",
        func=_binned_entropy,
        params=(ParamSpec("bins", int, _positive_int, "bins >= 1"),),
    )
)
_register(
    Calculator(
        name="c3",
        func=_c3,
        params=(ParamSpec("lag", int, _positive_int, "lag >= 1"),),
    )
)
_register(
    Calculator(
        name="time_reversal_asymmetry_statistic",
        func=_time_reversal_asymmetry_statistic,
        params=(ParamSpec("lag", int, _positive_int, "lag >= 1"),),
    )
)


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
    """Apply one calculator to a value sequence (length >= 2)."""
    calc = CALCULATORS.get(calculator)
    if calc is None:
        raise UnknownCalculator(f"unknown calculator {calculator!r}")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise BadParameters(f"{calculator}: input must be a 1-D sequence of length >= 2")
    validated = _validate_params(calc, params or {})
    return float(calc.func(arr, **validated))


# ---------------------------------------------------------------------------
# Feature-name decoding
# ---------------------------------------------------------------------------

def decode_feature_name(s: str, known_kinds: set[str] | None = None) -> FeatureName:
    """Parse a canonical feature-name string.

    When *known_kinds* is given, the longest ``__``-joined token prefix
    matching a known kind is taken as the kind; otherwise the first token is.
    Parameters are re-ordered into the calculator's declared order, so the
    result of decoding a canonical string re-encodes byte-identically.
    """
    tokens = split_tokens(s)
    kind, consumed = match_kind(tokens, known_kinds)
    validate_kind(kind)
    rest = tokens[consumed:]
    if not rest:
        raise MalformedFeatureName(f"feature name {s!r} has no calculator")
    calc_name = rest[0]
    validate_identifier(calc_name, "calculator name")
    if calc_name not in CALCULATORS:
        raise UnknownCalculator(f"unknown calculator {calc_name!r} in {s!r}")
    params: dict[str, ParamValue] = {}
    for token in rest[1:]:
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

    def feature_names(self) -> tuple[FeatureName, ...]:
        return self.features

    def canonical_names(self) -> tuple[str, ...]:
        return tuple(f.canonical() for f in self.features)


def settings_from_feature_names(
    names: Iterable[str], known_kinds: set[str] | None = None
) -> ExtractionSettings:
    """Decode canonical names and group them into extraction settings."""
    return ExtractionSettings(
        features=tuple(decode_feature_name(n, known_kinds) for n in names)
    )


def _grid_entries() -> list[tuple[str, dict[str, ParamValue]]]:
    entries: list[tuple[str, dict[str, ParamValue]]] = []
    for name in (
        "minimum",
        "maximum",
        "mean",
        "median",
        "variance",
        "standard_deviation",
        "skewness",
        "kurtosis",
        "abs_energy",
        "root_mean_square",
        "mean_abs_change",
        "mean_change",
        "partial_stationarity_gap",
    ):
        entries.append((name, {}))
    for q in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        entries.append(("quantile", {"q": q}))
    for ql in (0.0, 0.2, 0.4, 0.6, 0.8):
        for qh in (0.2, 0.4, 0.6, 0.8, 1.0):
            if ql >= qh:
                continue
            for isabs in (False, True):
                for f_agg in ("mean", "var"):
                    entries.append(
                        ("change_quantiles",
                         {"f_agg": f_agg, "isabs": isabs, "qh": qh, "ql": ql})
                    )
    for attr in _TREND_ATTRS:
        entries.append(("linear_trend", {"attr": attr}))
    for chunk_len in (5, 10, 50):
        for f_agg in ("max", "min", "mean"):
            for attr in _TREND_ATTRS:
                entries.append(
                    ("agg_linear_trend",
                     {"f_agg": f_agg, "chunk_len": chunk_len, "attr": attr})
                )
    for lag in (1, 2, 3, 5, 10):
        entries.append(("autocorrelation", {"lag": lag}))
    for bins in (5, 10):
        entries.append(("binned_entropy", {"bins": bins}))
    for lag in (1, 2, 3):
        entries.append(("c3", {"lag": lag}))
    for lag in (1, 2, 3):
        entries.append(("time_reversal_asymmetry_statistic", {"lag": lag}))
    return entries


# Features per kind produced by default_settings; fixed by the grid above.
GRID_FEATURES_PER_KIND = 135


def default_settings(kinds: Iterable[str]) -> ExtractionSettings:
    """Full curated parameter grid applied to every kind."""
    kind_list = sorted(set(kinds))
    if not kind_list:
        raise BadParameters("default_settings requires at least one kind")
    for kind in kind_list:
        validate_kind(kind)
    features = [
        make_feature_name(kind, calc, params)
        for kind in kind_list
        for calc, params in _grid_entries()
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
    """Parse a settings file.

    Either one canonical feature name per line, or a single line
    ``DEFAULT kind1 kind2 ...`` requesting the full grid for those kinds.
    Blank lines and ``#`` comments are ignored.
    """
    lines = [
        ln.strip()
        for ln in stream
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if len(lines) == 1 and lines[0].split()[0] == "DEFAULT":
        kinds = lines[0].split()[1:]
        if not kinds:
            raise BadParameters("DEFAULT settings line lists no kinds")
        return default_settings(kinds)
    return settings_from_feature_names(lines, known_kinds)
