import hashlib
import math
from collections import Counter

import numpy as np
import pytest

import oracles
from imufresh.calculators import (
    CALCULATORS,
    GRID_FEATURES_PER_KIND,
    compute_feature,
    default_settings,
)
from imufresh.errors import BadParameters, InvalidKindName, UnknownCalculator


class TestDistribution:
    def test_minimum(self):
        assert compute_feature([3.0, -1.0, 2.0], "minimum") == -1.0

    def test_maximum_mean_median(self):
        x = [1.0, 2.0, 3.0, 10.0]
        assert compute_feature(x, "maximum") == 10.0
        assert compute_feature(x, "mean") == 4.0
        assert compute_feature(x, "median") == 2.5

    def test_population_variance_and_std(self):
        x = [1.0, 3.0]
        assert compute_feature(x, "variance") == 1.0  # population, not sample
        assert compute_feature(x, "standard_deviation") == 1.0

    def test_skewness_known_value(self):
        # n=3 with values [0, 0, 1]: bias-adjusted G1 is exactly sqrt(3)
        assert compute_feature([0.0, 0.0, 1.0], "skewness") == pytest.approx(
            math.sqrt(3.0), abs=1e-12
        )

    def test_skewness_undefined(self):
        assert math.isnan(compute_feature([1.0, 2.0], "skewness"))  # n < 3
        assert math.isnan(compute_feature([2.0, 2.0, 2.0], "skewness"))  # zero variance

    def test_kurtosis_known_value(self):
        # n=4 with values [0, 0, 0, 1]: bias-adjusted excess kurtosis is exactly 4
        assert compute_feature([0.0, 0.0, 0.0, 1.0], "kurtosis") == pytest.approx(4.0, abs=1e-12)

    def test_kurtosis_undefined(self):
        assert math.isnan(compute_feature([1.0, 2.0, 3.0], "kurtosis"))  # n < 4
        assert math.isnan(compute_feature([5.0] * 6, "kurtosis"))  # zero variance

    def test_quantile_linear_interpolation(self):
        # position (n-1)*q = 0.75 between 0 and 1
        assert compute_feature([0.0, 1.0, 2.0, 3.0], "quantile", {"q": 0.25}) == 0.75

    def test_quantile_endpoints(self):
        x = [5.0, -2.0, 7.0]
        assert compute_feature(x, "quantile", {"q": 0.0}) == -2.0
        assert compute_feature(x, "quantile", {"q": 1.0}) == 7.0

    def test_abs_energy_and_rms(self):
        assert compute_feature([1.0, 2.0, 3.0], "abs_energy") == 14.0
        assert compute_feature([3.0, 4.0], "root_mean_square") == pytest.approx(
            math.sqrt(12.5), abs=1e-12
        )


class TestChange:
    def test_mean_abs_change(self):
        assert compute_feature([1.0, 4.0, 2.0], "mean_abs_change") == 2.5

    def test_mean_change_is_endpoint_slope(self):
        assert compute_feature([1.0, 9.0, 5.0], "mean_change") == 2.0

    def test_change_quantiles_full_corridor(self):
        got = compute_feature(
            [0.0, 1.0, 2.0, 0.0, 2.0],
            "change_quantiles",
            {"ql": 0.0, "qh": 1.0, "isabs": True, "f_agg": "mean"},
        )
        assert got == 1.5  # mean(|1|, |1|, |-2|, |2|)

    def test_change_quantiles_constant_series(self):
        got = compute_feature(
            [5.0] * 8,
            "change_quantiles",
            {"ql": 0.2, "qh": 0.8, "isabs": False, "f_agg": "var"},
        )
        assert got == 0.0

    def test_change_quantiles_empty_corridor(self):
        # corridor [q0.0, q0.2] of 0..9 is [0, 1.8]: only the 0->1 step stays
        got = compute_feature(
            list(map(float, range(10))),
            "change_quantiles",
            {"ql": 0.0, "qh": 0.2, "isabs": False, "f_agg": "mean"},
        )
        assert got == 1.0

    def test_change_quantiles_rejects_inverted_corridor(self):
        with pytest.raises(BadParameters):
            compute_feature(
                [1.0, 2.0], "change_quantiles",
                {"ql": 0.8, "qh": 0.2, "isabs": False, "f_agg": "mean"},
            )


class TestTrend:
    def test_exact_line(self):
        x = [3.0, 5.0, 7.0, 9.0]
        assert compute_feature(x, "linear_trend", {"attr": "slope"}) == 2.0
        assert compute_feature(x, "linear_trend", {"attr": "intercept"}) == 3.0
        assert compute_feature(x, "linear_trend", {"attr": "stderr"}) == 0.0
        assert compute_feature(x, "linear_trend", {"attr": "rvalue"}) == 1.0

    def test_rvalue_sign_and_constant(self):
        assert compute_feature([4.0, 2.0, 0.0], "linear_trend", {"attr": "rvalue"}) == -1.0
        assert compute_feature([1.0, 1.0, 1.0], "linear_trend", {"attr": "rvalue"}) == 0.0

    def test_two_point_stderr_is_zero(self):
        assert compute_feature([1.0, 42.0], "linear_trend", {"attr": "stderr"}) == 0.0

    def test_agg_linear_trend_exact_chunk_means(self):
        x = list(map(float, range(1, 16)))  # chunk means 3, 8, 13: a perfect line
        got = compute_feature(
            x, "agg_linear_trend", {"f_agg": "mean", "chunk_len": 5, "attr": "stderr"}
        )
        assert got == 0.0
        slope = compute_feature(
            x, "agg_linear_trend", {"f_agg": "mean", "chunk_len": 5, "attr": "slope"}
        )
        assert slope == 5.0

    def test_agg_linear_trend_needs_two_chunks(self):
        got = compute_feature(
            [1.0] * 7, "agg_linear_trend", {"f_agg": "mean", "chunk_len": 5, "attr": "slope"}
        )
        assert math.isnan(got)


class TestCorrelationEntropy:
    def test_autocorrelation_lag1(self):
        assert compute_feature([1.0, 2.0, 3.0, 4.0], "autocorrelation", {"lag": 1}) == (
            pytest.approx(1.0 / 3.0, abs=1e-12)
        )

    def test_autocorrelation_undefined(self):
        assert math.isnan(compute_feature([2.0, 2.0, 2.0], "autocorrelation", {"lag": 1}))
        assert math.isnan(compute_feature([1.0, 2.0], "autocorrelation", {"lag": 5}))

    def test_stationarity_gap(self):
        got = compute_feature([0.0, 0.0, 1.0, 1.0], "partial_stationarity_gap")
        assert got == pytest.approx(1.0 / (0.5 + 1e-12), rel=1e-9)

    def test_binned_entropy_two_even_bins(self):
        got = compute_feature([0.0, 0.0, 1.0, 1.0], "binned_entropy", {"bins": 2})
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_binned_entropy_constant(self):
        assert compute_feature([3.0, 3.0, 3.0], "binned_entropy", {"bins": 5}) == 0.0


class TestNonlinear:
    def test_c3_hand_computed(self):
        assert compute_feature([1.0, 2.0, 3.0, 4.0], "c3", {"lag": 1}) == 15.0

    def test_c3_too_short(self):
        assert math.isnan(compute_feature([1.0, 2.0, 3.0, 4.0], "c3", {"lag": 2}))

    def test_time_reversal_hand_computed(self):
        got = compute_feature(
            [1.0, 2.0, 3.0, 4.0], "time_reversal_asymmetry_statistic", {"lag": 1}
        )
        assert got == 26.0

    def test_time_reversal_too_short(self):
        got = compute_feature([1.0, 2.0], "time_reversal_asymmetry_statistic", {"lag": 1})
        assert math.isnan(got)


class TestValidation:
    def test_unknown_calculator(self):
        with pytest.raises(UnknownCalculator):
            compute_feature([1.0, 2.0], "nosuchcalc")

    def test_too_short_input(self):
        with pytest.raises(BadParameters):
            compute_feature([1.0], "minimum")

    def test_bad_choice_param(self):
        with pytest.raises(BadParameters):
            compute_feature([1.0, 2.0], "linear_trend", {"attr": "curvature"})

    def test_bad_int_param(self):
        with pytest.raises(BadParameters):
            compute_feature([1.0, 2.0], "autocorrelation", {"lag": 0})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(BadParameters):
            compute_feature([1.0, 2.0], "autocorrelation", {"lag": True})


class TestDefaultGrid:
    def test_documented_size_per_kind(self):
        assert len(default_settings(["a"])) == GRID_FEATURES_PER_KIND

    def test_multiplicative_over_kinds(self):
        assert len(default_settings(["a", "b", "c"])) == 3 * GRID_FEATURES_PER_KIND

    def test_empty_kinds_rejected(self):
        with pytest.raises(BadParameters):
            default_settings([])

    def test_first_invalid_kind_in_sorted_order_is_named(self):
        for kinds in (["ok", "z-z", "a__b"], ["a__b", "ok", "z-z"]):
            with pytest.raises(InvalidKindName, match=r"invalid channel kind: 'a__b'$"):
                default_settings(kinds)

    def test_change_quantiles_combinations(self):
        settings = default_settings(["a"])
        cq = [f for f in settings.feature_names() if f.calculator == "change_quantiles"]
        assert len(cq) == 60  # 15 (ql, qh) pairs x 2 isabs x 2 f_agg
        for f in cq:
            p = f.param_dict()
            assert p["ql"] < p["qh"]

    def test_agg_linear_trend_combinations(self):
        settings = default_settings(["a"])
        alt = [f for f in settings.feature_names() if f.calculator == "agg_linear_trend"]
        assert len(alt) == 36  # 3 chunk lengths x 3 aggregates x 4 attributes

    def test_grid_is_pinned(self):
        # GRID_FEATURES_PER_KIND is derived from the grid, so the tests above
        # cannot see an entry move; this one fails if any does.
        names = default_settings(["a"]).canonical_names()
        expected = dict.fromkeys(
            ("minimum", "maximum", "mean", "median", "variance", "standard_deviation",
             "skewness", "kurtosis", "abs_energy", "root_mean_square", "mean_abs_change",
             "mean_change", "partial_stationarity_gap"),
            1,
        )
        expected.update(quantile=9, change_quantiles=60, linear_trend=4, agg_linear_trend=36,
                        autocorrelation=5, binned_entropy=2, c3=3,
                        time_reversal_asymmetry_statistic=3)
        assert len(names) == 135
        assert Counter(n.split("__")[1] for n in names) == expected
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == (
            "f1801dcfb3f5cd6a6d3291447a41216800136751653a9dd9c6c81bff8d6ab35b"
        )


class TestOracleEquivalence:
    """Library numerics vs. the plain-Python reference implementations."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_change_quantiles_random_series(self, seed):
        rng = np.random.default_rng(seed)
        grid = [
            (ql, qh, isabs, f_agg)
            for ql in (0.0, 0.2, 0.4, 0.6, 0.8)
            for qh in (0.2, 0.4, 0.6, 0.8, 1.0)
            if ql < qh
            for isabs in (False, True)
            for f_agg in ("mean", "var")
        ]
        for _ in range(25):
            x = rng.standard_normal(int(rng.integers(5, 51)))
            for ql, qh, isabs, f_agg in grid:
                got = compute_feature(
                    x, "change_quantiles",
                    {"ql": ql, "qh": qh, "isabs": isabs, "f_agg": f_agg},
                )
                want = oracles.change_quantiles(list(x), ql, qh, isabs, f_agg)
                assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_agg_linear_trend_random_series(self, seed):
        rng = np.random.default_rng(seed)
        grid = [
            (f_agg, chunk_len, attr)
            for f_agg in ("max", "min", "mean")
            for chunk_len in (5, 10, 50)
            for attr in ("slope", "intercept", "stderr", "rvalue")
        ]
        for _ in range(25):
            x = rng.standard_normal(int(rng.integers(5, 80)))
            for f_agg, chunk_len, attr in grid:
                got = compute_feature(
                    x, "agg_linear_trend",
                    {"f_agg": f_agg, "chunk_len": chunk_len, "attr": attr},
                )
                want = oracles.agg_linear_trend(list(x), f_agg, chunk_len, attr)
                if math.isnan(want):
                    assert math.isnan(got)
                else:
                    assert got == pytest.approx(want, abs=1e-9)


class TestShiftScaleProperties:
    def test_minimum_shift_covariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(30)
            c = float(rng.uniform(-5, 5))
            assert compute_feature(x + c, "minimum") == pytest.approx(
                compute_feature(x, "minimum") + c, abs=1e-12
            )

    def test_variance_scale_covariant(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal(30)
            c = float(rng.uniform(0.1, 4.0))
            assert compute_feature(c * x, "variance") == pytest.approx(
                c * c * compute_feature(x, "variance"), rel=1e-10
            )

    def test_autocorrelation_affine_invariant(self):
        rng = np.random.default_rng(9)
        for lag in (1, 2, 3):
            x = rng.standard_normal(40)
            a, b = 2.5, -7.0
            assert compute_feature(a * x + b, "autocorrelation", {"lag": lag}) == (
                pytest.approx(compute_feature(x, "autocorrelation", {"lag": lag}), abs=1e-9)
            )


def test_nan_only_in_documented_cases():
    """Scan the whole default grid over random series: NaN cells must be
    exactly the documented undefined combinations."""
    rng = np.random.default_rng(77)
    settings = default_settings(["k"])
    for n in (5, 9, 20, 50):
        x = rng.standard_normal(n)
        for f in settings.feature_names():
            got = compute_feature(x, f.calculator, f.param_dict())
            p = f.param_dict()
            if f.calculator == "agg_linear_trend":
                expect_nan = n // p["chunk_len"] < 2
            elif f.calculator == "autocorrelation":
                expect_nan = p["lag"] >= n  # random series never has zero variance
            elif f.calculator in ("c3", "time_reversal_asymmetry_statistic"):
                expect_nan = n <= 2 * p["lag"]
            else:
                expect_nan = False  # skewness/kurtosis need n >= 3/4; all n here qualify
            assert math.isnan(got) == expect_nan, (f.canonical(), n)


def test_no_grid_calculator_raises_on_a_finite_window():
    """Every family of the default grid gives one cell per parameter set on
    any finite window of length >= 2, extreme magnitudes and adjacent
    floats included, and raises nothing."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    grid: dict[str, list[dict]] = {}
    for f in default_settings(["k"]).feature_names():
        grid.setdefault(f.calculator, []).append(f.param_dict())
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 5e-324, 1.7e308, -1.7e308]),
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(window=st.lists(values, min_size=2, max_size=60))
    def no_raise(window):
        X = np.asarray([window])
        with np.errstate(all="ignore"):  # overflow to inf is a value, not a failure
            for calc, params_list in grid.items():
                assert CALCULATORS[calc].family(X, params_list).shape == (1, len(params_list))

    no_raise()


# Per-parameter reference kernel of each calculator whose family shares
# intermediates between parameter sets.
ORACLE_KERNELS = {
    "quantile": oracles.quantile_kernel,
    "median": oracles.median_kernel,
    "change_quantiles": oracles.change_quantiles_kernel,
    "agg_linear_trend": oracles.agg_linear_trend_kernel,
    "binned_entropy": oracles.binned_entropy_kernel,
}


def _family_batch(w: int) -> np.ndarray:
    """Rows of length *w* covering the families' edge cases: ties and signed
    zeros, a constant row, a linear ramp, rows that leave histogram bins
    empty (two values; a cluster with one far outlier) and a range too
    narrow for more than one histogram bin (two adjacent floats)."""
    rng = np.random.default_rng(1000 + w)
    cluster = 0.01 * rng.standard_normal(w)
    cluster[w // 2] = 10.0
    return np.stack([
        rng.standard_normal(w),
        rng.standard_normal(w),
        np.round(rng.standard_normal(w), 1),
        np.round(rng.standard_normal(w)),
        np.full(w, 0.5),
        np.arange(w, dtype=np.float64),
        np.where(rng.random(w) < 0.5, -1.0, 2.0),
        cluster,
        np.where(np.arange(w) % 3 == 1, np.nextafter(1.0, 2.0), 1.0),
    ])


def _bits(values: np.ndarray, calc: str) -> bytes:
    # A quantile or median landing on tied zeros of both signs takes the sign
    # of whichever zero the ordering put there, and np.sort and numpy's
    # partition order equal keys differently; every other bit must match.
    if calc in ("quantile", "median"):
        values = np.where(values == 0.0, 0.0, values)
    return values.tobytes()


class TestFamilies:
    """Family kernels against the per-parameter oracle kernels, bit for bit
    (NaN positions included), up to the sign of a zero order statistic."""

    @pytest.mark.parametrize("w", [2, 3, 4, 5, 50, 200, 400])
    @pytest.mark.parametrize("calc", sorted(ORACLE_KERNELS))
    def test_family_matches_per_parameter_oracle(self, calc, w):
        X = _family_batch(w)
        params_list = [
            f.param_dict() for f in default_settings(["k"]).features if f.calculator == calc
        ]
        if calc == "quantile":
            params_list += [{"q": 0.0}, {"q": 1.0}, {"q": 0.25}, {"q": 0.75}]
        if calc == "binned_entropy":
            params_list += [{"bins": b} for b in (1, 2, 3, 40)]
        got = CALCULATORS[calc].family(X, params_list)
        want = np.stack([ORACLE_KERNELS[calc](X, **p) for p in params_list], axis=1)
        assert got.shape == (X.shape[0], len(params_list))
        assert _bits(got, calc) == _bits(want, calc)

    def test_top_quantile_of_a_negative_zero_maximum(self):
        # numpy's lerp at q = 1 adds +0.0 to the maximum: -0.0 becomes 0.0.
        X = np.asarray([[-1.0, -0.0], [-0.0, -2.0], [-0.0, -0.0]])
        got = CALCULATORS["quantile"].family(X, [{"q": 1.0}, {"q": 0.0}])
        assert got[:, 0].tobytes() == oracles.quantile_kernel(X, 1.0).tobytes()
        assert got[:, 1].tobytes() == oracles.quantile_kernel(X, 0.0).tobytes()

    def test_binned_entropy_of_a_range_too_narrow_for_its_bins_is_nan(self):
        # A range two floats wide holds no 10 bins of finite width: NaN, as
        # in the oracle where np.histogram refuses.  One bin still exists.
        narrow = [1.0, np.nextafter(1.0, 2.0), 1.0]
        assert math.isnan(compute_feature(narrow, "binned_entropy", {"bins": 10}))
        assert compute_feature(narrow, "binned_entropy", {"bins": 1}) == 0.0
        X = np.asarray([narrow, [0.0, 0.0, 1.0]])
        for bins in (1, 2, 10):
            col = CALCULATORS["binned_entropy"].family(X, [{"bins": bins}])[:, 0]
            assert col.tobytes() == oracles.binned_entropy_kernel(X, bins).tobytes()
            assert math.isnan(col[0]) == (bins > 1) and not math.isnan(col[1])

    @pytest.mark.parametrize("calc", sorted(ORACLE_KERNELS))
    def test_each_column_alone_matches_the_sweep(self, calc):
        X = _family_batch(50)
        params_list = [
            f.param_dict() for f in default_settings(["k"]).features if f.calculator == calc
        ]
        sweep = CALCULATORS[calc].family(X, params_list)
        for j, params in enumerate(params_list):
            alone = CALCULATORS[calc].family(X, [params])
            assert alone[:, 0].tobytes() == sweep[:, j].tobytes(), params
