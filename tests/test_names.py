"""Feature-name codec: canonical encoding, decoding, and settings grouping."""

import pickle

import numpy as np
import pytest

from imufresh.calculators import (
    CALCULATORS,
    decode_feature_name,
    make_feature_name,
    settings_from_feature_names,
)
from imufresh.errors import (
    BadParameters,
    MalformedFeatureName,
    UnknownCalculator,
)
from imufresh.extraction import FeatureMatrix
from imufresh.names import FeatureName

from known_names import KNOWN_FEATURE_NAMES, KNOWN_KINDS


class TestEncode:
    def test_change_quantiles_rendering(self):
        f = make_feature_name(
            "accel_y_r",
            "change_quantiles",
            {"f_agg": "var", "isabs": False, "qh": 1.0, "ql": 0.4},
        )
        assert (
            f.canonical()
            == 'accel_y_r__change_quantiles__f_agg_"var"__isabs_False__qh_1.0__ql_0.4'
        )

    def test_parameterless(self):
        f = make_feature_name("accel_z_r", "minimum")
        assert f.canonical() == "accel_z_r__minimum"

    def test_agg_linear_trend_parameter_order(self):
        f = make_feature_name(
            "gyro_y_diff",
            "agg_linear_trend",
            {"f_agg": "max", "chunk_len": 50, "attr": "stderr"},
        )
        assert (
            f.canonical()
            == 'gyro_y_diff__agg_linear_trend__f_agg_"max"__chunk_len_50__attr_"stderr"'
        )

    def test_order_independent_of_input_dict_order(self):
        a = make_feature_name(
            "k", "change_quantiles", {"ql": 0.0, "qh": 0.2, "isabs": True, "f_agg": "mean"}
        )
        b = make_feature_name(
            "k", "change_quantiles", {"f_agg": "mean", "isabs": True, "qh": 0.2, "ql": 0.0}
        )
        assert a == b
        assert a.canonical() == b.canonical()


class TestDecode:
    def test_parameterless(self):
        f = decode_feature_name("accel_z_r__minimum")
        assert f == FeatureName("accel_z_r", "minimum", ())

    def test_unknown_calculator(self):
        with pytest.raises(UnknownCalculator):
            decode_feature_name("accel_z_r__nosuchcalc")

    def test_missing_parameters(self):
        with pytest.raises(BadParameters):
            decode_feature_name("k__quantile")

    def test_extra_parameters(self):
        with pytest.raises(BadParameters):
            decode_feature_name("k__minimum__q_0.5")

    def test_duplicate_parameter(self):
        with pytest.raises(BadParameters):
            decode_feature_name("k__quantile__q_0.5__q_0.6")

    def test_unparseable_value(self):
        with pytest.raises(MalformedFeatureName):
            decode_feature_name("k__quantile__q_zero")

    def test_single_token(self):
        with pytest.raises(MalformedFeatureName):
            decode_feature_name("minimum")

    def test_empty(self):
        with pytest.raises(MalformedFeatureName):
            decode_feature_name("")

    def test_wrong_value_type(self):
        with pytest.raises(BadParameters):
            decode_feature_name('k__quantile__q_"0.5"')

    def test_int_widens_to_float_param(self):
        f = decode_feature_name("k__quantile__q_1")
        assert f.param_dict() == {"q": 1.0}
        assert f.canonical() == "k__quantile__q_1.0"

    def test_kind_is_the_first_token(self):
        assert decode_feature_name("accel_y_r__minimum").kind == "accel_y_r"
        with pytest.raises(UnknownCalculator):  # kind "a", calculator "b"
            decode_feature_name("a__b__minimum")

    def test_non_canonical_param_order_recanonicalizes(self):
        s = 'k__change_quantiles__ql_0.0__qh_1.0__isabs_True__f_agg_"mean"'
        f = decode_feature_name(s)
        assert f.canonical() == 'k__change_quantiles__f_agg_"mean"__isabs_True__qh_1.0__ql_0.0'


class TestKnownCorpus:
    @pytest.mark.parametrize("name", KNOWN_FEATURE_NAMES)
    def test_roundtrip_byte_identical(self, name):
        assert decode_feature_name(name).canonical() == name

    def test_corpus_spans_ten_kinds(self):
        settings = settings_from_feature_names(KNOWN_FEATURE_NAMES)
        assert set(settings.kinds) == KNOWN_KINDS
        assert len(settings) == 20


class TestSettings:
    def test_duplicates_collapse(self):
        settings = settings_from_feature_names(["k__minimum", "k__minimum"])
        assert len(settings) == 1

    def test_empty(self):
        settings = settings_from_feature_names([])
        assert len(settings) == 0
        assert settings.kinds == ()

    def test_names_sorted_canonically(self):
        settings = settings_from_feature_names(["b__minimum", "a__minimum"])
        assert settings.canonical_names() == ("a__minimum", "b__minimum")


def _random_params(calc, rng):
    params = {}
    for spec in calc.params:
        if spec.value_type is bool:
            params[spec.name] = bool(rng.integers(0, 2))
        elif spec.value_type is int:
            params[spec.name] = int(rng.integers(1, 1000))
        elif spec.value_type is float:
            params[spec.name] = round(float(rng.uniform(0.0, 1.0)), 4)
        else:
            choices = ["mean", "var", "max", "min", "slope", "intercept", "stderr", "rvalue"]
            params[spec.name] = choices[rng.integers(0, len(choices))]
    # keep cross-constrained params legal
    if calc.name == "change_quantiles":
        ql, qh = sorted((params["ql"], params["qh"]))
        params["ql"], params["qh"] = ql, max(qh, ql + 1e-4)
        params["f_agg"] = ("mean", "var")[int(rng.integers(0, 2))]
    if calc.name == "agg_linear_trend":
        params["f_agg"] = ("max", "min", "mean")[int(rng.integers(0, 3))]
        params["attr"] = ("slope", "intercept", "stderr", "rvalue")[int(rng.integers(0, 4))]
    if calc.name == "linear_trend":
        params["attr"] = ("slope", "intercept", "stderr", "rvalue")[int(rng.integers(0, 4))]
    return params


def test_fuzz_roundtrip_over_registry():
    """decode(encode(f)) == f for randomized valid names of every calculator."""
    rng = np.random.default_rng(2024)
    kinds = ["accel_y_r", "gyro_z_diff", "a", "x1_y2_z3"]
    for _ in range(200):
        calc = list(CALCULATORS.values())[rng.integers(0, len(CALCULATORS))]
        kind = kinds[rng.integers(0, len(kinds))]
        try:
            f = make_feature_name(kind, calc.name, _random_params(calc, rng))
        except BadParameters:
            continue
        s = f.canonical()
        g = decode_feature_name(s)
        assert g == f
        assert g.canonical() == s


class TestRenderedOnce:
    """FeatureName keeps the canonical string it renders at construction."""

    @pytest.mark.parametrize("name", KNOWN_FEATURE_NAMES)
    def test_built_and_decoded_names_compare_and_hash_equal(self, name):
        decoded = decode_feature_name(name)
        built = make_feature_name(decoded.kind, decoded.calculator, dict(reversed(decoded.params)))
        assert built == decoded
        assert hash(built) == hash(decoded)
        assert built.canonical() == decoded.canonical() == name
        assert len({built, decoded}) == 1

    def test_stored_string_is_not_part_of_repr(self):
        f = make_feature_name("k", "quantile", {"q": 0.5})
        assert repr(f) == "FeatureName(kind='k', calculator='quantile', params=(('q', 0.5),))"

    def test_pickled_feature_matrix_keeps_its_names(self):
        names = settings_from_feature_names(KNOWN_FEATURE_NAMES).features
        matrix = FeatureMatrix(
            feature_names=names,
            values=np.arange(2.0 * len(names)).reshape(2, len(names)),
            window_ids=np.asarray([4, 7]),
            labels=("a", "b"),
        )
        back = pickle.loads(pickle.dumps(matrix))
        assert back.feature_names == matrix.feature_names
        assert back.canonical_names() == matrix.canonical_names()
        assert [f.canonical() for f in back.feature_names] == list(matrix.canonical_names())
        assert back.column_index(names[-1]) == len(names) - 1
        assert back.values.tobytes() == matrix.values.tobytes()


def test_roundtrip_property():
    """make_feature_name -> canonical() -> decode_feature_name gives an equal
    name with the same canonical string, for every calculator."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kinds = st.from_regex(r"[A-Za-z0-9]{1,6}(_[A-Za-z0-9]{1,6}){0,3}", fullmatch=True)
    words = ["mean", "var", "max", "min", "slope", "intercept", "stderr", "rvalue"]
    by_type = {
        bool: st.booleans(),
        int: st.integers(-5, 10**12),
        float: st.floats(0.0, 1.0),
        str: st.sampled_from(words),
    }

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(kind=kinds, calc=st.sampled_from(sorted(CALCULATORS)), data=st.data())
    def roundtrip(kind, calc, data):
        specs = CALCULATORS[calc].params
        params = {spec.name: data.draw(by_type[spec.value_type]) for spec in specs}
        try:
            name = make_feature_name(kind, calc, params)
        except BadParameters:  # out of the calculator's domain
            hypothesis.assume(False)
        text = name.canonical()
        back = decode_feature_name(text)
        assert back == name
        assert back.canonical() == text

    roundtrip()
