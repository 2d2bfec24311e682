import io

import numpy as np
import pytest

import oracles
from imufresh import selection
from imufresh.errors import (
    BadParameters,
    DegenerateFeature,
    DegenerateSplit,
    DegenerateTable,
    DegenerateTarget,
)
from imufresh.extraction import FeatureMatrix
from imufresh.names import FeatureName
from imufresh.selection import (
    benjamini_hochberg,
    benjamini_yekutieli,
    fdr_select,
    fisher_exact_test,
    kendall_tau,
    kendall_tau_test,
    ks_statistic,
    ks_two_sample_test,
    save_report_csv,
    select_features,
)


class TestFisher:
    def test_diagonal_2s(self):
        assert fisher_exact_test([[2, 0], [0, 2]]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_uniform_table(self):
        assert fisher_exact_test([[1, 1], [1, 1]]) == 1.0

    def test_diagonal_10s(self):
        assert fisher_exact_test([[10, 0], [0, 10]]) == pytest.approx(
            2.0 / 184756.0, rel=1e-12
        )

    def test_zero_margin(self):
        with pytest.raises(DegenerateTable):
            fisher_exact_test([[0, 0], [3, 4]])

    def test_non_integer_cell(self):
        with pytest.raises(BadParameters):
            fisher_exact_test([[1.5, 1], [1, 1]])

    def test_matches_enumeration_small_margins(self):
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    for d in range(7):
                        if min(a + b, c + d, a + c, b + d) == 0:
                            continue
                        got = fisher_exact_test([[a, b], [c, d]])
                        want = oracles.fisher_exact([[a, b], [c, d]])
                        assert got == pytest.approx(want, abs=1e-12), (a, b, c, d)

    def test_large_margins_do_not_overflow(self):
        p = fisher_exact_test([[300, 10], [12, 290]])
        assert 0.0 <= p < 1e-50


class TestKs:
    def test_identical_samples(self):
        a = [1.0, 2.0, 2.0, 5.0]
        assert ks_statistic(a, list(a)) == 0.0
        assert ks_two_sample_test(a, list(a)) == 1.0

    def test_disjoint_supports(self):
        assert ks_statistic([0.0] * 4, [1.0] * 4) == 1.0

    def test_three_vs_three_matches_series(self):
        a, b = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        assert ks_statistic(a, b) == 1.0
        assert ks_two_sample_test(a, b) == pytest.approx(oracles.ks_p(1.0, 3, 3), abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(DegenerateSplit):
            ks_two_sample_test([], [1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_samples_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(int(rng.integers(2, 40)))
        b = rng.standard_normal(int(rng.integers(2, 40))) + rng.uniform(-1, 1)
        d = ks_statistic(a, b)
        assert d == pytest.approx(oracles.ks_d(list(a), list(b)), abs=1e-12)
        assert ks_two_sample_test(a, b) == pytest.approx(
            oracles.ks_p(d, a.size, b.size), abs=1e-9
        )


class TestKendall:
    def test_full_concordance(self):
        assert kendall_tau([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == 1.0

    def test_full_discordance(self):
        assert kendall_tau([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]) == -1.0

    def test_known_mixed_case(self):
        assert kendall_tau([1, 2, 3, 4, 5], [1, 3, 2, 5, 4]) == pytest.approx(0.6, abs=1e-12)

    def test_all_tied_raises(self):
        with pytest.raises(DegenerateFeature):
            kendall_tau_test([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(BadParameters):
            kendall_tau_test([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_counting_with_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 50))
        x = rng.integers(0, 6, n).astype(float)  # heavy ties
        y = (x + rng.integers(0, 4, n)).astype(float)
        if np.unique(x).size < 2 or np.unique(y).size < 2:
            pytest.skip("degenerate draw")
        want_tau, want_p = oracles.kendall(list(x), list(y))
        assert kendall_tau(x, y) == pytest.approx(want_tau, abs=1e-12)
        assert kendall_tau_test(x, y) == pytest.approx(want_p, abs=1e-12)


class TestFdr:
    def test_by_example(self):
        # c(3) = 11/6; thresholds ~ [0.00909, 0.01818, 0.02727]
        assert set(benjamini_yekutieli([0.001, 0.002, 0.5], 0.05)) == {0, 1}

    def test_none_selected(self):
        assert benjamini_yekutieli([0.9, 0.95], 0.05).size == 0

    def test_single_hypothesis_reduces_to_q(self):
        assert set(benjamini_yekutieli([1e-12], 0.05)) == {0}
        assert benjamini_yekutieli([0.06], 0.05).size == 0

    def test_ties_at_threshold_included(self):
        selected, k_star = fdr_select([0.001, 0.001, 0.9, 0.9], 0.05, method="bh")
        assert set(selected) == {0, 1}
        assert k_star == 2

    def test_by_subset_of_bh(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform(0, 1, 60) ** rng.uniform(1, 3)
            by = set(benjamini_yekutieli(p, 0.1))
            bh = set(benjamini_hochberg(p, 0.1))
            assert by <= bh

    def test_monotone_in_q(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, 80) ** 2
        smaller = set(benjamini_yekutieli(p, 0.01))
        larger = set(benjamini_yekutieli(p, 0.2))
        assert smaller <= larger

    def test_matches_longhand_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = rng.uniform(0, 1, int(rng.integers(1, 40))) ** 2
            assert set(benjamini_yekutieli(p, 0.05)) == oracles.by_selected(list(p), 0.05)

    def test_invalid_q(self):
        with pytest.raises(BadParameters):
            benjamini_yekutieli([0.5], 0.0)

    def test_invalid_p(self):
        with pytest.raises(BadParameters):
            benjamini_yekutieli([1.5], 0.05)


def _matrix(columns: dict[str, np.ndarray], labels=None):
    names = tuple(FeatureName(k, "minimum") for k in sorted(columns))
    values = np.column_stack([columns[k] for k in sorted(columns)])
    return FeatureMatrix(
        feature_names=names,
        values=values,
        window_ids=np.arange(values.shape[0]),
        labels=labels,
    )


def _random_column(rng, n, shape):
    """A real, tied, binary, constant or all-NaN column of n rows."""
    if shape == 0:
        return rng.standard_normal(n)
    if shape == 1:
        return rng.integers(0, 4, n).astype(np.float64)
    if shape == 2:
        return rng.integers(0, 2, n).astype(np.float64)
    if shape == 3:
        return np.full(n, 2.5)
    return np.full(n, np.nan)


def _wide_case(n_rows, classes, n_cols=405):
    """A matrix of *n_cols* real, tied, two-valued, constant and all-NaN
    columns, some with NaN cells, a tenth of them shifted by class; one
    column is NaN on every row of the first class.  Also the target, with
    every class present."""
    rng = np.random.default_rng(n_rows * len(classes))
    target = [classes[i % len(classes)] for i in rng.permutation(n_rows)]
    shift = np.asarray([classes.index(v) for v in target], dtype=np.float64)
    columns = {}
    for j in range(n_cols - 1):
        col = _random_column(rng, n_rows, j % 5)
        if j % 10 == 0:
            col = col + 2.0 * shift
        if j % 3 == 0:
            col[rng.random(n_rows) < 0.2] = np.nan
        columns[f"f{j:03d}"] = col
    gap = rng.standard_normal(n_rows)
    gap[np.asarray(target, dtype=object) == classes[0]] = np.nan
    columns["gap"] = gap
    return _matrix(columns), target


class TestSelectFeatures:
    def test_identical_binary_feature_is_top_and_selected(self):
        rng = np.random.default_rng(0)
        target = ["a", "b"] * 20
        indicator = np.asarray([1.0 if t == "a" else 0.0 for t in target])
        matrix = _matrix({"hit": indicator, "noise": rng.standard_normal(40)})
        report = select_features(matrix, target, q=0.05)
        assert report.tests[0].feature_name.kind == "hit"
        assert report.tests[0].test_kind == "fisher_exact"
        assert "hit" in {f.kind for f in report.selected}

    def test_separated_distributions_selected(self):
        rng = np.random.default_rng(1)
        target = ["a"] * 40 + ["b"] * 40
        feat = np.concatenate([rng.normal(0, 1, 40), rng.normal(3, 1, 40)])
        matrix = _matrix({"sep": feat})
        report = select_features(matrix, target, q=0.05)
        assert {f.kind for f in report.selected} == {"sep"}
        assert report.tests[0].test_kind == "ks_two_sample"

    def test_pure_noise_mostly_unselected(self):
        rng = np.random.default_rng(2)
        target = list(rng.permutation(["a"] * 30 + ["b"] * 30))
        matrix = _matrix({f"n{i:03d}": rng.standard_normal(60) for i in range(100)})
        report = select_features(matrix, target, q=0.05)
        assert len(report.selected) <= 5

    def test_real_target_dispatches_kendall(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        target = list(x * 2.0 + rng.normal(0, 0.1, 50))
        matrix = _matrix({"lin": x, "noise": rng.standard_normal(50)})
        report = select_features(matrix, target, q=0.05)
        by_kind = {t.feature_name.kind: t for t in report.tests}
        assert by_kind["lin"].test_kind == "kendall_tau"
        assert "lin" in {f.kind for f in report.selected}

    def test_binary_feature_real_target_dispatches_ks(self):
        rng = np.random.default_rng(4)
        flag = np.asarray([0.0, 1.0] * 25)
        target = list(flag * 3.0 + rng.normal(0, 0.2, 50))
        matrix = _matrix({"flag": flag})
        report = select_features(matrix, target, q=0.05)
        assert report.tests[0].test_kind == "ks_two_sample"
        assert len(report.selected) == 1

    def test_constant_feature_gets_p_one(self):
        rng = np.random.default_rng(5)
        target = ["a", "b"] * 10
        matrix = _matrix({"const": np.full(20, 3.0), "x": rng.standard_normal(20)})
        report = select_features(matrix, target, q=0.05)
        const = [t for t in report.tests if t.feature_name.kind == "const"][0]
        assert const.p_value == 1.0
        assert const.test_kind == "constant"

    def test_all_nan_column_gets_p_one(self):
        rng = np.random.default_rng(6)
        target = ["a", "b"] * 10
        matrix = _matrix({"gone": np.full(20, np.nan), "x": rng.standard_normal(20)})
        report = select_features(matrix, target, q=0.05)
        gone = [t for t in report.tests if t.feature_name.kind == "gone"][0]
        assert gone.p_value == 1.0
        assert gone.n_effective == 0

    def test_nan_rows_dropped_pairwise(self):
        rng = np.random.default_rng(7)
        col = rng.standard_normal(30)
        col[:4] = np.nan
        target = ["a", "b"] * 15
        matrix = _matrix({"holey": col})
        report = select_features(matrix, target, q=0.05)
        assert report.tests[0].n_effective == 26

    def test_degenerate_target(self):
        matrix = _matrix({"x": np.arange(10.0)})
        with pytest.raises(DegenerateTarget):
            select_features(matrix, ["same"] * 10, q=0.05)

    def test_row_permutation_leaves_pvalues_unchanged(self):
        rng = np.random.default_rng(8)
        target = np.asarray(["a"] * 25 + ["b"] * 25)
        values = {"u": rng.standard_normal(50), "v": rng.standard_normal(50) + 0.5}
        matrix = _matrix(values, labels=None)
        report1 = select_features(matrix, list(target), q=0.05)
        perm = rng.permutation(50)
        matrix2 = _matrix({k: v[perm] for k, v in values.items()})
        report2 = select_features(matrix2, list(target[perm]), q=0.05)
        p1 = {t.feature_name.kind: t.p_value for t in report1.tests}
        p2 = {t.feature_name.kind: t.p_value for t in report2.tests}
        assert p1 == p2

    def test_multiclass_one_vs_rest(self):
        rng = np.random.default_rng(9)
        target = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        # separates only class c from the rest
        feat = np.concatenate([rng.normal(0, 1, 40), rng.normal(4, 1, 20)])
        matrix = _matrix({"c_det": feat, "noise": rng.standard_normal(60)})
        report = select_features(matrix, target, q=0.05)
        assert "c_det" in {f.kind for f in report.selected}

    def test_lower_q_never_enlarges_selection(self):
        rng = np.random.default_rng(10)
        target = ["a"] * 30 + ["b"] * 30
        cols = {
            f"f{i:02d}": np.concatenate(
                [rng.normal(0, 1, 30), rng.normal(rng.uniform(0, 2), 1, 30)]
            )
            for i in range(30)
        }
        matrix = _matrix(cols)
        tight = set(select_features(matrix, target, q=0.001).selected_canonical())
        loose = set(select_features(matrix, target, q=0.2).selected_canonical())
        assert tight <= loose

    @pytest.mark.parametrize(
        "n_rows, n_cols", [(40, 0), (40, 1), (1, 3), (0, 3)],
        ids=["zero-columns", "one-column", "one-row", "zero-rows"],
    )
    def test_small_inputs_match_reference(self, n_rows, n_cols):
        rng = np.random.default_rng(13)
        target = ["a", "b"] * (n_rows // 2) + ["a"] * (n_rows % 2)
        names = tuple(FeatureName(f"f{i}", "minimum") for i in range(n_cols))
        matrix = FeatureMatrix(
            names, rng.standard_normal((n_rows, n_cols)), np.arange(n_rows), None
        )
        if n_rows < 2:
            with pytest.raises(BadParameters):
                select_features(matrix, target)
            return
        report = select_features(matrix, target)
        assert report == oracles.select_features(matrix, target)
        assert len(report.tests) == n_cols

    def test_matches_reference_on_random_cases(self):
        rng = np.random.default_rng(14)
        for case in range(400):
            n = int(rng.integers(2, 41))
            kind = ("binary", "4-class", "numeric-binary", "real")[case % 4]
            if kind == "binary":
                target = list(rng.choice(["walk", "run"], n))
            elif kind == "4-class":
                target = list(rng.choice(["a", "b", "c", "d"], n))
            elif kind == "numeric-binary":
                target = list(rng.choice([3, 7], n))
            else:
                target = list(rng.standard_normal(n).round(int(rng.integers(0, 3))))
                target[int(rng.integers(n))] = float("nan")
            columns = {}
            for j in range(int(rng.integers(1, 9))):
                col = _random_column(rng, n, j % 5)
                if rng.random() < 0.3:
                    col[rng.random(n) < 0.2] = np.nan
                columns[f"f{j}"] = col
            matrix = _matrix(columns)
            q = float(rng.choice([0.05, 0.2, 0.5]))
            method = ("by", "bh")[case % 2]
            try:
                expected = oracles.select_features(matrix, target, q=q, method=method)
            except (BadParameters, DegenerateTarget) as exc:
                with pytest.raises(type(exc)):
                    select_features(matrix, target, q=q, method=method)
                continue
            assert select_features(matrix, target, q=q, method=method) == expected, case

    @pytest.mark.parametrize(
        "n_rows, classes",
        [(30, ("run", "walk")), (40, tuple("abcd")), (48, tuple("abcdefgh")), (30, (3, 7))],
        ids=["desk-shaped", "hard-shaped", "8-class", "numeric-binary"],
    )
    def test_sorted_pass_matches_per_column_oracle(self, n_rows, classes):
        matrix, target = _wide_case(n_rows, classes)
        kinds = set()
        for q, method in ((0.05, "by"), (0.5, "bh")):
            got = select_features(matrix, target, q=q, method=method)
            want = oracles.select_features(matrix, target, q=q, method=method)
            assert [t.p_value for t in got.tests] == [t.p_value for t in want.tests]
            assert [t.test_kind for t in got.tests] == [t.test_kind for t in want.tests]
            assert [t.n_effective for t in got.tests] == [t.n_effective for t in want.tests]
            assert [t.feature_name for t in got.tests] == [t.feature_name for t in want.tests]
            assert got.selected == want.selected
            assert got == want
            assert got.selected
            kinds |= {t.test_kind for t in got.tests}
        assert kinds == {"constant", "fisher_exact", "ks_two_sample"}

    @pytest.mark.parametrize(
        "n_rows, classes", [(30, ("run", "walk")), (40, tuple("abcd")), (48, tuple("abcdefgh"))]
    )
    def test_sorted_pass_d_matches_ks_statistic_and_scipy(self, n_rows, classes):
        stats = pytest.importorskip("scipy.stats")
        matrix, target = _wide_case(n_rows, classes)
        labels = np.asarray(target, dtype=object)
        groups = classes[1:] if len(classes) == 2 else classes
        in_group = labels[:, None] == np.asarray(groups, dtype=object)
        n_eff, n_distinct, d, _ = selection._sorted_pass(matrix.values, in_group)
        checked = 0
        for col in range(matrix.n_cols):
            x = matrix.values[:, col]
            mask = ~np.isnan(x)
            assert n_eff[col] == mask.sum()
            assert n_distinct[col] == np.unique(x[mask]).size
            for g in range(len(groups)):
                a, b = x[mask & ~in_group[:, g]], x[mask & in_group[:, g]]
                if a.size == 0 or b.size == 0:  # KS needs two non-empty samples
                    continue
                assert d[col, g] == ks_statistic(a, b)
                assert d[col, g] == pytest.approx(
                    stats.ks_2samp(a, b, method="asymp").statistic, rel=1e-12, abs=1e-15
                )
                checked += 1
        assert checked > matrix.n_cols * len(groups) * 0.7

    def test_report_csv_format(self):
        rng = np.random.default_rng(12)
        target = ["a", "b"] * 10
        matrix = _matrix({"x": rng.standard_normal(20), "y": rng.standard_normal(20)})
        report = select_features(matrix, target, q=0.05)
        buf = io.StringIO()
        save_report_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "feature,p_value,test_kind,selected"
        assert len(lines) == 3
        ps = [float(line.split(",")[1]) for line in lines[1:]]
        assert ps == sorted(ps)
