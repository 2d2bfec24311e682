import hashlib
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from imufresh import forest
from imufresh.errors import (
    BadParameters,
    DataError,
    DegenerateTarget,
    NaNInFeatures,
    ShapeMismatch,
)
from imufresh.extraction import FeatureMatrix
from imufresh.forest import (
    ForestParams,
    aggregate_importances,
    cross_validate,
    load_model,
    predict_labels,
    predict_proba,
    save_model,
    top_k_features,
    train_forest,
)
from imufresh.names import FeatureName


def _matrix(values: np.ndarray, prefix="f"):
    n_cols = values.shape[1]
    names = tuple(FeatureName(f"{prefix}{i:03d}", "minimum") for i in range(n_cols))
    return FeatureMatrix(
        feature_names=names,
        values=values,
        window_ids=np.arange(values.shape[0]),
        labels=None,
    )


def _separable(n=60, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    labels = ["a"] * (n // 2) + ["b"] * (n // 2)
    indicator = np.asarray([1.0 if v == "a" else 0.0 for v in labels])
    values = np.column_stack(
        [indicator + noise * rng.standard_normal(n), rng.standard_normal(n)]
    )
    return _matrix(values), labels


def _four_class(n=40, p=20, seed=0):
    """Non-separable 4-class data: weak class shifts on three columns under
    noise, so trees grow deep."""
    rng = np.random.default_rng(seed)
    shift = np.arange(n) % 4
    values = rng.standard_normal((n, p))
    values[:, :3] += 0.5 * shift[:, None]
    return _matrix(values), [f"c{v}" for v in shift]


class TestTrain:
    def test_separable_training_accuracy(self):
        matrix, labels = _separable()
        model = train_forest(matrix, labels, ForestParams(n_trees=30, seed=1))
        assert predict_labels(model, matrix.values) == labels

    def test_deterministic_for_fixed_seed(self):
        matrix, labels = _separable(seed=3)
        params = ForestParams(n_trees=20, seed=42)
        m1 = train_forest(matrix, labels, params)
        m2 = train_forest(matrix, labels, params)
        assert np.array_equal(m1.importances, m2.importances)
        rng = np.random.default_rng(9)
        probe = rng.standard_normal((25, 2))
        assert np.array_equal(predict_proba(m1, probe), predict_proba(m2, probe))

    def test_different_seeds_differ(self):
        matrix, labels = _separable(noise=0.8, seed=4)
        m1 = train_forest(matrix, labels, ForestParams(n_trees=10, seed=0))
        m2 = train_forest(matrix, labels, ForestParams(n_trees=10, seed=1))
        assert not np.array_equal(m1.importances, m2.importances)

    def test_informative_feature_dominates_importance(self):
        for seed in range(5):
            matrix, labels = _separable(seed=seed)
            model = train_forest(matrix, labels, ForestParams(n_trees=50, seed=seed))
            assert model.importances[0] > model.importances[1]

    def test_importances_sum_to_one(self):
        matrix, labels = _separable(seed=6)
        model = train_forest(matrix, labels, ForestParams(n_trees=15, seed=2))
        assert abs(float(model.importances.sum()) - 1.0) <= 1e-9

    def test_nan_rejected(self):
        matrix, labels = _separable()
        bad = np.array(matrix.values)
        bad[0, 0] = np.nan
        with pytest.raises(NaNInFeatures):
            train_forest(_matrix(bad), labels, ForestParams(n_trees=2, seed=0))

    @pytest.mark.parametrize("cell", [-np.inf, np.inf])
    def test_infinite_cells_rejected(self, cell):
        # A split between -inf and 1.0 would get the threshold -inf, which
        # no model file may hold.
        with pytest.raises(NaNInFeatures):
            train_forest(_matrix(np.asarray([[cell], [1.0]])), ["a", "b"], ForestParams(seed=0))

    def test_single_class_rejected(self):
        matrix, _ = _separable()
        with pytest.raises(DegenerateTarget):
            train_forest(matrix, ["same"] * matrix.n_rows, ForestParams(seed=0))

    def test_no_feature_column_rejected(self):
        matrix = _matrix(np.zeros((4, 0)))
        with pytest.raises(BadParameters, match="at least one feature column"):
            train_forest(matrix, ["a", "b"] * 2, ForestParams(seed=0))

    def test_multiclass(self):
        rng = np.random.default_rng(11)
        labels = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        centers = {"a": 0.0, "b": 3.0, "c": 6.0}
        values = np.column_stack(
            [np.asarray([centers[v] for v in labels]) + 0.1 * rng.standard_normal(60)]
        )
        model = train_forest(_matrix(values), labels, ForestParams(n_trees=25, seed=0))
        assert predict_labels(model, values) == labels


def _columns(rng, n_rows, p):
    """Normal, discrete (tied), constant, duplicated and adjacent-float
    columns."""
    columns = []
    for _ in range(p):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            col = rng.standard_normal(n_rows)
        elif kind == 1:
            col = rng.integers(0, 3, size=n_rows).astype(np.float64)
        elif kind == 2:
            col = np.full(n_rows, 1.5)
        elif kind == 3 and columns:
            col = columns[int(rng.integers(0, len(columns)))].copy()
        else:  # adjacent floats whose midpoint rounds up to the larger one
            lo = np.nextafter(1.0, 2.0)
            col = np.where(rng.random(n_rows) < 0.5, lo, np.nextafter(lo, 2.0))
        columns.append(col)
    return np.column_stack(columns)


def _split_problem(rng, case):
    """A seeded node for the split search, drawn with repeated rows."""
    n_classes = 2 + case % 4
    n_rows = int(rng.integers(2, 40))
    n_node = 2 if case % 7 == 0 else int(rng.integers(2, 40))
    p = int(rng.integers(1, 9))
    x = _columns(rng, n_rows, p)
    y = rng.integers(0, n_classes, size=n_rows)
    idx = rng.integers(0, n_rows, size=n_node)
    counts = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
    feats = rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
    return x, y, idx, counts, feats, n_classes


def _search(x, y, idx, counts, feats, n_classes, sizes=None):
    """``forest._best_split`` on B nodes, node i holding ``idx[i, :sizes[i]]``
    (its whole row by default), as (gain, feature, threshold) per node, or
    None where it does not split, after checking that each node's children
    are its rows at or below and above the threshold."""
    sizes = np.full(len(idx), idx.shape[1]) if sizes is None else sizes
    found = forest._best_split(x, y, idx, sizes, counts, feats, n_classes)
    assert all(len(a) == idx.shape[0] for a in found)
    out = []
    for node_rows, n, gain, f, thr, b, rows in zip(idx, sizes, *found):
        if gain <= 0.0:
            out.append(None)
            continue
        node_rows = node_rows[:n]
        go_left = x[node_rows, f] <= thr
        assert np.array_equal(np.sort(rows[: b + 1]), np.sort(node_rows[go_left]))
        assert np.array_equal(np.sort(rows[b + 1 : n]), np.sort(node_rows[~go_left]))
        out.append((float(gain), int(f), float(thr)))
    return out


class TestSplitSearch:
    def test_matches_per_feature_loop(self):
        rng = np.random.default_rng(31)
        found = 0
        for case in range(400):
            x, y, idx, counts, feats, n_classes = _split_problem(rng, case)
            want = oracles.best_split(x, y, idx, counts, feats, n_classes)
            got = _search(x, y, idx[None], counts[None], feats[None], n_classes)
            assert got == [want], case
            found += want is not None
        assert 0 < found < 400

    @pytest.mark.parametrize("cells", [forest._BLOCK_CELLS, 64, 1])
    def test_batch_matches_one_oracle_call_per_node(self, monkeypatch, cells):
        # B nodes of one size on shared data, as a forest's roots are; the
        # smaller block bounds score the batch in several passes.
        monkeypatch.setattr(forest, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(43)
        found = 0
        for case in range(160):
            n_classes = 2 + case % 4
            n_nodes = 1 + case % 8
            n_rows = int(rng.integers(2, 30))
            n_node = int(rng.integers(2, 30))
            p = int(rng.integers(1, 9))
            mtry = int(rng.integers(1, p + 1))
            x = _columns(rng, n_rows, p)
            y = rng.integers(0, n_classes, size=n_rows)
            idx = rng.integers(0, n_rows, size=(n_nodes, n_node))
            if case % 5 == 0:
                idx[-1] = idx[0]  # two nodes with the same rows
            counts = np.stack([np.bincount(y[i], minlength=n_classes) for i in idx]).astype(float)
            feats = np.stack([rng.choice(p, size=mtry, replace=False) for _ in idx])
            want = [
                oracles.best_split(x, y, i, c, f, n_classes)
                for i, c, f in zip(idx, counts, feats)
            ]
            assert _search(x, y, idx, counts, feats, n_classes) == want, case
            found += sum(w is not None for w in want)
        assert found > 150

    @pytest.mark.parametrize("cells", [forest._BLOCK_CELLS, 64, 1])
    def test_nodes_of_mixed_sizes_match_one_oracle_call_per_node(self, monkeypatch, cells):
        # Nodes of 2 to n rows share a call, as a lockstep step's do; each
        # pass pads its nodes to its largest.  The last column's values lie
        # near the float maximum, so its midpoints overflow, and no warning
        # may leave the search (warnings are errors here).
        monkeypatch.setattr(forest, "_BLOCK_CELLS", cells)
        rng = np.random.default_rng(47)
        found = unsplit = overflowed = 0
        for case in range(120):
            n_classes = 2 + case % 4
            n_rows = int(rng.integers(2, 30))
            near_max = np.where(rng.random(n_rows) < 0.5, 1.0e308, 1.5e308)
            x = np.column_stack([_columns(rng, n_rows, int(rng.integers(1, 8))), near_max])
            p = x.shape[1]
            mtry = int(rng.integers(1, p + 1))
            y = rng.integers(0, n_classes, size=n_rows)
            sizes = rng.integers(2, 30, size=1 + case % 8)
            sizes[0] = 2  # the smallest node there is
            idx = rng.integers(0, n_rows, size=(sizes.size, sizes.max()))  # padded past each size
            counts = np.stack([np.bincount(y[i[:n]], minlength=n_classes) for i, n in zip(idx, sizes)])
            feats = np.stack([rng.choice(p, size=mtry, replace=False) for _ in sizes])
            with np.errstate(over="ignore"):  # the oracle's own midpoint warns
                want = [
                    oracles.best_split(x, y, i[:n], c, f, n_classes)
                    for i, n, c, f in zip(idx, sizes, counts, feats)
                ]
            assert _search(x, y, idx, counts, feats, n_classes, sizes) == want, case
            found += sum(w is not None for w in want)
            unsplit += sum(w is None for w in want)
            overflowed += sum(w is not None and w[2] == 1.0e308 for w in want)
        assert found > 300 and unsplit > 50 and overflowed > 50

    def test_tie_goes_to_first_sampled_feature(self):
        col = np.asarray([0.0, 1.0, 2.0, 3.0])
        x = np.column_stack([col, col, col])
        y = np.asarray([0, 0, 1, 1])
        idx = np.arange(4)[None]
        counts = np.asarray([[2.0, 2.0]])
        for feats in ([2, 0, 1], [1, 2, 0]):
            got = _search(x, y, idx, counts, np.asarray([feats]), 2)
            assert got == [(0.5, feats[0], 1.5)]


def _tree_bits(tree):
    return tuple(
        (a.dtype.str, a.shape, a.tobytes())
        for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.counts)
    )


def _forest_and_oracle(x, y, params):
    """``train_forest``'s trees and importances as bytes; the same for the
    list-based oracle grower run tree by tree on the streams of
    ``(seed, t)``, its importances summed in tree order; and the trained
    model."""
    classes = np.unique(y)
    y = np.searchsorted(classes, y)  # training indexes the classes present
    model = train_forest(_matrix(x), [f"c{v}" for v in y], params)
    acc = np.zeros(x.shape[1])
    trees = [
        oracles.grow_tree(x, y, classes.size, params.seed, t, acc)
        for t in range(params.n_trees)
    ]
    total = float(acc.sum())
    importances = acc / total if total > 0 else acc
    got = ([_tree_bits(t) for t in model.trees], model.importances.tobytes())
    return got, ([_tree_bits(t) for t in trees], importances.tobytes()), model


def _grower_problem(rng, n_rows, n_classes, stumps):
    """Columns and labels holding two classes or more; with *stumps*, two
    classes that every column separates, so each tree is a stump or a lone
    leaf."""
    p = int(rng.integers(1, 9))
    if stumps:
        y = np.arange(n_rows) % 2
        return y[:, None] + 0.5 * rng.random((n_rows, p)), y
    x = _columns(rng, n_rows, p)
    y = rng.integers(0, n_classes, size=n_rows)
    y[:2] = (0, 1)  # training needs two classes
    return x, y


class TestGrower:
    def test_matches_list_based_grower(self):
        rng = np.random.default_rng(57)
        sizes = []
        for case in range(50):
            n_rows = int(rng.integers(2, 40))
            x, y = _grower_problem(rng, n_rows, 2 + case % 4, stumps=case % 3 == 1)
            params = ForestParams(n_trees=1 + case % 6, seed=case)
            got, want, model = _forest_and_oracle(x, y, params)
            assert got == want, case
            sizes += [t.n_nodes for t in model.trees]
        assert sizes.count(3) > 40  # stumps
        assert sum(k > 3 for k in sizes) > 40  # deeper trees

    @pytest.mark.parametrize("cells", [forest._BLOCK_CELLS, 64, 1])
    def test_lockstep_forests_match_list_based_grower(self, monkeypatch, cells):
        # 20-60 trees, so that inner nodes from several trees share a
        # search; the smaller block bounds split those searches.
        monkeypatch.setattr(forest, "_BLOCK_CELLS", cells)
        batch_sizes = []
        real = forest._best_split

        def spy(*args):
            batch_sizes.append(args[2].shape[0])
            return real(*args)

        monkeypatch.setattr(forest, "_best_split", spy)
        rng = np.random.default_rng(61)
        shared = 0  # searches of several inner nodes
        for case in range(12):
            stumps = 4 <= case < 8
            x, y = _grower_problem(rng, int(rng.integers(12, 40)), 2 + case % 4, stumps)
            params = ForestParams(n_trees=int(rng.integers(20, 61)), seed=100 + case)
            del batch_sizes[:]
            got, want, model = _forest_and_oracle(x, y, params)
            assert got == want, case
            shared += sum(b > 1 for b in batch_sizes[1:])
            assert len(batch_sizes) == 1 or not stumps, case  # a stump forest's roots
        assert shared > 20

    @pytest.mark.parametrize("permutation", [True, False], ids=["permutation", "copies"])
    def test_tree_that_isolates_every_bootstrap_row(self, monkeypatch, permutation):
        # Labels alternate along the d distinct rows the one bootstrap drew,
        # on one feature: the tree isolates each of them and fills the 2d - 1
        # slots of its node arrays, since copies of a row never part.  A
        # permutation bootstrap has d = n.
        n = 5
        for seed in range(10_000):
            drawn = np.unique(oracles.bootstrap(seed, 0, n))
            if (drawn.size == n) == permutation and drawn.size > 1:
                break
        y = np.zeros(n, dtype=np.int64)
        y[drawn] = np.arange(drawn.size) % 2
        slots = []

        class Spy(forest._Growing):
            def __init__(self, *args):
                super().__init__(*args)
                slots.append(self.feature.shape[1])

        monkeypatch.setattr(forest, "_Growing", Spy)
        x = np.arange(n, dtype=np.float64)[:, None]
        got, want, model = _forest_and_oracle(x, y, ForestParams(n_trees=1, seed=seed))
        assert got == want
        assert model.trees[0].n_nodes == slots[0] == 2 * drawn.size - 1

    @pytest.mark.parametrize(
        "y, n_trees, seed, root_leaves",
        [
            ([0, 0, 0, 0, 1], 30, 2, "some"),  # some bootstraps hold one class
            ([0, 1, 0, 1, 2, 2], 1, 2, "none"),
            ([0, 1], 1, 0, "all"),  # the one bootstrap is one row twice
            ([0, 0, 0, 1], 4, 38, "all"),  # every bootstrap holds one class
        ],
    )
    def test_unsplittable_roots(self, y, n_trees, seed, root_leaves):
        # From *seed* on, the first seed whose bootstraps make *root_leaves*
        # of the trees single leaves: those that hold one class.
        y = np.asarray(y)

        def category(seed):
            pure = [np.unique(y[oracles.bootstrap(seed, t, y.size)]).size == 1
                    for t in range(n_trees)]
            return ("none", "some", "all")[any(pure) + all(pure)]

        seed = next(s for s in range(seed, seed + 10_000) if category(s) == root_leaves)
        x = np.column_stack([np.arange(y.size, dtype=np.float64), y * 0.5])
        params = ForestParams(n_trees=n_trees, seed=seed)
        got, want, model = _forest_and_oracle(x, y, params)
        assert got == want
        leaves = sum(t.n_nodes == 1 for t in model.trees)
        assert root_leaves == ("none", "some", "all")[(leaves > 0) + (leaves == n_trees)]
        assert model.importances.any() == (root_leaves != "all")

    def test_first_trees_do_not_depend_on_forest_size(self):
        rng = np.random.default_rng(5)
        x = _columns(rng, 30, 6)
        labels = [f"c{v % 3}" for v in range(30)]
        big = train_forest(_matrix(x), labels, ForestParams(n_trees=12, seed=4))
        for k in (1, 5, 12):
            small = train_forest(_matrix(x), labels, ForestParams(n_trees=k, seed=4))
            assert [_tree_bits(t) for t in small.trees] == [_tree_bits(t) for t in big.trees[:k]]


class TestDraws:
    """The counter-based stream behind every bootstrap and feature sample."""

    def test_mix_known_answers(self):
        # The first two SplitMix64 outputs from state 0.
        gamma = forest._GAMMA
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        assert [oracles.mix(gamma), oracles.mix(2 * gamma)] == want
        z = np.array([gamma, 2 * gamma - 2**64], dtype=np.uint64)
        assert forest._mix(z).tolist() == want

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 5, 2**70 - 3])
    def test_draws_match_the_integer_oracle(self, seed):
        # Negative and wide seeds count by their low 64 bits.
        starts = forest._stream_starts(seed, 4)
        got = forest._draws(starts[1:], np.array([0, 5, 2**40], dtype=np.uint64), 6)
        want = [[oracles.stream_output(seed, t, first + i) for i in range(6)]
                for t, first in ((1, 0), (2, 5), (3, 2**40))]
        assert got.tolist() == want

    def test_bootstrap_rows_are_uniform(self):
        stats = pytest.importorskip("scipy.stats")
        n, n_trees = 20, 2_000
        slots = forest._draws(forest._stream_starts(0, n_trees), 0, n) % np.uint64(n)
        counts = np.bincount(slots.ravel().astype(np.int64), minlength=n)
        assert stats.chisquare(counts).pvalue > 1e-3
        # and a tree's first two slots coincide as often as independent draws
        same = int((slots[:, 0] == slots[:, 1]).sum())
        expected = [n_trees * (n - 1) / n, n_trees / n]
        assert stats.chisquare([n_trees - same, same], expected).pvalue > 1e-3

    def test_first_sampled_feature_is_uniform(self):
        stats = pytest.importorskip("scipy.stats")
        p, n_trees = 30, 3_000
        starts = forest._stream_starts(1, n_trees)
        first = np.full(n_trees, 40, dtype=np.uint64)
        feats = forest._sample_features(starts, first, 5, np.empty((n_trees, p), np.uint64))
        assert stats.chisquare(np.bincount(feats[:, 0], minlength=p)).pvalue > 1e-3
        assert all(len(set(row)) == 5 for row in feats.tolist())

    def test_training_creates_no_numpy_generator(self, monkeypatch):
        # Only cross-validation's fold shuffle uses one.  Generator's methods
        # cannot be patched (an immutable type), so its constructor is.
        matrix, labels = _four_class(n=30, p=9, seed=2)

        def refuse(*args, **kwargs):
            raise AssertionError("training used numpy's random module")

        for name in ("default_rng", "Generator", "choice", "randint", "permutation"):
            monkeypatch.setattr(np.random, name, refuse)
        params = ForestParams(n_trees=10, seed=5)
        model = train_forest(matrix, labels, params)
        assert sum(t.n_nodes > 3 for t in model.trees) > 5
        assert len(aggregate_importances(matrix, labels, 3, params)) == matrix.n_cols


def test_seed_to_model_mapping_is_pinned():
    # A small non-separable training from integer-valued cells, so neither
    # numpy's generators nor libm enter the data.  Any change to how a seed
    # becomes trees changes this hash and has to update it on purpose.
    i, j = np.meshgrid(np.arange(36), np.arange(9), indexing="ij")
    values = ((i * (2 * j + 3) + j * j) % 11).astype(np.float64)
    labels = [f"c{(k * 5 // 7) % 3}" for k in range(36)]
    model = train_forest(_matrix(values), labels, ForestParams(n_trees=12, seed=0))
    stream = io.StringIO()
    save_model(model, stream)
    assert sum(t.n_nodes > 3 for t in model.trees) > 6
    digest = hashlib.sha256(stream.getvalue().encode()).hexdigest()
    assert digest == "49f4e90438fe8c23aa725f711b46fd0bf42dbf6cde871fedb3bec1d6531837ac"


def _peak_bytes(call):
    """``call()``'s result and the peak of the memory it held (tracemalloc),
    after one untraced call: numpy's first-call set-up is not the forest's."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_rows, p, n_classes", [(30, 306, 2), (40, 25, 4)])
def test_training_peak_memory_is_bounded(n_rows, p, n_classes):
    # Desk- and hard-shaped forests of 100 trees.  No column separates the
    # labels, so trees grow deep and every tree's stack and node arrays are
    # alive at once; the root search's passes are bounded by _BLOCK_CELLS.
    rng = np.random.default_rng(0)
    matrix = _matrix(rng.standard_normal((n_rows, p)))
    labels = [f"c{i % n_classes}" for i in range(n_rows)]
    model, peak = _peak_bytes(lambda: train_forest(matrix, labels, ForestParams(seed=0)))
    assert sum(t.n_nodes > 3 for t in model.trees) > 90
    assert peak < 1_000_000


@pytest.mark.parametrize("step", ["aggregate_importances", "cross_validate"])
def test_desk_block_peak_memory_is_bounded(step):
    # Ten desk-shaped stump forests of 100 trees in one block.  Each closes
    # right after its root search, so its streams and node arrays are gone
    # before the next forest draws its roots.
    rng = np.random.default_rng(0)
    shift = np.arange(30) % 2
    values = rng.standard_normal((30, 306))
    values[:, ::3] += 4.0 * shift[:, None]  # a third of the columns separate the classes
    matrix, labels = _matrix(values), [f"c{v}" for v in shift]
    params = ForestParams(seed=0)
    if step == "aggregate_importances":
        _, peak = _peak_bytes(lambda: aggregate_importances(matrix, labels, 10, params))
    else:
        _, peak = _peak_bytes(lambda: cross_validate(matrix, labels, 10, params))
    assert peak < 2_000_000


def test_hard_block_peak_memory_is_bounded():
    # One hard worker's CV share: five forests of 100 trees on 36 of 40
    # rows.  Nearly every tree outlives its root, so all five forests' open
    # trees (streams, node arrays and stacks) are alive at once.
    matrix, labels = _four_class(n=40, p=20, seed=3)
    label_arr = np.asarray(labels, dtype=object)
    fold = forest._stratified_folds(labels, 10, 0)
    params = ForestParams(seed=0)
    _, peak = _peak_bytes(
        lambda: forest._fold_accuracies(matrix, label_arr, fold, params, range(5))
    )
    model = train_forest(matrix, labels, params)
    assert sum(t.n_nodes > 3 for t in model.trees) > 90
    assert peak < 4_000_000


class TestRootSearch:
    """All splittable roots share one split search; the inner nodes that
    trees reach in the same lockstep step share one, whatever their sizes."""

    @staticmethod
    def _spy(monkeypatch):
        calls = []  # each call's node sizes
        real = forest._best_split

        def spy(x_cols, y, idx, sizes, counts, feats, n_classes):
            # Each node's class counts are those of its own rows.
            want = [np.bincount(y[rows[:n]], minlength=n_classes) for rows, n in zip(idx, sizes)]
            assert np.array_equal(counts, np.reshape(want, counts.shape))
            calls.append(sizes.tolist())
            return real(x_cols, y, idx, sizes, counts, feats, n_classes)

        monkeypatch.setattr(forest, "_best_split", spy)
        return calls

    def test_stump_forest_makes_one_call(self, monkeypatch):
        calls = self._spy(monkeypatch)
        x, y = _grower_problem(np.random.default_rng(12), 40, 2, stumps=True)
        model = train_forest(_matrix(x), [f"c{v}" for v in y], ForestParams(n_trees=25, seed=3))
        assert [len(sizes) for sizes in calls] == [25]
        assert all(t.n_nodes == 3 for t in model.trees)

    def test_inner_nodes_share_searches_across_trees(self, monkeypatch):
        calls = self._spy(monkeypatch)
        matrix, labels = _separable(n=40, noise=0.8, seed=12)
        params = ForestParams(n_trees=30, seed=3)
        model = train_forest(matrix, labels, params)
        roots = searched = 0  # nodes that hold two classes
        for tree in model.trees:
            mixed = np.count_nonzero(tree.counts, axis=1) > 1
            roots += int(mixed[0])
            searched += int(mixed[1:].sum())
        batch_sizes = [len(sizes) for sizes in calls]
        assert searched > params.n_trees
        assert batch_sizes[0] == roots
        assert sum(batch_sizes) == roots + searched
        assert len(batch_sizes) - 1 < searched
        # A step's nodes of different sizes share its one call.
        assert sum(len(set(sizes)) > 1 for sizes in calls[1:]) > 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_split_between_values_whose_sum_overflows():
    # (lo + hi) / 2 is inf here (numpy warns of the overflow): the split
    # falls back to lo, so the rows still part at the threshold and the
    # model file loads again.
    values = np.asarray([[1.0e308], [1.5e308]] * 5)
    labels = ["a", "b"] * 5
    model = train_forest(_matrix(values), labels, ForestParams(n_trees=5, seed=0))
    assert {float(t.threshold[0]) for t in model.trees if t.n_nodes > 1} == {1.0e308}
    assert predict_labels(model, values) == labels
    buf = io.StringIO()
    save_model(model, buf)
    assert predict_labels(load_model(io.StringIO(buf.getvalue())), values) == labels


class TestPredictProba:
    def test_rows_sum_to_one(self):
        matrix, labels = _separable(noise=0.6, seed=7)
        model = train_forest(matrix, labels, ForestParams(n_trees=20, seed=5))
        rng = np.random.default_rng(0)
        probs = predict_proba(model, rng.standard_normal((40, 2)))
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)

    def test_memorization_on_pure_leaves(self):
        # with the separating feature alone, every tree splits on it and
        # every training row hits a pure leaf
        matrix, labels = _separable(noise=0.01, seed=8)
        values = matrix.values[:, :1]
        model = train_forest(_matrix(values), labels, ForestParams(n_trees=40, seed=3))
        probs = predict_proba(model, values)
        class_index = {c: i for i, c in enumerate(model.classes)}
        for row, label in enumerate(labels):
            assert probs[row, class_index[label]] == 1.0

    def test_overlap_gives_interior_probabilities(self):
        rng = np.random.default_rng(9)
        labels = ["a"] * 50 + ["b"] * 50
        values = np.concatenate([rng.normal(0, 1, 50), rng.normal(1, 1, 50)])[:, None]
        model = train_forest(_matrix(values), labels, ForestParams(n_trees=100, seed=4))
        probs = predict_proba(model, np.asarray([[0.5]]))[0]
        assert 0.0 < probs[0] < 1.0
        assert 0.0 < probs[1] < 1.0

    def test_width_mismatch(self):
        matrix, labels = _separable()
        model = train_forest(matrix, labels, ForestParams(n_trees=5, seed=0))
        with pytest.raises(ShapeMismatch):
            predict_proba(model, np.zeros((3, 5)))


    @staticmethod
    def _assert_oracle_bits(model, rows):
        got = predict_proba(model, rows)
        assert got.tobytes() == oracles.predict_proba(model, rows).tobytes()
        return got

    @pytest.mark.parametrize(
        "params, noise, n_classes, p",
        [
            (ForestParams(n_trees=30, seed=1), 0.05, 2, 1),  # stumps
            (ForestParams(n_trees=30, seed=2), 3.0, 4, 2),  # deep trees
            (ForestParams(n_trees=30, seed=3), 1.0, 3, 2),
        ],
    )
    def test_matches_per_tree_oracle(self, params, noise, n_classes, p):
        rng = np.random.default_rng(60)
        n = 60
        y = np.arange(n) % n_classes
        values = np.column_stack([y + noise * rng.standard_normal(n), rng.standard_normal(n)])
        values = values[:, :p]
        labels = [f"c{v}" for v in y]
        model = train_forest(_matrix(values), labels, params)
        probe = np.vstack([values, rng.standard_normal((40, p)) * 2.0])
        self._assert_oracle_bits(model, probe)
        sizes = {t.n_nodes for t in model.trees}
        assert sizes == {3} if noise < 0.1 else max(sizes) > 3

    def test_single_leaf_trees(self):
        # Three rows, two of one class: some bootstraps are pure, so their
        # trees are a single leaf.
        values = np.asarray([[0.0], [1.0], [2.0]])
        model = train_forest(_matrix(values), ["a", "a", "b"], ForestParams(n_trees=40, seed=0))
        assert min(t.n_nodes for t in model.trees) == 1
        assert max(t.n_nodes for t in model.trees) > 1
        self._assert_oracle_bits(model, np.linspace(-1.0, 3.0, 17)[:, None])

    def test_all_zero_leaf(self):
        lines = list(_MODEL_LINES)
        lines[9] = "leaf 0.0 0.0"
        model = load_model(io.StringIO("\n".join(lines) + "\n"))
        got = self._assert_oracle_bits(model, np.asarray([[0.0], [1.0]]))
        assert got.tolist() == [[0.0, 0.0], [0.0, 1.0]]

    def test_row_shapes(self):
        matrix, labels = _separable(noise=0.6, seed=61)
        model = train_forest(matrix, labels, ForestParams(n_trees=25, seed=8))
        rng = np.random.default_rng(62)
        many = rng.standard_normal((675, 2))
        got = self._assert_oracle_bits(model, many)
        assert got.shape == (675, 2)
        one = self._assert_oracle_bits(model, many[:1])
        assert one.tobytes() == got[:1].tobytes()
        flat = self._assert_oracle_bits(model, many[0])
        assert flat.tobytes() == one.tobytes()
        none = self._assert_oracle_bits(model, np.zeros((0, 2)))
        assert none.shape == (0, 2)


class TestCrossValidate:
    def test_separable_ten_fold_is_perfect(self):
        matrix, labels = _separable(n=100, seed=10)
        report = cross_validate(matrix, labels, 10, ForestParams(n_trees=20, seed=1))
        assert report.mean_accuracy == 1.0
        assert len(report.fold_accuracies) == 10

    def test_mean_matches_folds(self):
        matrix, labels = _separable(n=40, noise=1.5, seed=11)
        report = cross_validate(matrix, labels, 5, ForestParams(n_trees=10, seed=1))
        assert report.mean_accuracy == pytest.approx(
            float(np.mean(report.fold_accuracies)), abs=1e-12
        )

    def test_group_folds_are_group_pure(self):
        matrix, labels = _separable(n=100, noise=1.0, seed=12)
        groups = [f"p{i // 20}" for i in range(100)]  # 5 persons, 20 rows each
        report = cross_validate(matrix, labels, 5, ForestParams(n_trees=5, seed=1), groups)
        fold = np.asarray(report.fold_assignment)
        for f in range(5):
            assert len({groups[i] for i in np.nonzero(fold == f)[0]}) == 1

    def test_group_train_test_disjoint(self):
        matrix, labels = _separable(n=60, seed=13)
        groups = [f"g{i % 6}" for i in range(60)]
        report = cross_validate(matrix, labels, 3, ForestParams(n_trees=5, seed=1), groups)
        fold = np.asarray(report.fold_assignment)
        for f in range(3):
            test_groups = {groups[i] for i in np.nonzero(fold == f)[0]}
            train_groups = {groups[i] for i in np.nonzero(fold != f)[0]}
            assert not (test_groups & train_groups)

    def test_needs_enough_groups(self):
        matrix, labels = _separable(n=20, seed=14)
        with pytest.raises(BadParameters):
            cross_validate(matrix, labels, 5, ForestParams(seed=0), groups=["g"] * 20)

    def test_k_bounds(self):
        matrix, labels = _separable(n=10, seed=15)
        with pytest.raises(BadParameters):
            cross_validate(matrix, labels, 11, ForestParams(seed=0))
        with pytest.raises(BadParameters):
            cross_validate(matrix, labels, 1, ForestParams(seed=0))

    def test_shuffled_labels_fall_to_chance(self):
        rng = np.random.default_rng(16)
        accs = []
        for seed in range(4):
            values = rng.standard_normal((80, 3))
            labels = list(rng.permutation(["a"] * 40 + ["b"] * 40))
            report = cross_validate(
                _matrix(values), labels, 5, ForestParams(n_trees=20, seed=seed)
            )
            accs.append(report.mean_accuracy)
        assert abs(float(np.mean(accs)) - 0.5) <= 0.15


def _alone(matrix, labels, rows, params):
    """``train_forest`` on a copy of *rows*, as a fold was trained before
    folds grew in one block."""
    sub = FeatureMatrix(matrix.feature_names, matrix.values[rows], np.arange(rows.size), None)
    return train_forest(sub, [labels[i] for i in rows], params)


def _model_bits(model):
    trees = [_tree_bits(t) for t in model.trees]
    return model.classes, trees, model.importances.dtype.str, model.importances.tobytes()


class TestBlocks:
    """The forests of one block equal ``train_forest`` on each forest's own
    rows or seed, while their inner nodes share split searches."""

    @pytest.mark.parametrize("grouped", [False, True])
    def test_fold_forests_match_sub_matrix_fits(self, monkeypatch, grouped):
        matrix, labels = _four_class(n=40, p=12, seed=21)
        if grouped:  # fold 0 holds every c3 row, so its training rows lack c3
            groups = ["p0" if v == "c3" else f"p{1 + i % 8}" for i, v in enumerate(labels)]
            fold = forest._group_folds(groups, 5)
        else:
            fold = forest._stratified_folds(labels, 5, 4)
        params = ForestParams(n_trees=15, seed=4)
        train = [(np.flatnonzero(fold != f), params.seed) for f in range(5)]
        calls = TestRootSearch._spy(monkeypatch)
        block = forest._grow(matrix, labels, train, params, lambda i, model: model)
        n_block = len(calls)
        alone = [_alone(matrix, labels, rows, params) for rows, _ in train]
        assert n_block < len(calls) - n_block  # forests shared searches
        assert [_model_bits(m) for m in block] == [_model_bits(m) for m in alone]
        assert len(block[0].classes) == (3 if grouped else 4)
        assert sum(t.n_nodes > 3 for m in block for t in m.trees) > 60

        label_arr = np.asarray(labels, dtype=object)
        accuracies = forest._fold_accuracies(matrix, label_arr, fold, params, range(5))
        want = []
        for f, model in enumerate(alone):
            test = fold == f
            predicted = np.asarray(predict_labels(model, matrix.values[test]), dtype=object)
            want.append(float(np.mean(predicted == label_arr[test])))
        assert accuracies == want

    def test_repeat_forests_match_single_fits(self, monkeypatch):
        matrix, labels = _four_class(n=40, p=12, seed=22)
        params = ForestParams(n_trees=15, seed=8)
        rows = np.arange(matrix.n_rows)
        seeds = [(rows, params.seed + r) for r in range(4)]
        calls = TestRootSearch._spy(monkeypatch)
        block = forest._grow(matrix, labels, seeds, params, lambda i, model: model)
        n_block = len(calls)
        alone = [train_forest(matrix, labels, replace(params, seed=seed)) for _, seed in seeds]
        assert n_block < len(calls) - n_block
        assert [_model_bits(m) for m in block] == [_model_bits(m) for m in alone]
        importances = forest._repeat_importances(matrix, labels, params, range(4))
        assert [a.tobytes() for a in importances] == [m.importances.tobytes() for m in alone]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fold_with_one_training_class_raises(self, workers):
        matrix, labels = _separable(n=20, seed=44)
        groups = ["p0" if v == "a" else "p1" for v in labels]  # fold 0 trains on b alone
        with pytest.raises(DegenerateTarget, match="at least 2 classes"):
            cross_validate(matrix, labels, 2, ForestParams(n_trees=5, seed=0), groups, workers)


class TestWorkers:
    """Folds and repeats fan out over a pool; results must not move."""

    @staticmethod
    def _data(data, n, seed):
        # Separable data grows stumps, which close in their forest's root
        # step; 4-class trees grow on in the lockstep the block shares.
        if data == "separable":
            return _separable(n=n, noise=1.5, seed=seed)
        return _four_class(n=n, p=8, seed=seed)

    @pytest.mark.parametrize("data", ["separable", "4-class"])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_cross_validate_across_workers(self, k, grouped, data):
        matrix, labels = self._data(data, 60, 40)
        groups = [f"p{i % 6}" for i in range(60)] if grouped else None
        params = ForestParams(n_trees=6, seed=3)
        reports = [
            cross_validate(matrix, labels, k, params, groups, workers=w) for w in (1, 2, 3)
        ]
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    @pytest.mark.parametrize("data", ["separable", "4-class"])
    @pytest.mark.parametrize("repeats", [1, 2, 5])
    def test_aggregate_importances_across_workers(self, repeats, data):
        matrix, labels = self._data(data, 50, 41)
        params = ForestParams(n_trees=6, seed=7)
        ranked = [
            aggregate_importances(matrix, labels, repeats, params, workers=w) for w in (1, 2, 3)
        ]
        assert ranked[1] == ranked[0]
        assert ranked[2] == ranked[0]

    @pytest.mark.parametrize("workers", [0, -3])
    @pytest.mark.parametrize("step", ["cross_validate", "aggregate_importances"])
    def test_worker_count_below_one_rejected_before_any_work(self, monkeypatch, step, workers):
        matrix, labels = _separable(n=20, seed=43)

        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(forest, "map_ranges", no_work)
        monkeypatch.setattr(forest, "_stratified_folds", no_work)
        with pytest.raises(BadParameters, match=f"workers must be >= 1, got {workers}"):
            if step == "cross_validate":
                cross_validate(matrix, labels, 2, ForestParams(seed=0), workers=workers)
            else:
                aggregate_importances(matrix, labels, 2, ForestParams(seed=0), workers=workers)

    def test_empty_fold_rejected_before_pool(self, monkeypatch):
        matrix, labels = _separable(n=20, seed=42)

        def no_pool(*args):
            raise AssertionError("pool started")

        monkeypatch.setattr(forest, "_stratified_folds", lambda lab, k, seed: np.zeros(20, int))
        monkeypatch.setattr(forest, "map_ranges", no_pool)
        with pytest.raises(BadParameters, match="fold 1 is empty"):
            cross_validate(matrix, labels, 2, ForestParams(seed=0), workers=2)


class TestAggregation:
    def test_single_repeat_equals_single_fit(self):
        matrix, labels = _separable(seed=17)
        params = ForestParams(n_trees=10, seed=9)
        ranked = aggregate_importances(matrix, labels, 1, params)
        single = train_forest(matrix, labels, params).importances
        by_name = {f.canonical(): v for f, v in ranked}
        for i, f in enumerate(matrix.feature_names):
            assert by_name[f.canonical()] == pytest.approx(float(single[i]), abs=1e-15)

    def test_informative_ranked_first_across_seeds(self):
        hits = 0
        for seed in range(10):
            matrix, labels = _separable(seed=seed, noise=0.2)
            ranked = aggregate_importances(
                matrix, labels, 5, ForestParams(n_trees=10, seed=seed)
            )
            if ranked[0][0].kind == "f000":
                hits += 1
        assert hits >= 9

    def test_rank_ties_break_by_name(self):
        rng = np.random.default_rng(18)
        values = rng.standard_normal((30, 4))
        labels = ["a", "b"] * 15
        ranked = aggregate_importances(
            _matrix(values), labels, 2, ForestParams(n_trees=5, seed=4)
        )
        keys = [(-imp, f.canonical()) for f, imp in ranked]
        assert keys == sorted(keys)

    def test_two_repeats_average_consecutive_seeds(self):
        matrix, labels = _separable(seed=23, noise=0.5)
        base = ForestParams(n_trees=8, seed=100)
        ranked = aggregate_importances(matrix, labels, 2, base)
        imp_a = train_forest(matrix, labels, ForestParams(n_trees=8, seed=100)).importances
        imp_b = train_forest(matrix, labels, ForestParams(n_trees=8, seed=101)).importances
        want = {f.canonical(): (a + b) / 2 for f, a, b in zip(matrix.feature_names, imp_a, imp_b)}
        for f, v in ranked:
            assert v == pytest.approx(want[f.canonical()], abs=1e-15)

    def test_top_k(self):
        matrix, labels = _separable(seed=19)
        ranked = aggregate_importances(matrix, labels, 1, ForestParams(n_trees=5, seed=0))
        assert top_k_features(ranked, 0) == []
        assert len(top_k_features(ranked, 2)) == 2
        assert top_k_features(ranked, 2) == [f for f, _ in ranked]
        with pytest.raises(BadParameters):
            top_k_features(ranked, 3)


class TestPersistence:
    def test_roundtrip_identical_predictions(self):
        matrix, labels = _separable(n=80, noise=0.7, seed=20)
        model = train_forest(matrix, labels, ForestParams(n_trees=25, seed=6))
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert back.classes == model.classes
        assert [f.canonical() for f in back.feature_names] == [
            f.canonical() for f in model.feature_names
        ]
        rng = np.random.default_rng(21)
        probe = rng.standard_normal((50, 2))
        assert np.array_equal(predict_proba(back, probe), predict_proba(model, probe))
        assert np.array_equal(back.importances, model.importances)

    def test_save_is_deterministic(self):
        matrix, labels = _separable(seed=22)
        model = train_forest(matrix, labels, ForestParams(n_trees=10, seed=7))
        a, b = io.StringIO(), io.StringIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()


def test_model_file_version_checked():
    from imufresh.errors import DataError

    with pytest.raises(DataError):
        load_model(io.StringIO("some-other-format v9\n"))


# One tree: a root split on feature 0 with two leaf children.
_MODEL_LINES = [
    "imufresh-forest v1", "classes 2", "a", "b", "features 1", "k__minimum 1.0",
    "trees 1", "tree 3", "split 0 0.5 1 2", "leaf 1.0 0.0", "leaf 0.0 1.0", "end",
]


def test_hand_written_model_loads():
    model = load_model(io.StringIO("\n".join(_MODEL_LINES) + "\n"))
    assert predict_labels(model, np.asarray([[0.0], [1.0]])) == ["a", "b"]


@pytest.mark.parametrize(
    "line, record",
    [
        (8, "split 0 0.5 0 2"),  # left child is the node itself
        (8, "split 0 0.5 1 0"),
        (8, "split 0 0.5 1 999"),
        (8, "split 0 0.5 -1 2"),
        (8, "split 1 0.5 1 2"),
        (8, "split -1 0.5 1 2"),
        (8, "split 0 nan 1 2"),
        (8, "split 0 inf 1 2"),
        (8, "split 0 0.5 1"),
        (9, "leaf -1.0 0.0"),
        (9, "leaf nan 0.0"),
        (10, "leaf 0.0 inf"),
        (9, ""),
        (8, "split 0 abc 1 2"),
        (9, "leaf 1.0 zz"),
        (1, "classes"),
        (1, "classes -1"),
        (5, "k__minimum abc"),
        (6, "trees"),
        (7, "tree x"),
        # Training writes each class once, in ascending order, and only
        # labels the labels reader accepts.
        (2, "b"),
        (2, "c"),
        (3, ""),
        (3, "b,c"),
        (3, 'b"'),
        (3, "b\x85"),
    ],
)
def test_corrupt_node_records_rejected(line, record):
    lines = list(_MODEL_LINES)
    lines[line] = record
    with pytest.raises(DataError):
        load_model(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize(
    "features",
    [["k__minimum 0.5", "k__maximum 0.5"], ["k__minimum 0.5", "k__minimum 0.5"]],
    ids=["swapped", "repeated"],
)
def test_feature_lines_out_of_canonical_order_rejected(features):
    # ``extract`` writes columns in ascending canonical order, which is the
    # column order the split records index.
    lines = [*_MODEL_LINES[:4], "features 2", *features, *_MODEL_LINES[6:]]
    with pytest.raises(DataError, match="unique and in ascending canonical order"):
        load_model(io.StringIO("\n".join(lines) + "\n"))
    in_order = [*_MODEL_LINES[:4], "features 2", "k__maximum 0.5", "k__minimum 0.5",
                *_MODEL_LINES[6:]]
    assert load_model(io.StringIO("\n".join(in_order) + "\n")).n_features == 2


@pytest.mark.parametrize(
    "importances", [["nan"], ["inf"], ["1.5", "-0.5"]], ids=["nan", "inf", "signed"]
)
def test_importances_that_are_not_finite_and_non_negative_rejected(importances):
    # A nan fails no comparison and a signed pair can sum to 1.
    names = ["k__minimum"] if len(importances) == 1 else ["k__maximum", "k__minimum"]
    features = [f"{name} {value}" for name, value in zip(names, importances)]
    lines = [*_MODEL_LINES[:4], f"features {len(features)}", *features, *_MODEL_LINES[6:]]
    with pytest.raises(DataError, match="finite and non-negative"):
        load_model(io.StringIO("\n".join(lines) + "\n"))


def test_model_without_trees_rejected():
    lines = _MODEL_LINES[:6] + ["trees 0", "end"]
    with pytest.raises(DataError, match="at least one tree"):
        load_model(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("count", ["4", "4000000000", "99999999999999999999"])
def test_node_count_beyond_the_records_is_truncated(count):
    # Records are read before arrays are built, so a count larger than the
    # file allocates nothing of its size.
    lines = [*_MODEL_LINES[:7], f"tree {count}", *_MODEL_LINES[8:-1]]
    with pytest.raises(DataError, match="model file truncated"):
        load_model(io.StringIO("\n".join(lines) + "\n"))


def test_tree_without_nodes_rejected():
    lines = _MODEL_LINES[:7] + ["tree 0", "end"]
    with pytest.raises(DataError):
        load_model(io.StringIO("\n".join(lines) + "\n"))
