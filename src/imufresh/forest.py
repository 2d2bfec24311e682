"""Random-forest classifier with Gini importances, built for reproducibility.

Trees are grown on bootstrap samples with per-node feature subsampling;
split thresholds are midpoints between consecutive distinct sorted values
(the lower value where the midpoint rounds to the upper one or overflows).
Every random draw is a pure function of (seed, tree, output index): a
counter-based stream built on SplitMix64's finaliser (Steele, Lea & Flood,
OOPSLA 2014), in the manner of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3" (SC 2011).  So models are pure functions of (data, params)
regardless of evaluation order, and depend on no numpy generator algorithm:
all forests of a block (one worker's CV folds or importance repeats) grow in
lockstep, drawing every tree's bootstrap or every node's features of a step
in one array operation and sharing split searches across trees and forests,
yet each tree equals the one grown alone.

Importances are impurity decreases weighted by node sample fraction, summed
per feature across the forest and normalized to 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from .calculators import decode_feature_name
from .errors import (
    BadParameters,
    DataError,
    DegenerateTarget,
    NaNInFeatures,
    ShapeMismatch,
)
from .extraction import FeatureMatrix
from .names import FeatureName
from .parallel import check_workers, map_ranges
from .timeseries import check_label, open_utf8, render_float

_SEED_MASK = (1 << 64) - 1
_CV_SALT = 0x5CF01D
_BLOCK_CELLS = 1 << 12
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, odd


@dataclass(frozen=True)
class ForestParams:
    """Forest size and seed.  Every tree grows on a bootstrap of the rows until
    its leaves are pure, sampling floor(sqrt(p)) of the p features per node."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise BadParameters(f"n_trees must be >= 1, got {self.n_trees}")


@dataclass(frozen=True)
class Tree:
    """Flat array representation; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # (n_nodes, n_classes) leaf class counts

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]


@dataclass(eq=False)
class ForestModel:
    """Trained ensemble with per-feature Gini importances."""

    trees: tuple[Tree, ...]
    classes: tuple[str, ...]
    feature_names: tuple[FeatureName, ...]
    importances: np.ndarray

    def __post_init__(self) -> None:
        if not self.trees:
            raise DataError("a model needs at least one tree")
        self.importances = np.asarray(self.importances, dtype=np.float64)
        if self.importances.shape != (len(self.feature_names),):
            raise DataError("importances must have one entry per feature")
        if not (np.isfinite(self.importances) & (self.importances >= 0)).all():
            raise DataError("importances must be finite and non-negative")
        total = float(self.importances.sum())
        if total > 0 and abs(total - 1.0) > 1e-9:
            raise DataError(f"importances must sum to 1, got {total}")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


# ---------------------------------------------------------------------------
# Tree growing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _boundary_sizes(n_node: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows left and right of each boundary, shaped (2, 1, 1,
    bounds), and their squares."""
    n_left = np.arange(1, n_node)
    sizes = np.stack([n_left, n_node - n_left])[:, None, None, :]
    squares = sizes * sizes
    for a in (sizes, squares):
        a.flags.writeable = False
    return sizes, squares


def _best_split(
    x_cols: np.ndarray, y: np.ndarray, idx: np.ndarray, sizes: np.ndarray,
    counts: np.ndarray, feats: np.ndarray, n_classes: int,
) -> tuple[np.ndarray, ...]:
    """Each of B nodes' gain (a split only where > 0), feature, threshold,
    boundary b and rows in the winning column's order, the first b + 1 its
    left child's: node i holds rows ``idx[i, :sizes[i]]`` (any rows pad the
    rest), class ``counts[i]`` and sampled ``feats[i]``.

    Nodes are scored largest first, in passes of ``_BLOCK_CELLS`` cells of
    the ``(B, mtry, width)`` block, or of one node.  A pass pads each node to
    its largest with +inf, which sorts last, masks the boundaries at or past
    its last row and divides by its own sizes, so every boundary is scored
    from the integer operands it has alone.  One argsort of the block (sorted
    in place for its values) and running counts of every class but the last
    score every boundary between distinct sorted values.  A node's pick is
    its first maximum in sampled-feature order with thresholds ascending.
    The sort need not be stable: rows tied on a value only reorder counts at
    boundaries inside the tie, which are never candidates, so the children
    (the winning column's sort cut at the boundary) are exactly the rows at
    or below and above the threshold.
    """
    n_nodes, mtry = feats.shape
    gain, threshold = np.empty((2, n_nodes))
    feature, bound = np.empty((2, n_nodes), dtype=np.int64)
    rows = np.zeros_like(idx)
    by_size, lo = np.argsort(-sizes, kind="stable"), 0
    while lo < n_nodes:
        width = int(sizes[by_size[lo]])
        at = by_size[lo : lo + (_BLOCK_CELLS // (mtry * width) or 1)]
        lo += at.size
        n, cnt, fs, ix = sizes[at], counts[at], feats[at], idx[at, :width]
        end = width - 1  # the candidate boundaries
        block = x_cols[ix[:, None, :], fs[:, :, None]]  # (B, mtry, width)
        n_left = np.arange(1, width)
        past = n_left >= n[:, None, None]  # boundary b has b + 1 rows left
        if n[-1] < width:
            np.copyto(block[..., 1:], np.inf, where=past)
            side_n = np.stack(np.broadcast_arrays(n_left, np.maximum(n[:, None] - n_left, 1)))
            side_n = side_n[:, :, None, :]
            side_sq = side_n * side_n
        else:
            side_n, side_sq = _boundary_sizes(width)
        order = block.argsort(axis=2)
        block.sort(axis=2)
        if at.size > 1:  # each node's sort, offset into ix.ravel()
            order += (width * np.arange(at.size))[:, None, None]
        flat = ix.ravel()
        # Class counts left (side 0) and right (side 1) of each boundary, and
        # the sums of their squares, in exact integer arithmetic: int32
        # squares are exact up to 46,340 rows, and are taken in place.
        onehot = y[flat][order[:, :, :end]] == np.arange(n_classes - 1)[:, None, None, None]
        c = np.empty((2, *onehot.shape), dtype=np.int32 if width <= 46340 else np.int64)
        onehot.cumsum(axis=3, dtype=c.dtype, out=c[0])
        np.subtract(cnt.T[:-1, :, None, None].astype(c.dtype), c[0], out=c[1])
        rest = side_n - c.sum(axis=1)  # the last class
        rest *= rest
        c *= c
        rest += c.sum(axis=1)
        del c, onehot  # the pass's largest blocks, before its float ones
        side = side_n * (1.0 - rest / side_sq)
        gini = 1.0 - (cnt * cnt).sum(axis=1) / (n * n)
        score = gini[:, None, None] - (side[0] + side[1]) / n[:, None, None]
        np.putmask(score, (block[..., :end] == block[..., 1:]) | past, -np.inf)
        f_pos, b = np.divmod(score.reshape(at.size, -1).argmax(axis=1), end)
        r = np.arange(at.size)
        v_lo, v_hi = block[r, f_pos, b], block[r, f_pos, b + 1]
        with np.errstate(over="ignore"):
            mid = (v_lo + v_hi) / 2.0
        # Adjacent floats, or a sum that overflows: split at lo.
        threshold[at] = np.where(mid >= v_hi, v_lo, mid)
        gain[at], feature[at], bound[at] = score[r, f_pos, b], fs[r, f_pos], b
        rows[at, :width] = flat[order[r, f_pos]]
        del block, order, rest, side, score  # before the next pass's
    return gain, feature, threshold, bound, rows


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection of uint64, applied to *z* in place."""
    with np.errstate(over="ignore"):
        z ^= z >> 30
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
    return z


def _stream_starts(seed: int, n_trees: int) -> np.ndarray:
    """Tree t's stream start ``mix(S + (t + 1) * gamma)``, S the seed's low
    64 bits, for every tree of a forest."""
    with np.errstate(over="ignore"):
        z = np.arange(1, n_trees + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(seed & _SEED_MASK)
    return _mix(z)


def _draws(
    starts: np.ndarray, first: np.ndarray | int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``(len(starts), count)`` outputs ``first`` to ``first + count - 1`` of
    the streams at *starts*, in *out* if given: output i of the stream at s
    is ``mix(s + (i + 1) * gamma)``, all mod 2**64."""
    with np.errstate(over="ignore"):
        base = (np.asarray(first, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
        base += starts
        z = np.arange(count, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z = np.add(base[:, None], z, out=out)
    return _mix(z)


def _sample_features(
    starts: np.ndarray, first: np.ndarray | int, mtry: int, keys: np.ndarray
) -> np.ndarray:
    """Each node's ``mtry`` features: of the p keys ``first .. first + p - 1``
    of its tree's stream, one per feature and computed into the
    ``(len(starts), p)`` block *keys*, the smallest, in ascending key order
    (the split search's tie order)."""
    _draws(starts, first, keys.shape[1], out=keys)
    picked = np.argpartition(keys, mtry - 1, axis=1)[:, :mtry]
    order = np.take_along_axis(keys, picked, axis=1).argsort(axis=1)
    return np.take_along_axis(picked, order, axis=1)


class _Growing:
    """A forest until its last tree closes, as arrays with one row per tree:
    node arrays; bootstrap rows (a node's are a run, sorted by its split's
    column); stream starts; node and searched counts; a stack of ``(start,
    stop, node id)`` and its height; each searched node's split feature (-1
    if none) and weighted gain, by DFS search index k."""

    def __init__(self, index, boots, present, starts, root_counts) -> None:
        # Copies of a row never part, so a tree on d distinct rows has at most
        # d leaves and 2d - 1 nodes.  A searched node holds two classes, so two
        # distinct rows: at most d - 1 are searched, d // 2 stacked (disjoint).
        d = 1 + int(np.count_nonzero(np.diff(np.sort(boots, axis=1), axis=1), axis=1).max())
        n_trees, self.n = len(starts), boots.shape[1]
        shape = (n_trees, 2 * d - 1)
        self.index, self.present, self.starts, self.rows = index, present, starts, boots
        self.feature, self.left, self.right = np.full((3, *shape), -1, dtype=np.int32)
        self.threshold = np.zeros(shape, dtype=np.float64)
        self.counts = np.zeros((*shape, root_counts.shape[1]), dtype=np.int32)
        self.counts[:, 0] = root_counts
        self.split_feature = np.full((n_trees, d - 1), -1, dtype=np.int32)
        self.split_gain = np.zeros((n_trees, d - 1), dtype=np.float64)
        self.n_nodes, self.searched = np.ones(n_trees, np.int64), np.zeros(n_trees, np.int64)
        # A splittable root is the stack's first entry, searched as k = 0.
        self.stack = np.zeros((n_trees, max(1, d // 2), 3), dtype=np.int32)
        self.stack[:, 0] = (0, self.n, 0)
        self.height = (np.count_nonzero(root_counts, axis=1) > 1).astype(np.int64)


def _grow(
    matrix: FeatureMatrix, labels: Sequence[str], forests: Sequence[tuple[np.ndarray, int]],
    params: ForestParams, finish: Callable[[int, ForestModel], Any] | None = None,
) -> list:
    """Grow one forest per ``(rows, seed)`` of *forests* on those rows; return
    each one's ``finish(i, model)``, or its importances, in forest order.

    Tree t of a forest of n rows, p features and seed S draws from its
    stream ``mix(S + (t + 1) * gamma)`` (``_stream_starts``): bootstrap slot
    j takes row ``u(j) mod n`` of the stream's outputs u, and its k-th
    searched node in DFS order (the root is k = 0) the ``mtry`` features
    with the smallest keys ``u(n + k * p + f)``.  Forest by forest, one
    array operation draws every tree's bootstrap, and its splittable roots,
    each its tree's first stack entry, take one step alone.  The open trees
    of all forests then grow in lockstep.  In a step every tree with work
    pops its next node in DFS order, one array operation draws all these
    nodes' features and one split search scores them, whatever their sizes;
    each forest records the splits, children's class counts and gains, and
    stacks the children that hold two classes (right, then left), with one
    masked assignment per array.  So each forest equals the one grown alone
    on a copy of its rows, with the classes those rows hold (another class
    adds zeros to the exact Gini sums) and importances summed in tree order
    and each tree's DFS order.
    """
    x = matrix.values
    label_list = [str(v) for v in labels]
    if len(label_list) != matrix.n_rows:
        raise BadParameters("labels length must equal the number of rows")
    classes = tuple(sorted(set(label_list)))
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.asarray([class_index[v] for v in label_list], dtype=np.int64)
    p, n_classes, finite = x.shape[1], len(classes), np.isfinite(x).all(axis=1)
    if p < 1:
        raise BadParameters("training needs at least one feature column")
    mtry = max(1, int(math.sqrt(p)))
    results: list = [None] * len(forests)
    key_block = np.empty((0, p), dtype=np.uint64)

    def close(g: _Growing) -> None:
        # Gains are summed in tree order and each tree's DFS order, as
        # bincount adds its weights one after another.
        m = g.split_feature >= 0
        acc = np.bincount(g.split_feature[m], weights=g.split_gain[m], minlength=p)
        total = float(acc.sum())
        results[g.index] = importances = acc / total if total > 0 else acc
        if finish is not None:  # each tree's nodes are a view of the forest's
            kept = np.arange(g.feature.shape[1]) < g.n_nodes[:, None]
            cut = np.cumsum(g.n_nodes)[:-1]
            nodes = (np.split(a[kept], cut) for a in (g.feature, g.threshold, g.left, g.right))
            counts = np.split(g.counts[kept][:, g.present].astype(np.float64), cut)
            results[g.index] = finish(g.index, ForestModel(
                tuple(map(Tree, *nodes, counts)), tuple(classes[c] for c in g.present),
                matrix.feature_names, importances))

    def grow_step(step: list[_Growing]) -> list[_Growing]:
        # Every open tree of the step's forests pops its next node, one split
        # search scores them all, and each forest records its splits and
        # stacks their children; return the forests still open.
        nonlocal key_block
        pops = []
        for g in step:
            t = np.flatnonzero(g.height)
            g.height[t] -= 1
            pops.append((t, *g.stack[t, g.height[t]].T.astype(np.int64), g.searched[t]))
            g.searched[t] += 1
        sizes = np.concatenate([b - a for _, a, b, *_ in pops])
        cols = np.arange(sizes.max())
        # Each forest's stream starts, first keys, rows padded to cols (any
        # rows past a node's run) and class counts, in int64 to be squared.
        starts, first, idx, counts = map(np.concatenate, zip(*(
            (g.starts[t], g.n + k * p, g.rows.take((t * g.n + a)[:, None] + cols, mode="clip"),
             g.counts[t, nid].astype(np.int64)) for g, (t, a, _, nid, k) in zip(step, pops))))
        # One key block, grown as needed and reused: a new one per step measured slower.
        if len(key_block) < len(sizes):
            key_block = np.empty((len(sizes), p), dtype=np.uint64)
        feats = _sample_features(starts, first, mtry, key_block[: len(sizes)])
        gain, feature, threshold, bound, win = _best_split(
            x, y, idx, sizes, counts, feats, n_classes)
        # The left child's rows are the winning ones at or below the boundary.
        keys = n_classes * np.arange(len(sizes))[:, None] + y[win]
        left = np.bincount(keys[cols <= bound[:, None]], minlength=counts.size)
        sides = np.stack([left, counts.ravel() - left]).reshape(2, *counts.shape)
        two = np.count_nonzero(sides, axis=2) > 1  # each child holds two classes
        lo = 0
        for g, node in zip(step, pops):
            at = np.flatnonzero(gain[lo : lo + len(node[0])] > 0.0)  # the splits
            s, lo = lo + at, lo + len(node[0])
            t, a, b, nid, k = (v[at] for v in node)
            child = g.n_nodes[t]
            g.n_nodes[t] += 2
            g.feature[t, nid], g.threshold[t, nid] = feature[s], threshold[s]
            g.left[t, nid], g.right[t, nid] = child, child + 1
            g.counts[t, child], g.counts[t, child + 1] = sides[:, s]
            g.split_feature[t, k], g.split_gain[t, k] = feature[s], (b - a) / g.n * gain[s]
            keep = cols < sizes[s, None]
            g.rows.reshape(-1)[((t * g.n + a)[:, None] + cols)[keep]] = win[s][keep]
            cut, height = a + bound[s] + 1, g.height[t]
            for push, entry in ((two[1, s], (cut, b, child + 1)), (two[0, s], (a, cut, child))):
                g.stack[t[push], height[push]] = np.stack(entry, axis=1)[push]
                height += push
            g.height[t] = height
            if not g.height.any():  # its last tree is closed
                close(g)
        return [g for g in step if g.height.any()]

    step: list[_Growing] = []
    for i, (rows, seed) in enumerate(forests):
        if not finite[rows].all():
            raise NaNInFeatures(
                "feature matrix has NaN or infinite cells; drop those columns first")
        present = np.flatnonzero(np.bincount(y[rows], minlength=n_classes))
        if present.size < 2:
            raise DegenerateTarget("training requires at least 2 classes")
        n = rows.size
        starts = _stream_starts(seed, params.n_trees)
        boots = rows[_draws(starts, 0, n) % np.uint64(n)]
        root_counts = (y[boots][:, :, None] == np.arange(n_classes)).sum(axis=1)
        g = _Growing(i, boots, present, starts, root_counts)
        if g.height.any():  # its splittable roots share one search
            step += grow_step([g])
        else:
            close(g)
    while step:
        step = grow_step(step)
    return results


def train_forest(
    matrix: FeatureMatrix, labels: Sequence[str], params: ForestParams
) -> ForestModel:
    """Fit the ensemble on every row (``_grow`` with one forest); deterministic
    for a fixed params.seed."""
    forest = (np.arange(matrix.n_rows), params.seed)
    return _grow(matrix, labels, [forest], params, lambda i, model: model)[0]


def predict_proba(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """(n_rows, n_classes) probabilities: tree-averaged leaf frequencies,
    summed in tree order after every row walks all trees at once."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != model.n_features:
        raise ShapeMismatch(
            f"rows have width {rows.shape[1]}, model expects {model.n_features}"
        )
    trees = model.trees
    n_rows = rows.shape[0]
    offsets = np.cumsum([0] + [tree.n_nodes for tree in trees[:-1]])
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left + off for tree, off in zip(trees, offsets)])
    right = np.concatenate([tree.right + off for tree, off in zip(trees, offsets)])
    counts = np.concatenate([tree.counts for tree in trees])
    totals = counts.sum(axis=1, keepdims=True)
    probs = counts / np.where(totals > 0, totals, 1.0)

    node = np.repeat(offsets, n_rows)  # (n_trees, n_rows) node ids, flat
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        go_left = rows[active % n_rows, feature[at]] <= threshold[at]
        at = np.where(go_left, left[at], right[at])
        node[active] = at
        active = active[feature[at] >= 0]
    out = np.zeros((n_rows, len(model.classes)), dtype=np.float64)
    for leaves in node.reshape(len(trees), n_rows):
        out += probs[leaves]
    return out / len(trees)


def predict_labels(model: ForestModel, rows: np.ndarray) -> list[str]:
    probs = predict_proba(model, rows)
    return [model.classes[i] for i in np.argmax(probs, axis=1)]


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CVReport:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    fold_assignment: tuple[int, ...]


def _stratified_folds(labels: list[str], k: int, seed: int) -> np.ndarray:
    """Seeded stratified assignment: shuffle within class, deal round-robin
    with a running offset so folds stay as even as possible."""
    rng = np.random.default_rng((seed & _SEED_MASK, _CV_SALT))
    fold = np.empty(len(labels), dtype=np.int64)
    assigned = 0
    arr = np.asarray(labels, dtype=object)
    for cls in sorted(set(labels)):
        idx = np.nonzero(arr == cls)[0]
        rng.shuffle(idx)
        fold[idx] = (assigned + np.arange(idx.size)) % k
        assigned += idx.size
    return fold


def _group_folds(groups: Sequence, k: int) -> np.ndarray:
    ids = [str(g) for g in groups]
    distinct = sorted(set(ids))
    if len(distinct) < k:
        raise BadParameters(f"group CV with k={k} needs >= k distinct groups, got {len(distinct)}")
    to_fold = {g: i % k for i, g in enumerate(distinct)}
    return np.asarray([to_fold[g] for g in ids], dtype=np.int64)


def _fold_accuracies(
    matrix: FeatureMatrix, label_arr: np.ndarray, fold: np.ndarray, params: ForestParams,
    folds: range,
) -> list[float]:
    """Test accuracy of the forest trained without each fold in *folds*, one
    block of forests on training rows; *fold* holds each row's fold number."""

    def accuracy(i: int, model: ForestModel) -> float:
        test = fold == folds[i]
        predicted = predict_labels(model, matrix.values[test])
        return float(np.mean(np.asarray(predicted, dtype=object) == label_arr[test]))

    train = [(np.flatnonzero(fold != f), params.seed) for f in folds]
    return _grow(matrix, label_arr, train, params, accuracy)


def cross_validate(
    matrix: FeatureMatrix,
    labels: Sequence[str],
    k: int,
    params: ForestParams,
    groups: Sequence | None = None,
    workers: int = 1,
) -> CVReport:
    """k-fold accuracy; stratified by label, or group-pure when groups given.

    With groups, each distinct group id lands wholly in one fold
    (round-robin over groups sorted by id), so every fold's test rows come
    from complete groups only.  The folds' forests grow in one lockstep
    block; ``workers`` > 1 splits them into one block per process, the
    calling one included, and the report does not depend on it.
    ``workers`` < 1 raises BadParameters.
    """
    check_workers(workers)
    n = matrix.n_rows
    label_list = [str(v) for v in labels]
    if len(label_list) != n:
        raise BadParameters("labels length must equal the number of rows")
    if k < 2 or k > n:
        raise BadParameters(f"k must be in [2, {n}], got {k}")
    if groups is not None:
        if len(groups) != n:
            raise BadParameters("groups length must equal the number of rows")
        fold = _group_folds(groups, k)
    else:
        fold = _stratified_folds(label_list, k, params.seed)

    # Checked before any process starts.  With k >= 2 non-empty folds, every
    # training set is non-empty too.
    sizes = np.bincount(fold, minlength=k)
    if not sizes.all():
        raise BadParameters(f"fold {int(np.argmin(sizes))} is empty; reduce k")

    label_arr = np.asarray(label_list, dtype=object)
    blocks = map_ranges(_fold_accuracies, (matrix, label_arr, fold, params), k, workers)
    accuracies = [acc for block in blocks for acc in block]
    return CVReport(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        fold_assignment=tuple(int(v) for v in fold),
    )


# ---------------------------------------------------------------------------
# Importance aggregation
# ---------------------------------------------------------------------------

def _repeat_importances(
    matrix: FeatureMatrix, labels: Sequence[str], params: ForestParams, repeats: range
) -> list[np.ndarray]:
    """Importances of the forests seeded ``params.seed + r`` for r in
    *repeats*, grown in one block on every row."""
    rows = np.arange(matrix.n_rows)
    return _grow(matrix, labels, [(rows, params.seed + r) for r in repeats], params)


def aggregate_importances(
    matrix: FeatureMatrix,
    labels: Sequence[str],
    repeats: int,
    params: ForestParams,
    workers: int = 1,
) -> list[tuple[FeatureName, float]]:
    """Average importances over `repeats` forests seeded seed+0..seed+r-1.

    Returns (feature, mean importance) sorted descending, ties broken by
    canonical feature name so rankings are reproducible.  The repeats grow
    in one lockstep block, each keeping only its importances; ``workers`` > 1
    splits them into one block per process, the calling one included, and the
    forests, their sum (taken in repeat order) and the ranking do not depend
    on it.
    ``workers`` < 1 raises BadParameters.
    """
    check_workers(workers)
    if repeats < 1:
        raise BadParameters(f"repeats must be >= 1, got {repeats}")
    acc = np.zeros(matrix.n_cols, dtype=np.float64)
    for block in map_ranges(_repeat_importances, (matrix, labels, params), repeats, workers):
        for importances in block:
            acc += importances
    mean = acc / repeats
    # Columns are in canonical-name order, so a stable sort breaks ties by name.
    order = np.argsort(-mean, kind="stable")
    return [(matrix.feature_names[i], float(mean[i])) for i in order]


def top_k_features(
    ranked: Sequence[tuple[FeatureName, float]], k: int
) -> list[FeatureName]:
    """First k names of an importance ranking."""
    if k < 0 or k > len(ranked):
        raise BadParameters(f"k must be in [0, {len(ranked)}], got {k}")
    return [name for name, _ in ranked[:k]]


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

_MODEL_MAGIC = "imufresh-forest v1"


def save_model(model: ForestModel, stream: TextIO) -> None:
    """Self-describing text dump; load(save(m)) predicts identically.

    Grammar: header, class lines, ``<name> <importance>`` feature lines
    in ascending canonical order (``load_model`` refuses any other), then
    per tree one ``tree <n_nodes>`` line followed by node records
    ``split <feature_idx> <threshold> <left> <right>`` or
    ``leaf <count_per_class...>`` in node-id order.
    """
    stream.write(_MODEL_MAGIC + "\n")
    stream.write(f"classes {len(model.classes)}\n")
    for cls in model.classes:
        stream.write(cls + "\n")
    stream.write(f"features {model.n_features}\n")
    for name, imp in zip(model.feature_names, model.importances):
        stream.write(f"{name.canonical()} {render_float(imp)}\n")
    stream.write(f"trees {len(model.trees)}\n")
    for tree in model.trees:
        stream.write(f"tree {tree.n_nodes}\n")
        for i in range(tree.n_nodes):
            if tree.feature[i] >= 0:
                stream.write(
                    f"split {int(tree.feature[i])} {render_float(tree.threshold[i])} "
                    f"{int(tree.left[i])} {int(tree.right[i])}\n"
                )
            else:
                counts = " ".join(render_float(c) for c in tree.counts[i])
                stream.write(f"leaf {counts}\n")
    stream.write("end\n")


def save_model_file(model: ForestModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_model(model, fh)


def _token(parse: Callable[[str], Any], parts: Sequence[str], i: int, what: str) -> Any:
    """``parse(parts[i])``; a missing or malformed token is a DataError."""
    try:
        return parse(parts[i])
    except (IndexError, ValueError):
        raise DataError(f"model file: missing or malformed {what}") from None


def load_model(stream: TextIO) -> ForestModel:
    def next_line() -> str:
        line = stream.readline()
        if not line:
            raise DataError("model file truncated")
        return line.rstrip("\n")

    if next_line() != _MODEL_MAGIC:
        raise DataError(f"not a model file (expected {_MODEL_MAGIC!r})")
    header = next_line().split()
    if header[:1] != ["classes"]:
        raise DataError("model file: expected classes header")
    n_classes = _token(int, header, 1, "class count")
    if n_classes < 1:
        raise DataError("model file: a model needs at least one class")
    classes = tuple(check_label(next_line(), "model file: class") for _ in range(n_classes))
    if any(a >= b for a, b in zip(classes, classes[1:])):
        raise DataError("model file: class lines must be unique and in ascending order")
    header = next_line().split()
    if header[:1] != ["features"]:
        raise DataError("model file: expected features header")
    n_features = _token(int, header, 1, "feature count")
    names: list[FeatureName] = []
    importances: list[float] = []
    for _ in range(n_features):
        parts = next_line().rsplit(" ", 1)
        names.append(decode_feature_name(parts[0]))
        importances.append(_token(float, parts, 1, "feature importance"))
    # Split records index the columns ``extract`` makes, in this order.
    canonical = [name.canonical() for name in names]
    if any(a >= b for a, b in zip(canonical, canonical[1:])):
        raise DataError("model file: feature lines must be unique and in ascending canonical order")
    header = next_line().split()
    if header[:1] != ["trees"]:
        raise DataError("model file: expected trees header")
    n_trees = _token(int, header, 1, "tree count")
    trees: list[Tree] = []
    for _ in range(n_trees):
        header = next_line().split()
        if header[:1] != ["tree"]:
            raise DataError("model file: expected tree header")
        n_nodes = _token(int, header, 1, "node count")
        if n_nodes < 1:
            raise DataError("model file: a tree needs at least one node")
        # Records are read before any array is built, so memory is bounded
        # by the file, whatever node count the header claims.
        nodes, no_counts = [], [0.0] * n_classes  # (feature, threshold, left, right, counts)
        for i in range(n_nodes):
            parts = next_line().split()
            record = parts[0] if parts else ""
            if record == "split":
                if len(parts) != 5:
                    raise DataError("model file: split record has wrong arity")
                f, lo, hi = (_token(int, parts, j, "split index") for j in (1, 3, 4))
                thr = _token(float, parts, 2, "split threshold")
                if not 0 <= f < n_features:
                    raise DataError("model file: split feature index out of range")
                if not math.isfinite(thr):
                    raise DataError("model file: split threshold is not finite")
                # Children are appended after their parent, so a child index
                # at or before its node would make prediction loop forever.
                if not (i < lo < n_nodes and i < hi < n_nodes):
                    raise DataError("model file: split child index out of range")
                nodes.append((f, thr, lo, hi, no_counts))
            elif record == "leaf":
                if len(parts) != 1 + n_classes:
                    raise DataError("model file: leaf record has wrong arity")
                leaf = [_token(float, parts, j, "leaf count") for j in range(1, len(parts))]
                if not all(math.isfinite(c) and c >= 0 for c in leaf):
                    raise DataError("model file: leaf counts must be finite and non-negative")
                nodes.append((-1, 0.0, -1, -1, leaf))
            else:
                raise DataError(f"model file: unknown node record {record!r}")
        feature, threshold, left, right, counts = zip(*nodes)
        trees.append(Tree(
            np.array(feature, dtype=np.int32), np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
            np.array(counts, dtype=np.float64)))
    if next_line() != "end":
        raise DataError("model file: missing end marker")
    return ForestModel(
        trees=tuple(trees),
        classes=classes,
        feature_names=tuple(names),
        importances=np.asarray(importances, dtype=np.float64),
    )


def load_model_file(path: str) -> ForestModel:
    with open_utf8(path, "model file") as fh:
        return load_model(fh)
