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
from .timeseries import open_utf8, render_float

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
    x_cols: np.ndarray, y: np.ndarray, idx: np.ndarray, counts: np.ndarray,
    feats: np.ndarray, n_classes: int,
) -> list:
    """Best (gain, feature, threshold, left rows, right rows), or None, for
    each of B nodes of n_node rows: ``idx`` (B, n_node), ``counts``
    (B, n_classes) and sampled ``feats`` (B, mtry).

    One argsort of the ``(B, mtry, n_node)`` block (sorted in place for its
    values) and running counts of every class but the last score every
    boundary between distinct sorted values.  A node's pick is its first
    maximum in sampled-feature order with thresholds ascending, taken only
    if its gain is > 0.  The sort need not be stable: rows tied on a value
    only reorder counts at boundaries inside the tie, which are never
    candidates, so the children (the winning column's sort cut at the
    boundary) are exactly the rows at or below and above the threshold.
    ``_BLOCK_CELLS`` bounds the block of one pass.
    """
    n_nodes, n_node = idx.shape
    end = n_node - 1  # the candidate boundaries
    sizes, sizes_sq = _boundary_sizes(n_node)
    out = []
    step = _BLOCK_CELLS // (feats.shape[1] * n_node) or 1
    for lo in range(0, n_nodes, step):
        ix, cnt, fs = idx[lo : lo + step], counts[lo : lo + step], feats[lo : lo + step]
        block = x_cols[ix[:, None, :], fs[:, :, None]]  # (B, mtry, n_node)
        order = block.argsort(axis=2)
        block.sort(axis=2)
        if len(ix) > 1:  # each node's sort, offset into ix.ravel()
            order += (n_node * np.arange(len(ix)))[:, None, None]
        flat = ix.ravel()
        # Class counts left (side 0) and right (side 1) of each boundary,
        # and the sums of their squares, in exact integer arithmetic.
        onehot = y[flat][order[:, :, :end]] == np.arange(n_classes - 1)[:, None, None, None]
        c = np.empty((2, *onehot.shape), dtype=np.int64)
        onehot.cumsum(axis=3, out=c[0])
        np.subtract(cnt.T[:-1, :, None, None].astype(np.int64), c[0], out=c[1])
        rest = sizes - c.sum(axis=1)  # the last class
        side = sizes * (1.0 - ((c * c).sum(axis=1) + rest * rest) / sizes_sq)
        gini = 1.0 - (cnt * cnt).sum(axis=1) / (n_node * n_node)
        gain = gini[:, None, None] - (side[0] + side[1]) / n_node
        np.putmask(gain, block[..., :end] == block[..., 1:], -np.inf)
        picks = gain.reshape(len(ix), -1).argmax(axis=1)
        for node, pick in enumerate(picks.tolist()):
            f_pos, b = divmod(pick, end)
            best = float(gain[node, f_pos, b])
            if best <= 0.0:
                out.append(None)
                continue
            v_lo, v_hi = block[node, f_pos, b], block[node, f_pos, b + 1]
            thr = (v_lo + v_hi) / 2.0
            if thr >= v_hi:  # adjacent floats, or a sum that overflows: split at lo
                thr = v_lo
            rows = flat[order[node, f_pos]]
            out.append((best, int(fs[node, f_pos]), float(thr), rows[: b + 1], rows[b + 1 :]))
    return out


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
    """A forest until its last tree closes: node arrays, and each tree's
    stream start, searched-node count, stack and gains."""

    def __init__(self, index, boots, present, starts, root_counts) -> None:
        # Copies of a row never part, so a tree on d distinct rows has at most
        # d leaves and 2d - 1 nodes.
        distinct = 1 + np.count_nonzero(np.diff(np.sort(boots, axis=1), axis=1), axis=1).max()
        shape = (len(starts), 2 * int(distinct) - 1)
        self.index, self.n, self.present, self.starts = index, boots.shape[1], present, starts
        self.feature, self.left, self.right = np.full((3, *shape), -1, dtype=np.int32)
        self.threshold = np.zeros(shape, dtype=np.float64)
        self.counts = np.zeros((*shape, root_counts.shape[1]), dtype=np.int32)
        self.counts[:, 0] = root_counts
        self.n_nodes = [1] * len(starts)
        # Nodes searched so far: a splittable root is, before the lockstep.
        self.searched = (np.count_nonzero(root_counts, axis=1) > 1).astype(int).tolist()
        self.open = sum(self.searched)
        self.stacks, self.gains = [[] for _ in starts], [[] for _ in starts]


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
    array operation draws every tree's bootstrap and another its splittable
    roots' features, and these roots share one search.  The open trees of
    all forests then grow in lockstep: in each step every tree with work
    pops its stack to its next node that needs a search, one array
    operation draws all these nodes' features, and one search per node size
    scores them.  So each forest equals the one grown alone on a copy of
    its rows, with the classes those rows hold (another class adds zeros to
    the exact Gini sums) and importances summed in tree order and each
    tree's DFS order.
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

    def sample_features(starts: np.ndarray, first: np.ndarray | int) -> np.ndarray:
        # Every draw's keys go into one block, grown as needed and reused:
        # a new block in each step measured slower.
        nonlocal key_block
        if len(key_block) < len(starts):
            key_block = np.empty((len(starts), p), dtype=np.uint64)
        return _sample_features(starts, first, mtry, key_block[: len(starts)])

    def close(g: _Growing) -> None:
        acc = np.zeros(p, dtype=np.float64)
        for f, weighted in (gain for tree_gains in g.gains for gain in tree_gains):
            acc[f] += weighted
        total = float(acc.sum())
        results[g.index] = importances = acc / total if total > 0 else acc
        if finish is not None:
            trees = tuple(
                Tree(*(a[t, :k].copy() for a in (g.feature, g.threshold, g.left, g.right)),
                     g.counts[t, :k][:, g.present].astype(np.float64))
                for t, k in enumerate(g.n_nodes)
            )
            results[g.index] = finish(g.index, ForestModel(
                trees, tuple(classes[c] for c in g.present), matrix.feature_names, importances))

    def advance(searched: list, found: list) -> list:
        # Each searched node's split, then each of those trees' next node.
        for (g, t, idx, nid), split in zip(searched, found):
            if split is None:
                continue
            gain, f, thr, rows_left, rows_right = split
            g.gains[t].append((f, (idx.size / g.n) * gain))
            i = g.n_nodes[t]
            g.feature[t, nid], g.threshold[t, nid] = f, thr
            g.left[t, nid], g.right[t, nid] = i, i + 1
            g.stacks[t] += [(rows_right, i + 1), (rows_left, i)]
            g.n_nodes[t] = i + 2
        nodes = []  # (forest, tree, rows, node id, class counts, first key)
        for g, t, *_ in searched:
            stack = g.stacks[t]
            while stack:
                idx, nid = stack.pop()
                node_counts = g.counts[t, nid]
                node_counts[:] = np.bincount(y[idx], minlength=n_classes)
                if np.count_nonzero(node_counts) > 1:  # two classes, so two rows or more
                    k = g.searched[t]
                    g.searched[t] = k + 1
                    nodes.append((g, t, idx, nid, node_counts, g.n + k * p))
                    break
            else:  # the tree is closed
                g.open -= 1
                if not g.open:
                    close(g)
        return nodes

    nodes: list = []
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
        roots = np.flatnonzero(np.count_nonzero(root_counts, axis=1) > 1)  # not pure
        feats = sample_features(starts[roots], n)
        found = _best_split(x, y, boots[roots], root_counts[roots], feats, n_classes)
        g = _Growing(i, boots, present, starts, root_counts)
        if not g.open:
            close(g)
        nodes += advance([(g, t, boots[t], 0) for t in roots.tolist()], found)
    while nodes:
        g, t, idx, nid, counts, first = zip(*nodes)
        starts = np.array([gi.starts[ti] for gi, ti in zip(g, t)], dtype=np.uint64)
        feats = sample_features(starts, np.array(first, dtype=np.uint64))
        by_size: dict[int, list[int]] = {}
        for j, rows in enumerate(idx):
            by_size.setdefault(rows.size, []).append(j)
        searched, found = [], []
        for group in by_size.values():
            # int64, since squared int32 counts could wrap
            node_counts = np.stack([counts[j] for j in group], dtype=np.int64)
            found += _best_split(x, y, np.stack([idx[j] for j in group]), node_counts,
                                 feats[group], n_classes)
            searched += [(g[j], t[j], idx[j], nid[j]) for j in group]
        nodes = advance(searched, found)
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
    classes = tuple(next_line() for _ in range(n_classes))
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
        feature = np.full(n_nodes, -1, dtype=np.int32)
        threshold = np.zeros(n_nodes, dtype=np.float64)
        left = np.full(n_nodes, -1, dtype=np.int32)
        right = np.full(n_nodes, -1, dtype=np.int32)
        counts = np.zeros((n_nodes, n_classes), dtype=np.float64)
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
                feature[i], threshold[i], left[i], right[i] = f, thr, lo, hi
            elif record == "leaf":
                if len(parts) != 1 + n_classes:
                    raise DataError("model file: leaf record has wrong arity")
                leaf = [_token(float, parts, j, "leaf count") for j in range(1, len(parts))]
                if not all(math.isfinite(c) and c >= 0 for c in leaf):
                    raise DataError("model file: leaf counts must be finite and non-negative")
                counts[i] = leaf
            else:
                raise DataError(f"model file: unknown node record {record!r}")
        trees.append(Tree(feature, threshold, left, right, counts))
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
