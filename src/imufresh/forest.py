"""Random-forest classifier with Gini importances, built for reproducibility.

Trees are grown on bootstrap samples with per-node feature subsampling;
split thresholds are midpoints between consecutive distinct sorted values.
Every random draw comes from a stream derived from (seed, tree index), so
models are pure functions of (data, params) regardless of evaluation order.

Importances are impurity decreases weighted by node sample fraction, summed
per feature across the forest and normalized to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence, TextIO

import numpy as np

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
from .timeseries import render_float

_SEED_MASK = (1 << 64) - 1
_CV_SALT = 0x5CF01D


@dataclass(frozen=True)
class ForestParams:
    """Training knobs; defaults mirror a stock random-forest configuration."""

    n_trees: int = 100
    mtry: int | None = None  # default floor(sqrt(p)) at fit time
    min_leaf: int = 1
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise BadParameters(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf < 1:
            raise BadParameters(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.mtry is not None and self.mtry < 1:
            raise BadParameters(f"mtry must be >= 1, got {self.mtry}")
        if self.max_depth is not None and self.max_depth < 1:
            raise BadParameters(f"max_depth must be >= 1, got {self.max_depth}")

    def resolve_mtry(self, n_features: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(1, int(math.sqrt(n_features)))
        if mtry > n_features:
            raise BadParameters(f"mtry {mtry} exceeds feature count {n_features}")
        return mtry


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

    def leaf_probs(self) -> np.ndarray:
        totals = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, 1.0)
        return self.counts / safe

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Leaf index for every row."""
        idx = np.zeros(rows.shape[0], dtype=np.int32)
        active = self.feature[idx] >= 0
        while np.any(active):
            sel = np.nonzero(active)[0]
            node = idx[sel]
            go_left = rows[sel, self.feature[node]] <= self.threshold[node]
            idx[sel] = np.where(go_left, self.left[node], self.right[node])
            active[sel] = self.feature[idx[sel]] >= 0
        return idx


@dataclass(eq=False)
class ForestModel:
    """Trained ensemble with per-feature Gini importances."""

    trees: tuple[Tree, ...]
    classes: tuple[str, ...]
    feature_names: tuple[FeatureName, ...]
    importances: np.ndarray

    def __post_init__(self) -> None:
        self.importances = np.asarray(self.importances, dtype=np.float64)
        if self.importances.shape != (len(self.feature_names),):
            raise DataError("importances must have one entry per feature")
        total = float(self.importances.sum())
        if total > 0 and abs(total - 1.0) > 1e-9:
            raise DataError(f"importances must sum to 1, got {total}")

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


# ---------------------------------------------------------------------------
# Tree growing
# ---------------------------------------------------------------------------

def _gini(counts: np.ndarray, n: float) -> float:
    return 1.0 - float(np.dot(counts, counts)) / (n * n)


def _best_split(
    x_cols: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    counts: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
    n_classes: int,
):
    """Best (gain, feature, threshold) over the sampled features, or None.

    All sampled features are scored at once: one sort of the
    ``(n_node, mtry)`` block, one class-count cumsum, and the Gini gain of
    every boundary between distinct sorted values.  The pick is the first
    maximum in sampled-feature order with thresholds ascending, taken only
    if its gain is > 0, so the choice is deterministic.  The sort need not
    be stable: rows tied on a value only reorder counts at boundaries inside
    the tie, and those are never candidates.
    """
    n_node = idx.size
    order = np.argsort(x_cols[idx[:, None], feats], axis=0)
    sorted_rows = idx[order]  # (n_node, mtry): the node's rows, by value per feature
    vs = x_cols[sorted_rows, feats]
    # Left-side class counts at every boundary: (n_node - 1, mtry, n_classes).
    c_left = (y[sorted_rows][:, :, None] == np.arange(n_classes)).cumsum(axis=0)[:-1]
    # Sums of squared class counts per side, in exact integer arithmetic;
    # the right side expands sum((c - l)^2) so it needs no second count block.
    c_node = counts.astype(np.int64)
    sq_left = np.einsum("ijk,ijk->ij", c_left, c_left)
    sq_right = c_node @ c_node - 2 * np.einsum("ijk,k->ij", c_left, c_node) + sq_left
    n_left = np.arange(1, n_node)[:, None]
    n_right = n_node - n_left
    gini_left = 1.0 - sq_left / (n_left * n_left)
    gini_right = 1.0 - sq_right / (n_right * n_right)
    gain = _gini(counts, n_node) - (n_left * gini_left + n_right * gini_right) / n_node
    valid = (vs[:-1] < vs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    gain[~valid] = -np.inf
    # Feature-major argmax: the first maximum in sampled-feature order,
    # thresholds ascending.
    f_pos, b = np.unravel_index(int(np.argmax(gain.T)), gain.T.shape)
    if gain[b, f_pos] <= 0.0:
        return None
    lo, hi = vs[b, f_pos], vs[b + 1, f_pos]
    thr = (lo + hi) / 2.0
    if thr == hi:  # adjacent floats: keep the partition consistent
        thr = lo
    return float(gain[b, f_pos]), int(feats[f_pos]), float(thr)


def _grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: ForestParams,
    rng: np.random.Generator,
    importance_acc: np.ndarray,
) -> Tree:
    n, p = x.shape
    mtry = params.resolve_mtry(p)
    boot = rng.integers(0, n, size=n)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts_list: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts_list.append(np.zeros(n_classes, dtype=np.float64))
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[np.ndarray, int, int]] = [(boot, 0, root)]
    while stack:
        idx, depth, nid = stack.pop()
        node_counts = np.bincount(y[idx], minlength=n_classes).astype(np.float64)
        counts_list[nid] = node_counts
        n_node = idx.size
        pure = int(np.count_nonzero(node_counts)) <= 1
        depth_capped = params.max_depth is not None and depth >= params.max_depth
        if pure or n_node < 2 * params.min_leaf or depth_capped:
            continue
        feats = rng.choice(p, size=mtry, replace=False)
        split = _best_split(x, y, idx, node_counts, feats, params.min_leaf, n_classes)
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
        stack.append((idx[~go_left], depth + 1, rid))
        stack.append((idx[go_left], depth + 1, lid))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        counts=np.asarray(counts_list, dtype=np.float64),
    )


def train_forest(
    matrix: FeatureMatrix, labels: Sequence[str], params: ForestParams
) -> ForestModel:
    """Fit the ensemble; deterministic for a fixed params.seed."""
    x = matrix.values
    if np.any(np.isnan(x)):
        raise NaNInFeatures("feature matrix contains NaN cells; drop those columns first")
    label_list = [str(v) for v in labels]
    if len(label_list) != matrix.n_rows:
        raise BadParameters("labels length must equal the number of rows")
    classes = tuple(sorted(set(label_list)))
    if len(classes) < 2:
        raise DegenerateTarget("training requires at least 2 classes")
    class_index = {c: i for i, c in enumerate(classes)}
    y = np.asarray([class_index[v] for v in label_list], dtype=np.int64)
    params.resolve_mtry(matrix.n_cols)

    seed = params.seed & _SEED_MASK
    importance_acc = np.zeros(matrix.n_cols, dtype=np.float64)
    trees = tuple(
        _grow_tree(x, y, len(classes), params, np.random.default_rng((seed, t)), importance_acc)
        for t in range(params.n_trees)
    )
    total = float(importance_acc.sum())
    importances = importance_acc / total if total > 0 else importance_acc
    return ForestModel(
        trees=trees,
        classes=classes,
        feature_names=matrix.feature_names,
        importances=importances,
    )


def predict_proba(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """(n_rows, n_classes) probabilities: tree-averaged leaf frequencies."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[1] != model.n_features:
        raise ShapeMismatch(
            f"rows have width {rows.shape[1]}, model expects {model.n_features}"
        )
    out = np.zeros((rows.shape[0], len(model.classes)), dtype=np.float64)
    for tree in model.trees:
        out += tree.leaf_probs()[tree.apply(rows)]
    return out / len(model.trees)


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
    matrix: FeatureMatrix,
    label_arr: np.ndarray,
    fold: np.ndarray,
    params: ForestParams,
    folds: range,
) -> list[float]:
    """Test accuracy of a forest trained without each fold in *folds*;
    *fold* holds each row's fold number."""
    accuracies: list[float] = []
    for f in folds:
        test = fold == f
        train = ~test
        sub = FeatureMatrix(
            feature_names=matrix.feature_names,
            values=matrix.values[train],
            window_ids=np.arange(int(train.sum()), dtype=np.int64),
            labels=None,
        )
        model = train_forest(sub, list(label_arr[train]), params)
        predicted = predict_labels(model, matrix.values[test])
        accuracies.append(float(np.mean(np.asarray(predicted, dtype=object) == label_arr[test])))
    return accuracies


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
    from complete groups only.  ``workers`` > 1 trains the folds on a
    process pool; the report does not depend on it.  ``workers`` < 1 raises
    BadParameters.
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

    # Checked before any pool starts.  With k >= 2 non-empty folds, every
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
    """Importances of the forests seeded ``params.seed + r`` for r in *repeats*."""
    return [
        train_forest(matrix, labels, replace(params, seed=params.seed + r)).importances
        for r in repeats
    ]


def aggregate_importances(
    matrix: FeatureMatrix,
    labels: Sequence[str],
    repeats: int,
    params: ForestParams,
    workers: int = 1,
) -> list[tuple[FeatureName, float]]:
    """Average importances over `repeats` forests seeded seed+0..seed+r-1.

    Returns (feature, mean importance) sorted descending, ties broken by
    canonical feature name so rankings are reproducible.  ``workers`` > 1
    trains the repeats on a process pool; the forests, their sum (taken in
    repeat order) and the ranking do not depend on it.  ``workers`` < 1
    raises BadParameters.
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

    Grammar: header, class lines, ``feature <name> <importance>`` lines,
    then per tree one ``tree <n_nodes>`` line followed by node records
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
    from .calculators import decode_feature_name

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
                # at or before its node would make Tree.apply loop forever.
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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return load_model(fh)
