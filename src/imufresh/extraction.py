"""Batch feature extraction into a windows-by-features matrix.

Each channel is cut once per row range into an ``(n_windows, w)`` batch and
each configured calculator's family kernel runs once on it, with every
parameter set requested for that channel.  Calculators never mix rows, so
the result is bitwise identical no matter how many workers compute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .calculators import (
    CALCULATORS,
    ExtractionSettings,
    decode_feature_name,
)
from .errors import DataError, UnknownKind, WindowOutOfRange
from .names import FeatureName
from .parallel import check_workers, map_ranges
from .timeseries import (
    _BLOCK_VALUES,
    Recording,
    WindowSet,
    _join_columns,
    open_utf8,
    render_floats,
)

# Below this much work (window samples x features) ``extract`` runs
# in-process at any worker count.  Measured at workers=2 against workers=1 on
# a 2-vCPU VM, 9 alternating pairs per size, on the hard benchmark
# workload's generator (405 features, windows of 200 samples), with one
# family kernel call per calculator and kind: the pool won 0 of 9 pairs at
# 3.2M, 4.5M and 6.5M (in-process medians 20-33 ms against 36-42 ms), 1-4 of
# 9 from 7.8M to 11.7M, 3 and 9 of 9 in two runs at 13.0M, and 9 of 9 from
# 15.6M up (100 ms against 78 ms at 15.6M).
POOL_MIN_WORK = 15_000_000


@dataclass(eq=False)
class FeatureMatrix:
    """Windows x named features, column-associated to FeatureName.

    Columns are sorted by unique canonical feature name and rows by window id.
    Cells may be NaN only where a calculator is documented undefined.
    """

    feature_names: tuple[FeatureName, ...]
    values: np.ndarray
    window_ids: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.feature_names = tuple(self.feature_names)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.window_ids = np.asarray(self.window_ids, dtype=np.int64)
        if self.values.ndim != 2:
            raise DataError("feature matrix values must be 2-D")
        n_rows, n_cols = self.values.shape
        if n_cols != len(self.feature_names):
            raise DataError(
                f"{n_cols} value columns but {len(self.feature_names)} feature names"
            )
        if self.window_ids.shape != (n_rows,):
            raise DataError("window_ids length must equal the number of rows")
        if np.any(np.diff(self.window_ids) <= 0):
            raise DataError("window_ids must be strictly ascending")
        canon = [f.canonical() for f in self.feature_names]
        if canon != sorted(canon):
            raise DataError("feature columns must be sorted by canonical name")
        self._columns = {c: i for i, c in enumerate(canon)}
        if len(self._columns) != n_cols:
            raise DataError("feature column names must be unique")
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != n_rows:
                raise DataError("labels length must equal the number of rows")
        self.values.setflags(write=False)
        self.window_ids.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def canonical_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column_index(self, name: FeatureName | str) -> int:
        return self._columns[name if isinstance(name, str) else name.canonical()]

    def column(self, name: FeatureName | str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def subset(self, names: Sequence[FeatureName | str]) -> "FeatureMatrix":
        """New matrix with just the given columns (re-sorted canonically)."""
        canon = sorted(n if isinstance(n, str) else n.canonical() for n in names)
        idx = [self.column_index(c) for c in canon]
        return FeatureMatrix(
            feature_names=tuple(self.feature_names[i] for i in idx),
            values=self.values[:, idx].copy(),
            window_ids=self.window_ids.copy(),
            labels=self.labels,
        )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _compute_rows(
    recording: Recording, index: np.ndarray, plan: dict, n_cols: int, rows: range
) -> np.ndarray:
    """Feature rows for the windows whose sample indices are ``index[rows]``;
    plan maps each kind to its calculators' (params list, columns), so each
    channel is cut into one batch and each family kernel runs once on it."""
    out = np.empty((len(rows), n_cols), dtype=np.float64)
    for kind, families in plan.items():
        batch = recording.channels[kind][index[rows.start : rows.stop]]
        for calc_name, (params_list, cols) in families.items():
            out[:, cols] = CALCULATORS[calc_name].family(batch, params_list)
    return out


def extract(
    windows: WindowSet,
    recording: Recording,
    settings: ExtractionSettings,
    workers: int = 1,
) -> FeatureMatrix:
    """Compute every configured feature for every window.

    One row per window in ``windows.windows``, one column per settings entry,
    columns in canonical-name order.  The output is independent of
    ``workers``, which is ignored below ``POOL_MIN_WORK``; parameters
    are validated once up front so worker processes only run the numeric
    kernels.  Raises BadParameters for ``workers < 1``, UnknownKind for a
    kind the recording lacks, WindowOutOfRange for a window past its end,
    and DataError when the windows differ in length.
    """
    check_workers(workers)
    for kind in settings.kinds:
        if kind not in recording.channels:
            raise UnknownKind(f"settings reference kind {kind!r} not in recording")
    window_list = windows.windows
    # An empty window set still needs a batch width; 2 is the shortest window.
    lengths = {w.length for w in window_list} or {2}
    if len(lengths) > 1:
        raise DataError(f"windows must share one length, got lengths {sorted(lengths)}")
    starts = np.asarray([w.start_index for w in window_list], dtype=np.int64)
    index = starts[:, None] + np.arange(lengths.pop())
    if np.any(index >= recording.length):
        raise WindowOutOfRange(
            f"windows reach sample {int(index.max()) + 1}, "
            f"past the recording's {recording.length} samples"
        )

    features = settings.feature_names()
    # kind -> calculator -> (validated params list, column indices), in column order
    plan: dict[str, dict[str, tuple[list[dict], list[int]]]] = {}
    for col, feature in enumerate(features):
        params_list, cols = plan.setdefault(feature.kind, {}).setdefault(
            feature.calculator, ([], [])
        )
        params_list.append(feature.param_dict())
        cols.append(col)
    if index.size * len(features) < POOL_MIN_WORK:
        workers = 1
    blocks = map_ranges(
        _compute_rows, (recording, index, plan, len(features)), len(window_list), workers
    )
    return FeatureMatrix(
        feature_names=features,
        values=np.concatenate(blocks),
        window_ids=np.asarray([w.window_id for w in window_list], dtype=np.int64),
        labels=windows.labels,
    )


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def save_matrix_csv(matrix: FeatureMatrix, stream: TextIO) -> None:
    """``window_id[,label],<canonical names...>`` with round-trip floats,
    the bytes ``repr`` gives, rendered by :func:`render_floats` a block of
    rows at a time."""
    header = ["window_id"]
    if matrix.labels is not None:
        header.append("label")
    header.extend(matrix.canonical_names())
    stream.write(",".join(header) + "\n")
    prefixes = [str(i) for i in matrix.window_ids.tolist()]
    if matrix.labels is not None:
        prefixes = [f"{i},{label}" for i, label in zip(prefixes, matrix.labels)]
    n_cols = matrix.n_cols
    block_rows = max(1, _BLOCK_VALUES // max(n_cols, 1))
    for lo in range(0, matrix.n_rows, block_rows):
        values = matrix.values[lo : lo + block_rows]
        text = render_floats(values)
        # Each cell after its comma.  A label may hold any character, a zero
        # byte too, so ids and labels are joined to the lines as text.
        cells = np.empty((len(values), n_cols, 1 + text.shape[1]), dtype=np.uint8)
        cells[:, :, 0] = ord(",")
        cells[:, :, 1:] = text.reshape(len(values), n_cols, text.shape[1])
        lines = _join_columns([cells.reshape(len(values), -1), b"\n"]).decode("ascii")
        rows = zip(prefixes[lo : lo + block_rows], lines.split("\n"))
        stream.write("".join(f"{prefix}{line}\n" for prefix, line in rows))


def save_matrix(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_matrix_csv(matrix, fh)


def load_matrix_csv(stream: TextIO) -> FeatureMatrix:
    header_line = stream.readline().rstrip("\n").rstrip("\r")
    if not header_line:
        raise DataError("feature matrix CSV is empty")
    header = header_line.split(",")
    if header[0] != "window_id":
        raise DataError("feature matrix CSV must start with a window_id column")
    has_labels = len(header) > 1 and header[1] == "label"
    name_start = 2 if has_labels else 1
    names = tuple(decode_feature_name(c) for c in header[name_start:])

    ids: list[int] = []
    labels: list[str] = []
    rows: list[list[float]] = []
    columns = header[name_start:]
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"feature matrix row has {len(cells)} cells, expected {len(header)}")
        ids.append(_parse_cell(int, cells[0], lineno, "window_id"))
        if has_labels:
            labels.append(cells[1])
        rows.append(
            [_parse_cell(float, c, lineno, n) for c, n in zip(cells[name_start:], columns)]
        )

    values = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.empty((0, len(names)), dtype=np.float64)
    )
    return FeatureMatrix(
        feature_names=names,
        values=values,
        window_ids=np.asarray(ids, dtype=np.int64),
        labels=tuple(labels) if has_labels else None,
    )


def _parse_cell(parse, cell: str, lineno: int, column: str):
    """``parse(cell)``; a cell that does not parse raises DataError naming
    its line (the header is line 1) and column."""
    try:
        return parse(cell)
    except ValueError:
        raise DataError(
            f"feature matrix line {lineno}, column {column!r}: cannot parse {cell!r}"
        ) from None


def load_matrix(path: str) -> FeatureMatrix:
    with open_utf8(path, "feature matrix", newline="") as fh:
        return load_matrix_csv(fh)
