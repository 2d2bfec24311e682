"""Batch feature extraction into a windows-by-features matrix.

Each channel is cut by one reshape into an ``(n_windows, w)`` batch and each
configured calculator's family kernel runs once on it, with every parameter
set requested for that channel, all in the calling process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .calculators import CALCULATORS, ExtractionSettings
from .errors import DataError, UnknownKind, WindowOutOfRange
from .names import FeatureName
from .parallel import check_workers
from .timeseries import _BLOCK_VALUES, Recording, WindowSet, render_table


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

def extract(
    windows: WindowSet,
    recording: Recording,
    settings: ExtractionSettings,
    workers: int = 1,
) -> FeatureMatrix:
    """Compute every configured feature for every window.

    One row per window in ``windows.window_ids``, one column per settings
    entry, columns in canonical-name order, computed in the calling process.
    Channels are read from *recording*.  ``workers`` is unused and stays
    only because ``perfbench/bench.py`` passes it; a count below 1 still
    raises BadParameters.  Raises UnknownKind for a kind the recording
    lacks, and WindowOutOfRange when the windows reach past its end.
    """
    check_workers(workers)
    for kind in settings.kinds:
        if kind not in recording.channels:
            raise UnknownKind(f"settings reference kind {kind!r} not in recording")
    w = windows.length
    covered = windows.n_windows * w
    if covered > recording.length:
        raise WindowOutOfRange(
            f"windows reach sample {covered}, past the recording's {recording.length} samples"
        )
    window_ids = windows.window_ids

    features = settings.features
    # kind -> calculator -> (validated params list, column indices), in column order
    plan: dict[str, dict[str, tuple[list[dict], list[int]]]] = {}
    for col, feature in enumerate(features):
        params_list, cols = plan.setdefault(feature.kind, {}).setdefault(
            feature.calculator, ([], [])
        )
        params_list.append(feature.param_dict())
        cols.append(col)
    # Each channel is cut into one batch and each family kernel runs once on it.
    values = np.empty((len(window_ids), len(features)), dtype=np.float64)
    for kind, families in plan.items():
        batch = recording.channels[kind][:covered].reshape(-1, w)[window_ids]
        for calc_name, (params_list, cols) in families.items():
            values[:, cols] = CALCULATORS[calc_name].family(batch, params_list)
    return FeatureMatrix(
        feature_names=features,
        values=values,
        window_ids=window_ids,
        labels=windows.labels,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def save_matrix_csv(matrix: FeatureMatrix, stream: TextIO) -> None:
    """``window_id[,label],<canonical names...>`` with round-trip floats,
    the bytes ``repr`` gives, rendered by :func:`render_table` a block of
    rows at a time."""
    header = ["window_id"]
    if matrix.labels is not None:
        header.append("label")
    header.extend(matrix.canonical_names())
    stream.write(",".join(header) + "\n")
    prefixes = [str(i) for i in matrix.window_ids.tolist()]
    if matrix.labels is not None:
        prefixes = [f"{i},{label}" for i, label in zip(prefixes, matrix.labels)]
    block_rows = max(1, _BLOCK_VALUES // max(matrix.n_cols, 1))
    for lo in range(0, matrix.n_rows, block_rows):
        # A label may hold any character, a zero byte too, so ids and labels
        # are joined to the lines as text.
        lines = render_table(matrix.values[lo : lo + block_rows])
        text = lines.tobytes().translate(None, b"\0").decode("ascii")
        rows = zip(prefixes[lo : lo + block_rows], text.split("\n"))
        stream.write("".join(f"{prefix}{line}\n" for prefix, line in rows))


def save_matrix(matrix: FeatureMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_matrix_csv(matrix, fh)
