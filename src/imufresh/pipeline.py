"""End-to-end workflow orchestration and artifact persistence.

:func:`run_full_pipeline` executes the five steps in order, persisting an
artifact after each one:

1. ingest + virtual sensors      -> ``engineered.csv``
2. segmentation + full extraction -> ``features_full.csv``
3. FDR selection                  -> ``selection.csv``
4. importance ranking over the selected columns, top-k cut
                                  -> ``importance.csv``, ``settings_topk.txt``
5. specialized refit on the top-k columns
                                  -> ``model.txt``, ``manifest.txt``

The manifest records seeds, counts, the virtual-sensor specs, and per-step
wall times; :func:`predict` replays the manifest's virtual sensors so a
deployed model regenerates exactly the channels its features reference.
Both time their stages with :func:`_timed` into ``step_seconds``, and
:func:`benchmark` returns the two sets of stage times.
"""

from __future__ import annotations

import logging
import math
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .calculators import (
    ExtractionSettings,
    default_settings,
    read_settings_file,
    settings_from_feature_names,
    write_settings_file,
)
from .errors import (
    BadParameters,
    ConfigError,
    DataError,
    InvalidKindName,
    NothingSelected,
    WindowTooShort,
)
from .extraction import FeatureMatrix, extract, save_matrix
from .forest import (
    CVReport,
    ForestParams,
    aggregate_importances,
    cross_validate,
    load_model_file,
    predict_proba,
    save_model_file,
    top_k_features,
    train_forest,
)
from .names import FeatureName
from .parallel import check_workers
from .selection import SelectionReport, save_report, select_features
from .timeseries import (
    _bom_note,
    load_labels,
    load_recording,
    open_utf8,
    render_float,
    resolve_label,
    save_recording,
    segment_fixed,
)
from .virtual import VirtualSensorSpec, apply_virtual_sensors, default_pairing

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Everything a full run needs; parsed from key=value files + CLI flags."""

    recording: str
    output_dir: str
    labels: str | None = None
    window_seconds: float = 4.0
    q: float = 0.05
    top_k: int = 20
    repeats: int = 100
    seed: int = 0
    workers: int = 1
    n_trees: int = 100
    cv_folds: int = 10
    virtual_sensors: tuple[VirtualSensorSpec, ...] = ()
    auto_pair: tuple[str, str] | None = None
    settings_file: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ConfigError(f"q must be in (0, 1), got {self.q}")
        if not (math.isfinite(self.window_seconds) and self.window_seconds > 0):
            raise ConfigError(
                f"window_seconds must be positive and finite, got {self.window_seconds}"
            )
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        check_workers(self.workers)
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        self.forest_params()  # raises BadParameters, a ConfigError, before any step runs

    def forest_params(self) -> ForestParams:
        return ForestParams(n_trees=self.n_trees, seed=self.seed)


_INT_KEYS = {"top_k", "repeats", "seed", "workers", "n_trees", "cv_folds"}
_FLOAT_KEYS = {"window_seconds", "q"}
_PATH_KEYS = {"recording", "labels", "output_dir", "settings_file"}
_REQUIRED_KEYS = ("recording", "output_dir")  # an override may fill them


def load_config(path: str, overrides: dict | None = None) -> PipelineConfig:
    """Parse a flat ``key = value`` config file; *overrides* win over the file.

    Repeated ``virtual_sensor`` keys accumulate (one spec per line, e.g.
    ``abs_diff accel_x_l accel_x_r accel_x_diff``); any other key given
    twice is a ConfigError, as is an empty ``labels`` or ``settings_file``.
    ``auto_pair`` takes two suffixes (``_l _r``).  Relative paths resolve
    against the config file's directory.
    """
    base = Path(path).resolve().parent
    raw: dict[str, object] = {}
    first_line: dict[str, int] = {}
    specs: list[VirtualSensorSpec] = []
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}{_bom_note(line)}")
        key = key.strip()
        value = value.strip()
        if key == "virtual_sensor":
            specs.append(VirtualSensorSpec.from_line(value))
            continue
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: {key} given twice (first on line {first_line[key]})")
        first_line[key] = lineno
        if key == "auto_pair":
            parts = value.split()
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: auto_pair needs two suffixes")
            raw["auto_pair"] = (parts[0], parts[1])
            continue
        if key in _INT_KEYS:
            try:
                raw[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be an integer") from None
        elif key in _FLOAT_KEYS:
            try:
                raw[key] = float(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be a number") from None
        elif key in _PATH_KEYS:
            if not value and key not in _REQUIRED_KEYS:
                raise ConfigError(f"{path}:{lineno}: {key} is empty")
            if "\0" in value:  # no file system path holds one
                raise ConfigError(f"{path}:{lineno}: {key} holds a NUL byte")
            raw[key] = str((base / value).resolve()) if value else None
        else:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}{_bom_note(line)}")
    raw["virtual_sensors"] = tuple(specs)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    for key in _REQUIRED_KEYS:
        if raw.get(key) is None:  # an empty path value is None too
            raise ConfigError(f"{path}: missing or empty required key {key!r}")
    try:
        return PipelineConfig(**raw)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def read_manifest(path: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    try:
        with open_utf8(path, "manifest") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from None
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise DataError(f"malformed manifest line: {line!r}")
        out.setdefault(key.strip(), []).append(value.strip())
    return out


def _deployment_keys(manifest: dict[str, list[str]]) -> tuple[float, list[VirtualSensorSpec]]:
    """The manifest's ``window_seconds`` and ``virtual_sensor`` specs; a
    DataError names the key unless the first is a finite number > 0 and
    every spec line parses."""
    if not manifest.get("window_seconds"):
        raise DataError("manifest is missing key 'window_seconds'")
    value = manifest["window_seconds"][0]
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        raise DataError(f"manifest key 'window_seconds' must be a finite number > 0, got {value!r}")
    try:
        return seconds, [VirtualSensorSpec.from_line(v) for v in manifest.get("virtual_sensor", [])]
    except (BadParameters, InvalidKindName) as exc:
        raise DataError(f"manifest key 'virtual_sensor': {exc}") from None


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    """Artifact bundle produced by one full run."""

    config: PipelineConfig
    engineered_path: str
    matrix_path: str
    selection_path: str
    importance_path: str
    settings_path: str
    model_path: str
    manifest_path: str
    matrix: FeatureMatrix
    report: SelectionReport
    ranked: list[tuple[FeatureName, float]]
    top_features: list[FeatureName]
    cv: CVReport
    step_seconds: dict[str, float] = field(default_factory=dict)


@contextmanager
def _timed(timings: dict[str, float], name: str) -> Iterator[None]:
    """Record the wall time of the ``with`` block as ``timings[name]``."""
    started = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - started


def _referenced_specs(
    specs: Sequence[VirtualSensorSpec], kinds: Iterable[str]
) -> list[VirtualSensorSpec]:
    """The specs, in order, whose outputs *kinds* reference directly or
    through the inputs of a later referenced spec."""
    needed = set(kinds)
    kept = []
    for spec in reversed(specs):
        if spec.output in needed:
            kept.append(spec)
            needed.update(spec.inputs)
    return kept[::-1]


def run_full_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute all five steps, persisting after each; see the module docs.

    Raises :class:`NothingSelected` when no feature survives FDR selection
    (earlier artifacts stay on disk).
    """
    if config.labels is None:
        raise ConfigError("a labels file is required for a training run")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.txt"
    # The manifest is written last, so a rerun that fails leaves none behind
    # to pair with the earlier run's model.
    manifest_path.unlink(missing_ok=True)
    timings: dict[str, float] = {}

    # Step 1: ingest + virtual sensors.
    with _timed(timings, "engineer"):
        recording = load_recording(config.recording)
        intervals = load_labels(config.labels)
        paired = default_pairing(recording, *config.auto_pair) if config.auto_pair else []
        specs = [*paired, *config.virtual_sensors]
        engineered = apply_virtual_sensors(recording, specs)
        engineered_path = str(out / "engineered.csv")
        save_recording(engineered, engineered_path)
    logger.info(
        "step 1: %d physical + %d virtual channels", len(recording.channels), len(specs)
    )

    # Step 2: segmentation + exhaustive extraction.
    with _timed(timings, "extract"):
        windows = segment_fixed(engineered, config.window_seconds, intervals)
        if windows.labels is None:
            raise DataError("no labeled windows; check the label intervals")
        if config.settings_file is None:
            settings = default_settings(engineered.channels)
        else:
            with open_utf8(config.settings_file, "settings file") as fh:
                settings = read_settings_file(fh)
        matrix = extract(windows, engineered, settings)
        matrix_path = str(out / "features_full.csv")
        save_matrix(matrix, matrix_path)
    logger.info(
        "step 2: %d labeled windows x %d features (%d dropped as unlabeled)",
        matrix.n_rows, matrix.n_cols, windows.n_windows - matrix.n_rows,
    )

    # Step 3: FRESH selection at FDR q.
    with _timed(timings, "select"):
        labels = list(windows.labels or ())
        report = select_features(matrix, labels, q=config.q)
        selection_path = str(out / "selection.csv")
        save_report(report, selection_path)
    logger.info("step 3: %d of %d features selected at q=%s",
                len(report.selected), matrix.n_cols, config.q)
    if not report.selected:
        raise NothingSelected(
            f"no features passed FDR selection at q={config.q}; artifacts up to "
            f"{selection_path} were written"
        )

    # Step 4: importance ranking over the selected columns only.
    with _timed(timings, "rank"):
        finite = np.isfinite(matrix.values).all(axis=0)
        usable_names = [f for f in report.selected if finite[matrix.column_index(f)]]
        dropped = len(report.selected) - len(usable_names)
        if dropped:
            logger.info("step 4: dropping %d selected columns with NaN or infinite cells", dropped)
        if not usable_names:
            raise NothingSelected("every selected feature column has NaN or infinite cells")
        usable = matrix.subset(usable_names)
        ranked = aggregate_importances(
            usable, labels, config.repeats, config.forest_params(), workers=config.workers
        )
        top_k = config.top_k
        if top_k > len(ranked):
            logger.warning("top_k=%d exceeds %d usable features; clamping", top_k, len(ranked))
            top_k = len(ranked)
        top = top_k_features(ranked, top_k)
        importance_path = str(out / "importance.csv")
        with open(importance_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("feature,mean_importance\n")
            for feature, importance in ranked:
                fh.write(f"{feature.canonical()},{render_float(importance)}\n")
        settings_path = str(out / "settings_topk.txt")
        restricted = settings_from_feature_names([f.canonical() for f in top])
        with open(settings_path, "w", encoding="utf-8", newline="") as fh:
            write_settings_file(restricted, fh)
    logger.info("step 4: top %d of %d usable features kept", top_k, len(ranked))

    # Step 5: specialized model on the top-k columns.
    with _timed(timings, "fit"):
        specialized = matrix.subset(top)
        cv_folds = min(config.cv_folds, specialized.n_rows)
        cv = cross_validate(
            specialized, labels, cv_folds, config.forest_params(), workers=config.workers
        )
        model = train_forest(specialized, labels, config.forest_params())
        model_path = str(out / "model.txt")
        save_model_file(model, model_path)
    logger.info("step 5: specialized %d-fold CV accuracy %.4f", cv_folds, cv.mean_accuracy)

    entries: list[tuple[str, str]] = [
        ("tool_version", __version__),
        ("seed", str(config.seed)),
        ("q", render_float(config.q)),
        ("window_seconds", render_float(config.window_seconds)),
        ("workers", str(config.workers)),
        ("n_trees", str(config.n_trees)),
        ("repeats", str(config.repeats)),
        ("top_k", str(config.top_k)),
        ("top_k_effective", str(top_k)),
        ("n_windows", str(windows.n_windows)),
        ("n_labeled_windows", str(matrix.n_rows)),
        ("n_kinds", str(len(engineered.channels))),
        ("n_features_full", str(matrix.n_cols)),
        ("n_selected", str(len(report.selected))),
        ("n_selected_usable", str(len(usable_names))),
        ("classes", ",".join(sorted(set(labels)))),
        ("specialized_cv_folds", str(cv_folds)),
        ("specialized_cv_accuracy", render_float(cv.mean_accuracy)),
    ]
    entries.extend(("virtual_sensor", spec.to_line()) for spec in specs)
    entries.extend((f"time_{name}_seconds", render_float(seconds))
                   for name, seconds in timings.items())
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in entries)

    return PipelineResult(
        config=config,
        engineered_path=engineered_path,
        matrix_path=matrix_path,
        selection_path=selection_path,
        importance_path=importance_path,
        settings_path=settings_path,
        model_path=model_path,
        manifest_path=str(manifest_path),
        matrix=matrix,
        report=report,
        ranked=ranked,
        top_features=top,
        cv=cv,
        step_seconds=timings,
    )


# ---------------------------------------------------------------------------
# Deployment: restricted extraction + prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimelineRow:
    window_id: int
    start_s: float
    end_s: float
    probabilities: tuple[float, ...]
    predicted: str
    true_label: str | None = None


@dataclass(frozen=True)
class PredictionTimeline:
    classes: tuple[str, ...]
    rows: tuple[TimelineRow, ...]
    step_seconds: dict[str, float] = field(default_factory=dict, compare=False)

    def accuracy(self) -> float | None:
        """Accuracy over rows with a known true label; None if there are none."""
        scored = [(r.predicted == r.true_label) for r in self.rows if r.true_label is not None]
        if not scored:
            return None
        return float(np.mean(scored))


def save_timeline(timeline: PredictionTimeline, stream: TextIO) -> None:
    header = ["window_id", "start_s", "end_s"]
    header.extend(f"prob_{c}" for c in timeline.classes)
    header.extend(["predicted", "true_label", "misclassified"])
    stream.write(",".join(header) + "\n")
    for row in timeline.rows:
        cells = [str(row.window_id), render_float(row.start_s), render_float(row.end_s)]
        cells.extend(render_float(p) for p in row.probabilities)
        cells.append(row.predicted)
        if row.true_label is None:
            cells.extend(["", ""])
        else:
            cells.extend([row.true_label, str(row.predicted != row.true_label)])
        stream.write(",".join(cells) + "\n")


def predict(
    model_path: str,
    settings_path: str | None,
    recording_path: str,
    manifest_path: str,
    labels_path: str | None = None,
    out_path: str | None = None,
    workers: int = 1,
) -> PredictionTimeline:
    """Deployment path: restricted extraction planned from the model alone.

    Replays the manifest's window length, and those of its virtual sensors
    that the model's features reference, on the new recording, extracts
    exactly the features ``model.txt`` names, and predicts per window.
    When a labels file is supplied (overlaps raise OverlappingLabels), true
    labels and misclassification flags are attached to every window whose
    span lies in a label interval.  The timeline's ``step_seconds`` holds
    the wall time of each stage: load, ingest, virtual_sensors, segment,
    extract, predict, timeline.  A manifest ``window_seconds`` that is not a
    finite number > 0, or a ``virtual_sensor`` line that does not parse,
    raises DataError before the recording is read; one shorter than two of
    the recording's samples raises DataError naming it too.  A window longer
    than the recording gives an empty timeline.  ``settings_path`` (never
    opened) and ``workers`` stay only because ``perfbench/workloads.py``
    passes them; a ``workers`` count below 1 still raises BadParameters
    before any file is read.
    """
    check_workers(workers)
    timings: dict[str, float] = {}
    with _timed(timings, "load"):
        manifest = read_manifest(manifest_path)
        window_seconds, specs = _deployment_keys(manifest)
        model = load_model_file(model_path)
        settings = ExtractionSettings(features=model.feature_names)
    with _timed(timings, "ingest"):
        recording = load_recording(recording_path)
    with _timed(timings, "virtual_sensors"):
        engineered = apply_virtual_sensors(recording, _referenced_specs(specs, settings.kinds))
    with _timed(timings, "segment"):
        try:
            windows = segment_fixed(engineered, window_seconds, labels=None)
        except WindowTooShort as exc:  # the manifest's window is data here
            raise DataError(f"manifest key 'window_seconds': {exc}") from None
    with _timed(timings, "extract"):
        matrix = extract(windows, engineered, settings)
    with _timed(timings, "predict"):
        probs = predict_proba(model, matrix.values)
        predicted = [model.classes[i] for i in np.argmax(probs, axis=1)]

    # The timeline holds *timings* itself, so it gains the "timeline"
    # entry when this block ends.
    with _timed(timings, "timeline"):
        starts, ends = windows.times()
        truth = resolve_label(starts, ends, load_labels(labels_path) if labels_path else [])
        rows = map(TimelineRow, windows.window_ids.tolist(), starts.tolist(), ends.tolist(),
                   map(tuple, probs.tolist()), predicted, truth)
        timeline = PredictionTimeline(model.classes, tuple(rows), step_seconds=timings)
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                save_timeline(timeline, fh)
    return timeline


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def benchmark(config: PipelineConfig) -> dict[str, dict[str, float]]:
    """Stage times of a training run of *config* and of ``predict`` on the
    run's own recording with the artifacts it wrote.

    The run writes into a temporary directory, removed on return, so
    nothing lands in ``config.output_dir``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        result = run_full_pipeline(replace(config, output_dir=tmp))
        timeline = predict(result.model_path, None, config.recording, result.manifest_path)
    return {"run": result.step_seconds, "predict": timeline.step_seconds}
