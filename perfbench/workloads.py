"""The benchmark's workloads: input set-up, the two timed calls, output checks.

Every workload writes a training recording and a hold-out recording as CSV
files with the library's synthetic generators and writers (set-up).  The
training recording is fixed: it, and so the trained model and the features
deployment extracts, is what the workload is.  The benchmark's seed draws
the hold-out, the new recording the model is deployed on.  The library then
receives only those files, through its two user-facing calls:

- train: one ``run_full_pipeline`` call, CSV in to ``manifest.txt`` out;
- predict: one ``predict`` call on the hold-out, with labels and ``out_path``.

Each workload has a *primary* call, the one ``--trace 1`` traces: train on
``desk`` and ``hard``, predict on ``deploy``.  The other call is measured
too, so that every run reports every end-to-end metric.  A timed run
repeats a *cycle*: a set-up, then on ``desk`` and ``hard`` one training call
and a few predictions with the model it just wrote, on ``deploy`` (whose
set-up trains its model) a few predictions.  Set-up and both calls are so
sampled across the whole run.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from imufresh import pipeline
from imufresh.calculators import ExtractionSettings, default_settings, write_settings_file
from imufresh.pipeline import PipelineConfig
from imufresh.synth import synth_multi_activity, synth_walk_run
from imufresh.timeseries import Recording, save_labels, save_recording
from imufresh.virtual import default_pairing

WINDOW_SECONDS = 4.0
FOREST_SEED = 7
AUTO_PAIR = ("_l", "_r")
TOP_K = 20
# The six channels both synthetic generators produce, and the x-axis pair
# that desk and hard keep: with auto_pair's abs-diff channel, 3 x 135 features.
ALL_CHANNELS = tuple(f"accel_{axis}_{side}" for axis in "xyz" for side in "lr")
X_PAIR = ("accel_x_l", "accel_x_r")
X_PAIR_FEATURES = 3 * 135
# deploy trains without the two calculators with the largest parameter grids
# (60 + 36 of the 135 entries per channel), which leaves 39 per channel.
DEPLOY_SKIPS = ("change_quantiles", "agg_linear_trend")
DEPLOY_FEATURES = 9 * 39

TRAIN_ARTIFACTS = ("model.txt", "importance.csv", "selection.csv")
PREDICT_ARTIFACTS = ("timeline.csv",)
# The root span of a traced call, per kind of call.
OP_NAMES = {"train": "pipeline.run_full_pipeline", "predict": "pipeline.predict"}


@dataclass
class Outcome:
    """One timed call: its duration, its quality figure and its checks."""

    seconds: float
    accuracy: float
    hashes: dict[str, str]
    problems: list[str]
    step_seconds: dict[str, float] = field(default_factory=dict)  # training only


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest(path: Path) -> dict[str, str]:
    """First value of every ``key = value`` line."""
    out: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key.strip(), value.strip())
    return out


def compare_hashes(hashes: dict[str, str], reference: dict[str, str] | None) -> list[str]:
    """A problem per artifact whose bytes differ from the reference call's."""
    if reference is None:
        return []
    return [
        f"{name} differs from the first call's"
        for name, digest in hashes.items()
        if reference.get(name) != digest
    ]


@dataclass(frozen=True)
class Data:
    """A synthetic recording plus labels, written as the library's CSVs.

    ``persons == 0`` is one walk/run recording (``synth_walk_run``); otherwise
    persons ``first_person ..`` of ``synth_multi_activity`` are stitched into
    one recording by :func:`stitch_persons`.  Only the generated channels
    named in *channels* are written.
    """

    duration_s: float
    sample_rate_hz: float
    seed: int
    noise: float = 0.35
    drift: float = 1.0
    persons: int = 0
    first_person: int = 0
    channels: tuple[str, ...] = ALL_CHANNELS

    def write(self, recording: Path, labels: Path, seed_offset: int = 0) -> Recording:
        seed = self.seed + seed_offset
        if self.persons:
            parts = [
                synth_multi_activity(
                    person=p,
                    duration_s=self.duration_s,
                    sample_rate_hz=self.sample_rate_hz,
                    window_seconds=WINDOW_SECONDS,
                    seed=seed,
                    noise=self.noise,
                )
                for p in range(self.first_person, self.first_person + self.persons)
            ]
            rec, intervals = stitch_persons(parts, self.sample_rate_hz)
        else:
            data = synth_walk_run(
                duration_s=self.duration_s,
                sample_rate_hz=self.sample_rate_hz,
                window_seconds=WINDOW_SECONDS,
                seed=seed,
                noise=self.noise,
                drift=self.drift,
            )
            rec, intervals = data.recording, data.labels
        rec = Recording(
            sample_rate_hz=rec.sample_rate_hz,
            channels={kind: rec.channels[kind] for kind in self.channels},
            t0=rec.t0,
        )
        save_recording(rec, str(recording))
        save_labels(intervals, str(labels))
        return rec


def stitch_persons(parts: list, sample_rate_hz: float) -> tuple[Recording, list]:
    """Concatenate per-person recordings; shift each person's label intervals."""
    channels = {
        kind: np.concatenate([p.recording.channels[kind] for p in parts])
        for kind in parts[0].recording.channels
    }
    intervals = []
    offset = 0.0
    for part in parts:
        intervals.extend((start + offset, end + offset, label) for start, end, label in part.labels)
        offset += part.recording.length / sample_rate_hz
    return Recording(sample_rate_hz=sample_rate_hz, channels=channels, t0=0.0), intervals


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    primary: str  # "train" or "predict"
    train_data: Data
    holdout_data: Data
    repeats: int
    workers: int
    expect_windows: int
    expect_features: int
    expect_classes: int
    expect_rows: int
    min_accuracy: float  # hold-out accuracy below this fails the check
    # Predict calls in each cycle of a timed run.
    predicts_per_cycle: int
    # Training leaves these calculators out of the default grid, through a
    # settings file written in set-up.
    skip_calculators: tuple[str, ...] = ()

    def calls_per_cycle(self) -> tuple[str, ...]:
        """The calls one cycle of a timed run makes after its set-up, in order.

        A train-primary workload trains and then predicts with the model it
        just wrote; a predict-primary one trains in its set-up.
        """
        train = ("train",) if self.primary == "train" else ()
        return train + ("predict",) * self.predicts_per_cycle

    # -- set-up --------------------------------------------------------------

    def write_inputs(self, work: Path, seed_offset: int) -> None:
        """Training recording at its own seed; hold-out at its seed + *seed_offset*.

        With *skip_calculators* set, also the settings file training reads:
        the default grid on every channel training will have, less those.
        """
        rec = self.train_data.write(work / "train.csv", work / "train_labels.csv")
        self.holdout_data.write(work / "holdout.csv", work / "holdout_labels.csv", seed_offset)
        if self.skip_calculators:
            specs = default_pairing(rec, *AUTO_PAIR)
            grid = default_settings([*rec.channels, *(spec.output for spec in specs)])
            chosen = tuple(f for f in grid.features if f.calculator not in self.skip_calculators)
            with open(work / "settings.txt", "w", encoding="utf-8") as fh:
                write_settings_file(ExtractionSettings(features=chosen), fh)

    # -- the two calls -------------------------------------------------------

    def train_call(self, work: Path) -> Callable[[], object]:
        out = work / "model"
        shutil.rmtree(out, ignore_errors=True)
        config = PipelineConfig(
            recording=str(work / "train.csv"),
            labels=str(work / "train_labels.csv"),
            output_dir=str(out),
            window_seconds=WINDOW_SECONDS,
            q=0.05,
            top_k=TOP_K,
            repeats=self.repeats,
            seed=FOREST_SEED,
            workers=self.workers,
            n_trees=100,
            cv_folds=10,
            auto_pair=AUTO_PAIR,
            settings_file=str(work / "settings.txt") if self.skip_calculators else None,
        )
        return functools.partial(pipeline.run_full_pipeline, config)

    def predict_call(self, work: Path) -> Callable[[], object]:
        model = work / "model"
        (work / "timeline.csv").unlink(missing_ok=True)
        return functools.partial(
            pipeline.predict,
            str(model / "model.txt"),
            str(model / "settings_topk.txt"),
            str(work / "holdout.csv"),
            str(model / "manifest.txt"),
            labels_path=str(work / "holdout_labels.csv"),
            out_path=str(work / "timeline.csv"),
            workers=self.workers,
        )

    # -- output checks -------------------------------------------------------

    def check_train(self, work: Path, result, reference) -> tuple[float, dict[str, str], list[str]]:
        """CV accuracy from the manifest; counts and artifact bytes checked."""
        out = work / "model"
        manifest = read_manifest(out / "manifest.txt")
        problems = []
        expected = {
            "n_labeled_windows": self.expect_windows,
            "n_features_full": self.expect_features,
            "top_k_effective": TOP_K,
        }
        for key, want in expected.items():
            if manifest.get(key) != str(want):
                problems.append(f"manifest {key} is {manifest.get(key)!r}, expected {want}")
        n_classes = len(manifest.get("classes", "").split(","))
        if n_classes != self.expect_classes:
            problems.append(f"manifest lists {n_classes} classes, expected {self.expect_classes}")
        topk = (out / "settings_topk.txt").read_text(encoding="utf-8").splitlines()
        if len(topk) != TOP_K:
            problems.append(f"settings_topk.txt has {len(topk)} features, expected {TOP_K}")
        hashes = {name: sha256(out / name) for name in TRAIN_ARTIFACTS}
        problems.extend(compare_hashes(hashes, reference))
        return float(manifest["specialized_cv_accuracy"]), hashes, problems

    def check_predict(self, work: Path, timeline, reference) -> tuple[float, dict[str, str], list[str]]:
        """``PredictionTimeline.accuracy()``; row counts and file bytes checked."""
        path = work / "timeline.csv"
        problems = []
        n_lines = len(path.read_text(encoding="utf-8").splitlines())
        for what, rows in (("timeline", len(timeline.rows)), ("timeline.csv", n_lines - 1)):
            if rows != self.expect_rows:
                problems.append(f"{what} has {rows} rows, expected {self.expect_rows}")
        accuracy = timeline.accuracy()
        if accuracy is None or accuracy < self.min_accuracy:
            problems.append(f"hold-out accuracy {accuracy} is below {self.min_accuracy}")
        hashes = {name: sha256(work / name) for name in PREDICT_ARTIFACTS}
        problems.extend(compare_hashes(hashes, reference))
        return accuracy or 0.0, hashes, problems

    def run(self, call: str, work: Path, reference=None, tracer=None) -> Outcome:
        """Time one call (inside *tracer* if given), then check its outputs.

        A raised exception or a failed check lands in ``problems``: the
        benchmark counts the call as failed and carries on.  Garbage left by
        earlier calls is collected before the clock starts, so that no call
        pays for another's.
        """
        if call == "train":
            fn, check = self.train_call(work), self.check_train
        else:
            fn, check = self.predict_call(work), self.check_predict
        gc.collect()
        start = perf_counter()
        try:
            result = tracer.call(OP_NAMES[call], fn) if tracer is not None else fn()
        except Exception as exc:  # noqa: BLE001 - any library failure is a failed call
            return Outcome(perf_counter() - start, 0.0, {}, [f"{type(exc).__name__}: {exc}"])
        seconds = perf_counter() - start
        steps = dict(getattr(result, "step_seconds", {}))
        try:
            accuracy, hashes, problems = check(work, result, reference)
        except (OSError, KeyError, ValueError) as exc:
            return Outcome(seconds, 0.0, {}, [f"output check failed: {exc!r}"], steps)
        return Outcome(seconds, accuracy, hashes, problems, steps)


WORKLOADS = {
    "desk": Workload(
        name="desk",
        why=(
            "Walk/run x-axis pair, 120 s at 100 Hz, full grid, workers=1: extraction, "
            "feature-name bookkeeping and stump forests over ~300 selected columns "
            "share training; the single-threaded baseline."
        ),
        primary="train",
        train_data=Data(duration_s=120.0, sample_rate_hz=100.0, seed=42, channels=X_PAIR),
        # Criterion 5's hold-out session: another seed and 3% frequency drift.
        holdout_data=Data(
            duration_s=120.0, sample_rate_hz=100.0, seed=4242, drift=1.03, channels=X_PAIR
        ),
        repeats=10,
        workers=1,
        expect_windows=30,
        expect_classes=2,
        expect_rows=30,
        min_accuracy=0.85,
        predicts_per_cycle=4,
        expect_features=X_PAIR_FEATURES,
    ),
    "hard": Workload(
        name="hard",
        why=(
            "5 noisy 4-activity persons, x-axis pair at 50 Hz, full grid, workers=2: "
            "not separable, so deeper trees and forest split search dominate "
            "training; runs the extraction and selection process pools."
        ),
        primary="train",
        train_data=Data(
            duration_s=32.0, sample_rate_hz=50.0, seed=11, noise=3.0, persons=5, channels=X_PAIR
        ),
        # Ten persons the model never saw: the more windows, the less the
        # hold-out accuracy varies with the seed.
        holdout_data=Data(
            duration_s=32.0, sample_rate_hz=50.0, seed=11, noise=3.0, persons=10,
            first_person=5, channels=X_PAIR,
        ),
        repeats=3,
        workers=2,
        expect_windows=40,
        expect_classes=4,
        expect_rows=80,
        min_accuracy=0.0,  # not separable: the figure is reported, not gated
        predicts_per_cycle=5,
        expect_features=X_PAIR_FEATURES,
    ),
    "deploy": Workload(
        name="deploy",
        why=(
            "predict on a 600 s hold-out with a 20-feature model trained in "
            "each set-up: reads where desk writes; CSV ingest dominates, "
            "extraction is restricted, no forest is trained."
        ),
        primary="predict",
        train_data=Data(duration_s=160.0, sample_rate_hz=100.0, seed=42),
        holdout_data=Data(duration_s=600.0, sample_rate_hz=100.0, seed=777),
        repeats=2,
        workers=1,
        expect_windows=40,
        expect_classes=2,
        expect_rows=150,
        min_accuracy=0.85,
        skip_calculators=DEPLOY_SKIPS,
        expect_features=DEPLOY_FEATURES,
        predicts_per_cycle=4,
    ),
}
