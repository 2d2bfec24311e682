"""Set up a workload, time its calls, check their outputs, report metrics.

``measure`` is the whole benchmark for one workload; ``main`` adds the
command line and prints the result as the last line of standard output.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced primary call (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from imufresh.calculators import ExtractionSettings, default_settings, read_settings_file
from imufresh.extraction import extract
from imufresh.pipeline import read_manifest
from imufresh.timeseries import load_labels, load_recording, segment_fixed
from imufresh.virtual import VirtualSensorSpec, apply_virtual_sensors
from spans import Tracer, covered_seconds, wrapper_costs
from workloads import OP_NAMES, WINDOW_SECONDS, WORKLOADS, Workload

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "predict_s": "s",
    "cv_accuracy": "ratio",
    "holdout_accuracy": "ratio",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# README families -> calculators.
CALCULATOR_FAMILIES = {
    "distribution": (
        "minimum", "maximum", "mean", "median", "variance", "standard_deviation",
        "skewness", "kurtosis", "abs_energy", "root_mean_square",
    ),
    "quantiles": ("quantile",),
    "change": ("mean_abs_change", "mean_change"),
    "change_quantiles": ("change_quantiles",),
    "trend": ("linear_trend",),
    "agg_linear_trend": ("agg_linear_trend",),
    "correlation": ("autocorrelation",),
    "stationarity": ("partial_stationarity_gap",),
    "entropy": ("binned_entropy",),
    "nonlinear": ("c3", "time_reversal_asymmetry_statistic"),
}

# Spans whose summed duration is reported as "<name>.s".
TIMED_SPANS = (
    "timeseries.load_recording",
    "timeseries.save_recording",
    "timeseries.segment_fixed",
    "virtual.apply_virtual_sensors",
    "extraction.extract",
    "extraction.save_matrix",
    "extraction.FeatureMatrix.column_index",
    "extraction.FeatureMatrix.subset",
    "selection.select_features",
    "forest.aggregate_importances",
    "forest.cross_validate",
    "forest.train_forest",
    "forest.predict_proba",
    "forest.save_model_file",
    "forest.load_model_file",
)
PIPELINE_STAGES = ("engineer", "extract", "select", "rank", "fit")

PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_SPANS},
    "timeseries.load_recording.rows_per_s": "rows/s",
    "extraction.extract.cells": "count",
    "extraction.extract.cells_per_s": "cells/s",
    **{f"calculators.{family}.s": "s" for family in CALCULATOR_FAMILIES},
    "names.canonical.calls": "count",
    "extraction.FeatureMatrix.column_index.calls": "count",
    "selection.tests": "count",
    "selection.selected": "count",
    "forest.train_forest.calls": "count",
    "forest.nodes": "count",
    "forest.nodes_per_s": "nodes/s",
    **{f"pipeline.{stage}.s": "s" for stage in PIPELINE_STAGES},
    "pipeline.rank.self_s": "s",
    "pipeline.predict.self_s": "s",
    "process.cpu_s": "s",
    "process.children_cpu_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its reaped children.

    ``ru_maxrss`` is in KiB on Linux.  On ``hard`` two pool workers run side
    by side, so this leaves out the second one; ``desk`` and ``deploy`` start
    no pool, so there it is the process's own peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha(root: Path) -> str:
    """HEAD's commit read straight from ``.git``; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, workload: Workload) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "workers": workload.workers,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced call
# ---------------------------------------------------------------------------

def family_seconds(workload: Workload, work: Path) -> dict[str, float]:
    """One ``extract`` call per calculator family, at workers=1, untraced.

    Training workloads extract the full grid of their training recording;
    ``deploy`` extracts its model's features on the hold-out, so a family the
    model does not use costs nothing there.
    """
    model = work / "model"
    specs = [
        VirtualSensorSpec.from_line(line)
        for line in read_manifest(str(model / "manifest.txt")).get("virtual_sensor", [])
    ]
    if workload.primary == "train":
        recording = apply_virtual_sensors(load_recording(str(work / "train.csv")), specs)
        windows = segment_fixed(recording, WINDOW_SECONDS, load_labels(str(work / "train_labels.csv")))
        features = default_settings(recording.channels).features
    else:
        recording = apply_virtual_sensors(load_recording(str(work / "holdout.csv")), specs)
        windows = segment_fixed(recording, WINDOW_SECONDS, None)
        with open(model / "settings_topk.txt", encoding="utf-8") as fh:
            features = read_settings_file(fh, set(recording.channels)).features
    out = {}
    for family, calculators in CALCULATOR_FAMILIES.items():
        chosen = tuple(f for f in features if f.calculator in calculators)
        seconds = 0.0
        if chosen:
            start = perf_counter()
            extract(windows, recording, ExtractionSettings(features=chosen), workers=1)
            seconds = perf_counter() - start
        out[f"calculators.{family}.s"] = seconds
    return out


def layer_metrics(tracer: Tracer, op_name: str, steps: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced call.

    ``trace.overhead`` is traced / untraced - 1, with the untraced time taken
    as the traced call minus what its spans and counts cost (``wrapper_costs``):
    timing a second, untraced call would add a whole training run, and its
    run-to-run noise exceeds the overhead it is meant to show.
    """
    (op,) = [s for s in tracer.spans if s.name == op_name and s.parent is None]
    children = tracer.children(op)
    counts = tracer.counts
    m = {f"{name}.s": tracer.total(name) for name in TIMED_SPANS}
    m["timeseries.load_recording.rows_per_s"] = _ratio(
        counts.get("timeseries.load_recording.rows", 0), m["timeseries.load_recording.s"]
    )
    m["extraction.extract.cells"] = counts.get("extraction.extract.cells", 0)
    m["extraction.extract.cells_per_s"] = _ratio(m["extraction.extract.cells"], m["extraction.extract.s"])
    m["names.canonical.calls"] = counts["names.canonical.calls"]
    m["extraction.FeatureMatrix.column_index.calls"] = len(tracer.named("extraction.FeatureMatrix.column_index"))
    m["selection.tests"] = counts.get("selection.tests", 0)
    m["selection.selected"] = counts.get("selection.selected", 0)
    m["forest.train_forest.calls"] = len(tracer.named("forest.train_forest"))
    m["forest.nodes"] = counts.get("forest.nodes", 0)
    m["forest.nodes_per_s"] = _ratio(m["forest.nodes"], m["forest.train_forest.s"])

    for stage in PIPELINE_STAGES:
        m[f"pipeline.{stage}.s"] = steps.get(stage, 0.0)
    m["pipeline.rank.self_s"] = 0.0
    m["pipeline.predict.self_s"] = 0.0
    if op_name == OP_NAMES["train"]:
        if "rank" in steps:
            # The rank step runs from the end of save_report to the end of
            # write_settings_file; its self time is what no child span covers.
            begin = max(s.end for s in children if s.name == "selection.save_report")
            end = max(s.end for s in children if s.name == "calculators.write_settings_file")
            in_rank = [s for s in children if s.start >= begin and s.end <= end]
            m["pipeline.rank.self_s"] = steps["rank"] - covered_seconds(in_rank)
    else:
        m["pipeline.predict.self_s"] = op.seconds - covered_seconds(children)
    m["trace.coverage"] = covered_seconds(children) / op.seconds
    span_cost, count_cost = wrapper_costs()
    overhead = len(tracer.spans) * span_cost + counts["names.canonical.calls"] * count_cost
    m["trace.overhead"] = overhead / (op.seconds - overhead)
    return m


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path, run_id: str):
    """Run *workload* in *work*; returns (metrics, attempted, failed, detail).

    *metrics* maps each end-to-end metric (or, with *trace*, each per-layer
    metric) to its value.  *seed* is added to the hold-out's data seed, so
    seed 0 gives the seeds documented in ``workloads.py``.

    Untraced, the run repeats the workload's cycle (a set-up, then its
    calls) and starts another only while it still fits in *seconds*; the
    first always runs.  Set-ups, training calls and predictions are thus all
    sampled across the whole run.  ``setup_s`` is the median set-up;
    ``train_s`` and ``predict_s`` are the mean call, that is the time spent
    in calls of that kind over their number.  On a shared host a process's
    speed can switch between a fast and a slow state every few seconds; the
    median of a run's calls then jumps with the share of time spent in each,
    where the mean follows it smoothly (see ``README.md``).
    """
    outcomes = {"train": [], "predict": []}
    setup_samples = []

    def call(kind: str, tracer: Tracer | None = None):
        done = outcomes[kind]
        outcome = workload.run(kind, work, done[0].hashes if done else None, tracer)
        done.append(outcome)
        return outcome

    def set_up() -> None:
        # Writes the same files every time; a predict-primary workload also
        # trains its model here.
        start = perf_counter()
        workload.write_inputs(work, seed)
        if workload.primary == "predict":
            call("train")
        setup_samples.append(perf_counter() - start)

    primary = workload.primary
    if trace:
        set_up()
        cpu_self = _cpu_seconds(resource.RUSAGE_SELF)
        cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN)
        with Tracer(run_id) as tracer:
            traced = call(primary, tracer)
        metrics = {
            "process.cpu_s": _cpu_seconds(resource.RUSAGE_SELF) - cpu_self,
            "process.children_cpu_s": _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children,
        }
        tracer.write(str(work / "spans.jsonl"))
        metrics.update(layer_metrics(tracer, OP_NAMES[primary], traced.step_seconds))
        metrics.update(family_seconds(workload, work))
    else:
        started = perf_counter()
        while True:
            begun = perf_counter()
            set_up()
            for kind in workload.calls_per_cycle():
                call(kind)
            now = perf_counter()
            if (now - started) + (now - begun) > seconds:
                break
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "train_s": statistics.mean(o.seconds for o in outcomes["train"]),
            "predict_s": statistics.mean(o.seconds for o in outcomes["predict"]),
            "cv_accuracy": statistics.median(o.accuracy for o in outcomes["train"]),
            "holdout_accuracy": statistics.median(o.accuracy for o in outcomes["predict"]),
            "peak_rss_mb": peak_rss_mb(),
        }

    every = outcomes["train"] + outcomes["predict"]
    attempted = len(every)
    failed = sum(1 for o in every if o.problems)
    if not trace:
        metrics["success_rate"] = 1.0 - failed / attempted
    detail = {
        "setup_samples_s": setup_samples,
        "calls": {
            kind: {
                "seconds": [o.seconds for o in done],
                "accuracy": [o.accuracy for o in done],
                "sha256": done[0].hashes if done else {},
                "problems": [p for o in done for p in o.problems],
            }
            for kind, done in outcomes.items()
        },
    }
    return metrics, attempted, failed, detail


def result_line(metrics: dict[str, float], units: dict[str, str], attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv: list[str] | None, root: Path) -> int:
    parser = argparse.ArgumentParser(description="Run one imufresh benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the hold-out recording's data seed (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the timed run: the workload's cycle of a set-up "
                             "and its calls repeats while another fits (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of one traced primary call")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = f"{workload.name}-{args.seed}-{os.getpid()}"
    metrics, attempted, failed, detail = measure(
        workload, args.seed, args.seconds, bool(args.trace), work, run_id
    )
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root, workload),
        **detail,
    }
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, value in metrics.items():
        print(f"{name:<45} {value:>16.6g}")
    print("detail: " + json.dumps(report))
    print(result_line(metrics, PER_LAYER if args.trace else END_TO_END, attempted, failed))
    return 0
