"""Smoke test of the benchmark itself, on tiny versions of its workloads.

Run from the repository root (under a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from workloads import WORKLOADS, X_PAIR, Data  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# 40 labelled windows at 50 Hz: the smallest walk/run set on which the
# top 20 features still pass BY selection at q=0.05.
TINY_TRAIN = Data(duration_s=160.0, sample_rate_hz=50.0, seed=42)
TINY = {
    "desk": dataclasses.replace(
        WORKLOADS["desk"],
        train_data=dataclasses.replace(TINY_TRAIN, channels=X_PAIR),
        holdout_data=Data(
            duration_s=16.0, sample_rate_hz=50.0, seed=4242, drift=1.03, channels=X_PAIR
        ),
        repeats=1,
        expect_windows=40,
        expect_rows=4,
        predicts_per_cycle=2,
    ),
    "deploy": dataclasses.replace(
        WORKLOADS["deploy"],
        train_data=TINY_TRAIN,
        holdout_data=Data(duration_s=40.0, sample_rate_hz=50.0, seed=777),
        repeats=1,
        expect_rows=10,
        predicts_per_cycle=2,
    ),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (work dir, metrics, attempted, failed, detail)."""
    out = {}
    for name, workload in TINY.items():
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = (work, *bench.measure(workload, 0, 0.0, trace, work, "smoke"))
    return out


def test_units_match_the_contract():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted(runs, name, trace):
    _, metrics, attempted, failed, detail = runs[name, trace]
    assert failed == 0, detail["calls"]
    units = bench.PER_LAYER if trace else bench.END_TO_END
    line = json.loads(bench.result_line(metrics, units, attempted, failed))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == set(units)
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert metrics["trace.coverage"] >= 0.95
        assert metrics["names.canonical.calls"] > 0
        assert metrics["extraction.extract.cells"] > 0
    else:
        assert metrics["setup_s"] > 0 and metrics["success_rate"] == 1.0


def test_train_check_fires_on_corrupted_model(runs):
    work, _, _, _, detail = runs["desk", False]
    workload = TINY["desk"]
    reference = detail["calls"]["train"]["sha256"]
    assert workload.check_train(work, None, reference)[2] == []
    with open(work / "model" / "model.txt", "a", encoding="utf-8") as fh:
        fh.write("\n")
    problems = workload.check_train(work, None, reference)[2]
    assert problems == ["model.txt differs from the first call's"]


def test_train_check_fires_on_wrong_counts(runs):
    work, _, _, _, _ = runs["desk", True]
    wrong = dataclasses.replace(TINY["desk"], expect_windows=41, expect_classes=3)
    problems = wrong.check_train(work, None, None)[2]
    assert len(problems) == 2


def test_predict_check_fires_on_truncated_timeline(runs):
    work, _, _, _, detail = runs["deploy", False]
    workload = TINY["deploy"]
    reference = detail["calls"]["predict"]["sha256"]
    timeline = workload.predict_call(work)()
    assert workload.check_predict(work, timeline, reference)[2] == []
    path = work / "timeline.csv"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8")
    problems = workload.check_predict(work, timeline, reference)[2]
    assert problems == [
        f"timeline.csv has {workload.expect_rows - 1} rows, expected {workload.expect_rows}",
        "timeline.csv differs from the first call's",
    ]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
