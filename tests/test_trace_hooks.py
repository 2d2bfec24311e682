"""The benchmark's tracer wraps library functions by name.

``perfbench/spans.py`` replaces functions as bound in ``imufresh.pipeline``
and ``imufresh.forest``, plus two ``FeatureMatrix`` methods and
``FeatureName.canonical``.  Renaming or no longer importing one of them
breaks traced benchmark runs, so check here that the tracer can install
every wrapper and put every original back.  ``perfbench/bench.py`` is
imported too, so that a library name it imports cannot go unnoticed, and
the calls it makes of its own into the library are run.
"""

import importlib.util
import sys
from pathlib import Path

from imufresh import pipeline
from imufresh.synth import synth_walk_run
from imufresh.timeseries import save_labels, save_recording

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_restores_every_wrapped_attribute():
    spans = _load_spans()
    expected = len(spans._PIPELINE_CALLS) + len(spans._FOREST_CALLS) + len(spans._METHODS) + 1
    with spans.Tracer("hooks") as tracer:
        wrapped = list(tracer._restore)
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original, attr
    assert len(wrapped) == expected
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
    assert tracer.spans == []


def _work_config(work):
    """A training config laid out as a benchmark work directory, with the
    training recording as the hold-out, so that the deploy workload's calls
    can read what the run writes into ``work / "model"``."""
    data = synth_walk_run(duration_s=120.0, sample_rate_hz=50.0, seed=7)
    save_recording(data.recording, str(work / "holdout.csv"))
    save_labels(data.labels, str(work / "holdout_labels.csv"))
    return pipeline.PipelineConfig(
        recording=str(work / "holdout.csv"),
        labels=str(work / "holdout_labels.csv"),
        output_dir=str(work / "model"),
        repeats=1,
        n_trees=10,
        top_k=5,
    )


def test_traced_run_and_predict_span_every_stage_call(tmp_path):
    """A traced run and predict record each call the harness times, and the
    rank step's anchors keep their order: ``save_report`` ends before
    ``aggregate_importances`` starts, ``write_settings_file`` before
    ``cross_validate``.  A predict given labels labels its timeline in one
    ``resolve_label`` call.  The deploy workload's per-family timing reads
    the run's files too."""
    spans = _load_spans()
    config = _work_config(tmp_path)
    with spans.Tracer("hooks") as tracer:
        result = tracer.call("pipeline.run_full_pipeline", pipeline.run_full_pipeline, config)
        timeline = tracer.call(
            "pipeline.predict", pipeline.predict, result.model_path, result.settings_path,
            config.recording, result.manifest_path, config.labels,
        )
    assert list(timeline.step_seconds) == [
        "load", "ingest", "virtual_sensors", "segment", "extract", "predict", "timeline"
    ]
    layer = {attr: f"{module}.{attr}" for module, attr in spans._PIPELINE_CALLS}
    for attr in ("load_recording", "load_labels", "apply_virtual_sensors", "segment_fixed",
                 "extract", "save_matrix", "select_features", "save_report",
                 "aggregate_importances", "write_settings_file", "cross_validate",
                 "train_forest", "save_model_file", "load_model_file", "predict_proba"):
        assert tracer.named(layer[attr]), attr

    def ends(attr):
        return max(s.end for s in tracer.named(layer[attr]))

    def starts(attr):
        return min(s.start for s in tracer.named(layer[attr]))

    assert len(tracer.named("timeseries.resolve_label")) == 1
    assert ends("save_report") <= starts("aggregate_importances")
    assert ends("write_settings_file") <= starts("cross_validate")

    deploy = bench.WORKLOADS["deploy"]
    assert deploy.primary == "predict"
    seconds = bench.family_seconds(deploy, tmp_path)
    assert set(seconds) == {f"calculators.{family}.s" for family in bench.CALCULATOR_FAMILIES}
    assert sum(seconds.values()) > 0


def test_deploy_predict_call_writes_the_same_timeline_without_settings_file(tmp_path):
    """The deploy workload passes the run's ``settings_topk.txt`` to
    ``predict`` positionally; ``predict`` plans from ``model.txt`` alone, so
    the call writes the same timeline once the file is deleted."""
    pipeline.run_full_pipeline(_work_config(tmp_path))
    deploy = bench.WORKLOADS["deploy"]
    deploy.predict_call(tmp_path)()
    with_settings = (tmp_path / "timeline.csv").read_bytes()
    (tmp_path / "model" / "settings_topk.txt").unlink()
    deploy.predict_call(tmp_path)()
    assert (tmp_path / "timeline.csv").read_bytes() == with_settings
