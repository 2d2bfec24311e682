import dataclasses
import logging
import math
import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest

import oracles
from imufresh import pipeline
from imufresh.calculators import settings_from_feature_names, write_settings_file
from imufresh.errors import (
    BadParameters,
    ConfigError,
    DataError,
    NothingSelected,
    OverlappingLabels,
)
from imufresh.extraction import extract
from imufresh.forest import load_model_file
from imufresh.pipeline import (
    PipelineConfig,
    benchmark,
    load_config,
    predict,
    read_manifest,
    run_full_pipeline,
)
from imufresh.synth import synth_multi_activity, synth_walk_run
from imufresh.timeseries import (
    Recording,
    load_labels,
    load_recording,
    save_labels,
    save_recording,
    segment_fixed,
)
from imufresh.virtual import VirtualSensorSpec, apply_virtual_sensors

# The step timings, in run order, that the manifest and benchmark harness read.
STEPS = ("engineer", "extract", "select", "rank", "fit")
# The stage timings of ``predict``, in order.
PREDICT_STAGES = ("load", "ingest", "virtual_sensors", "segment", "extract", "predict",
                  "timeline")


@pytest.fixture(scope="module")
def train_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    result = synth_walk_run(duration_s=120.0, sample_rate_hz=50.0, seed=7)
    rec_path = root / "rec.csv"
    lab_path = root / "labels.csv"
    save_recording(result.recording, str(rec_path))
    save_labels(result.labels, str(lab_path))
    return rec_path, lab_path


def _config(train_data, out_dir, **kw):
    rec_path, lab_path = train_data
    defaults = dict(
        recording=str(rec_path),
        labels=str(lab_path),
        output_dir=str(out_dir),
        window_seconds=4.0,
        q=0.05,
        top_k=20,
        repeats=2,
        seed=11,
        n_trees=50,
        auto_pair=("_l", "_r"),
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def run_result(train_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = _config(train_data, out)
    return run_full_pipeline(config)


class TestSynth:
    def test_walk_run_shape(self):
        result = synth_walk_run(duration_s=40.0, sample_rate_hz=50.0, seed=1)
        assert result.recording.length == 2000
        assert len(result.recording.channels) == 6
        assert {lab for _, _, lab in result.labels} == {"walk", "run"}

    def test_blocks_tile_duration_on_window_multiples(self):
        result = synth_walk_run(duration_s=48.0, sample_rate_hz=50.0, seed=2)
        assert result.labels[0][0] == 0.0
        assert result.labels[-1][1] == 48.0
        for (_, end, _), (start, _, _) in zip(result.labels, result.labels[1:]):
            assert start == end
        assert all((end - start) % 4.0 == 0.0 for start, end, _ in result.labels)

    def test_deterministic(self):
        a = synth_walk_run(duration_s=24.0, seed=5)
        b = synth_walk_run(duration_s=24.0, seed=5)
        assert a.recording == b.recording
        assert a.labels == b.labels

    def test_seed_changes_noise(self):
        a = synth_walk_run(duration_s=24.0, seed=5)
        b = synth_walk_run(duration_s=24.0, seed=6)
        assert a.recording != b.recording

    def test_multi_activity_covers_all_four(self):
        result = synth_multi_activity(person=2, seed=3)
        assert {lab for _, _, lab in result.labels} == {"lay", "pushup", "run", "walk"}

    def test_persons_differ(self):
        a = synth_multi_activity(person=0, seed=3)
        b = synth_multi_activity(person=1, seed=3)
        assert a.recording != b.recording


class TestConfig:
    def test_parse_and_paths_relative_to_file(self, tmp_path):
        (tmp_path / "rec.csv").write_text("time,a\n0.0,1.0\n0.01,2.0\n")
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text(
            "recording = rec.csv\n"
            "output_dir = out\n"
            "window_seconds = 2.5\n"
            "q = 0.01\n"
            "top_k = 5\n"
            "virtual_sensor = abs_diff a b c\n"
            "auto_pair = _l _r\n"
            "virtual_sensor = derivative c d\n"
        )
        config = load_config(str(cfg_path))
        assert config.recording == str(tmp_path / "rec.csv")
        assert config.window_seconds == 2.5
        assert config.q == 0.01
        assert [spec.output for spec in config.virtual_sensors] == ["c", "d"]
        assert config.auto_pair == ("_l", "_r")

    def test_overrides_win(self, tmp_path):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text("recording = r.csv\noutput_dir = out\nq = 0.01\n")
        config = load_config(str(cfg_path), {"q": 0.2, "seed": 9})
        assert config.q == 0.2
        assert config.seed == 9

    def test_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text("recording = r.csv\noutput_dir = out\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg_path))

    def test_missing_required(self, tmp_path):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text("output_dir = out\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg_path))

    def test_out_override_fills_an_empty_output_dir(self, tmp_path):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text("recording = r.csv\noutput_dir =\n")
        with pytest.raises(ConfigError, match="missing or empty required key 'output_dir'"):
            load_config(str(cfg_path))
        config = load_config(str(cfg_path), {"output_dir": str(tmp_path / "o")})
        assert config.output_dir == str(tmp_path / "o")

    def test_key_tables_name_every_field(self):
        # One key per field; repeated ``virtual_sensor`` lines fill the
        # ``virtual_sensors`` field.
        keys = [*pipeline._INT_KEYS, *pipeline._FLOAT_KEYS, *pipeline._PATH_KEYS,
                "virtual_sensors", "auto_pair"]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(PipelineConfig))

    @pytest.mark.parametrize(
        "key, value",
        [("q", 1.5), ("window_seconds", math.nan), ("window_seconds", math.inf),
         ("window_seconds", -math.inf)],
    )
    def test_invalid_q_or_window_seconds(self, key, value):
        with pytest.raises(ConfigError):
            PipelineConfig(recording="r", output_dir="o", **{key: value})

    @pytest.mark.parametrize("key", ["labels", "settings_file"])
    def test_empty_optional_path_names_its_line(self, tmp_path, key):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text(f"recording = r.csv\noutput_dir = out\n{key} =\n")
        with pytest.raises(ConfigError, match=f"pipe.cfg:3: {key} is empty"):
            load_config(str(cfg_path))

    @pytest.mark.parametrize(
        "key, first, second",
        [("seed", "1", "2"), ("auto_pair", "_l _r", "_a _b"), ("labels", "a.csv", "b.csv"),
         ("output_dir", "", "out")],
    )
    def test_repeated_key_names_both_lines(self, tmp_path, key, first, second):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text(f"recording = r.csv\n{key} = {first}\nq = 0.1\n{key} = {second}\n")
        with pytest.raises(ConfigError, match=f"pipe.cfg:4: {key} given twice \\(first on line 2\\)"):
            load_config(str(cfg_path), {"output_dir": str(tmp_path / "o")})

    @pytest.mark.parametrize("key", sorted(pipeline._PATH_KEYS))
    def test_nul_byte_in_a_path_names_its_key_and_line(self, tmp_path, key):
        paths = {"recording": "r.csv", "output_dir": "out", key: "a\0b.csv"}
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text("q = 0.1\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()))
        line = 2 + list(paths).index(key)
        with pytest.raises(ConfigError, match=f"pipe.cfg:{line}: {key} holds a NUL byte"):
            load_config(str(cfg_path))

    def test_top_k_zero_rejected(self, tmp_path):
        cfg_path = tmp_path / "pipe.cfg"
        cfg_path.write_text("recording = r.csv\noutput_dir = out\ntop_k = 0\n")
        with pytest.raises(ConfigError, match="top_k"):
            load_config(str(cfg_path))


class TestFullRun:
    def test_artifacts_exist(self, run_result):
        for path in (
            run_result.engineered_path,
            run_result.matrix_path,
            run_result.selection_path,
            run_result.importance_path,
            run_result.settings_path,
            run_result.model_path,
            run_result.manifest_path,
        ):
            assert Path(path).exists(), path

    def test_selected_at_least_one(self, run_result):
        assert len(run_result.report.selected) >= 1

    def test_manifest_counts(self, run_result):
        manifest = read_manifest(run_result.manifest_path)
        assert manifest["n_labeled_windows"] == [str(run_result.matrix.n_rows)]
        assert manifest["n_features_full"] == [str(run_result.matrix.n_cols)]
        assert manifest["n_selected"] == [str(len(run_result.report.selected))]
        assert int(manifest["top_k_effective"][0]) == len(run_result.top_features)
        assert len(manifest["virtual_sensor"]) == 3
        assert "classes" in manifest

    def test_step_seconds_in_step_order(self, run_result):
        steps = run_result.step_seconds
        assert list(steps) == list(STEPS)
        assert all(seconds >= 0 for seconds in steps.values())

    def test_manifest_step_times_in_step_order(self, run_result):
        keys = [line.partition("=")[0].strip()
                for line in Path(run_result.manifest_path).read_text().splitlines()]
        assert [k for k in keys if k.startswith("time_")] == [
            f"time_{step}_seconds" for step in STEPS
        ]

    def test_specialized_cv_recorded(self, run_result):
        manifest = read_manifest(run_result.manifest_path)
        assert float(manifest["specialized_cv_accuracy"][0]) == run_result.cv.mean_accuracy

    def test_ranking_restricted_to_selected(self, run_result):
        selected = set(run_result.report.selected_canonical())
        assert {f.canonical() for f, _ in run_result.ranked} <= selected

    def test_restriction_consistency_bitwise(self, run_result):
        """Restricted re-extraction must reproduce the full-matrix columns."""
        engineered = load_recording(run_result.engineered_path)
        windows = segment_fixed(
            engineered, run_result.config.window_seconds,
            labels=None,
        )
        settings = settings_from_feature_names(
            [f.canonical() for f in run_result.top_features]
        )
        restricted = extract(windows, engineered, settings)
        full_subset = run_result.matrix.subset(run_result.top_features)
        # prediction-mode windows include unlabeled ones; align on window id
        id_to_row = {wid: i for i, wid in enumerate(restricted.window_ids)}
        rows = [id_to_row[wid] for wid in full_subset.window_ids]
        assert restricted.values[rows].tobytes() == full_subset.values.tobytes()

    def test_nothing_selected_halts_after_step3(self, train_data, tmp_path):
        config = _config(train_data, tmp_path / "strict", q=1e-9, repeats=1)
        with pytest.raises(NothingSelected):
            run_full_pipeline(config)
        assert (tmp_path / "strict" / "selection.csv").exists()
        assert not (tmp_path / "strict" / "model.txt").exists()

    def test_top_k_clamped(self, train_data, tmp_path):
        config = _config(
            train_data, tmp_path / "clamp",
            settings_file=None, top_k=10**6, repeats=1, n_trees=20,
        )
        result = run_full_pipeline(config)
        assert len(result.top_features) <= result.matrix.n_cols
        manifest = read_manifest(result.manifest_path)
        assert int(manifest["top_k_effective"][0]) == len(result.top_features)


class TestPredict:
    def test_training_recording_accuracy_bounds_cv(self, run_result, train_data):
        rec_path, lab_path = train_data
        timeline = predict(
            run_result.model_path,
            run_result.settings_path,
            str(rec_path),
            run_result.manifest_path,
            labels_path=str(lab_path),
        )
        accuracy = timeline.accuracy()
        assert accuracy is not None
        assert accuracy >= run_result.cv.mean_accuracy

    def test_holdout_with_drift(self, run_result, tmp_path):
        holdout = synth_walk_run(duration_s=48.0, sample_rate_hz=50.0, seed=99, drift=1.03)
        rec = tmp_path / "hold.csv"
        lab = tmp_path / "hold_labels.csv"
        save_recording(holdout.recording, str(rec))
        save_labels(holdout.labels, str(lab))
        out = tmp_path / "timeline.csv"
        timeline = predict(
            run_result.model_path,
            run_result.settings_path,
            str(rec),
            run_result.manifest_path,
            labels_path=str(lab),
            out_path=str(out),
        )
        assert timeline.accuracy() >= 0.85
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "window_id,start_s,end_s,prob_run,prob_walk,predicted,true_label,misclassified"
        )
        assert len(lines) == len(timeline.rows) + 1

    def test_probabilities_sum_to_one(self, run_result, train_data):
        rec_path, _ = train_data
        timeline = predict(
            run_result.model_path,
            run_result.settings_path,
            str(rec_path),
            run_result.manifest_path,
        )
        for row in timeline.rows:
            assert abs(sum(row.probabilities) - 1.0) <= 1e-9
            assert row.true_label is None

    def test_run_directory_without_settings_file_predicts_the_same(
        self, run_result, train_data, tmp_path
    ):
        # ``settings_topk.txt`` is written for the record; the model alone
        # plans the extraction, so the slot's path is never opened.
        rec_path, lab_path = train_data
        art = tmp_path / "art"
        shutil.copytree(run_result.config.output_dir, art)
        paths = (str(art / "model.txt"), str(art / "settings_topk.txt"), str(rec_path),
                 str(art / "manifest.txt"))
        with_file = predict(*paths, str(lab_path), str(tmp_path / "with.csv"))
        (art / "settings_topk.txt").unlink()
        without = predict(*paths, str(lab_path), str(tmp_path / "without.csv"))
        assert with_file == without
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()

    def test_overlapping_labels_rejected(self, run_result, train_data, tmp_path):
        rec_path, _ = train_data
        labels = tmp_path / "overlap.csv"
        save_labels([(0.0, 10.0, "walk"), (5.0, 20.0, "run")], str(labels))
        with pytest.raises(OverlappingLabels):
            predict(
                run_result.model_path,
                run_result.settings_path,
                str(rec_path),
                run_result.manifest_path,
                labels_path=str(labels),
            )

    def test_true_labels_are_the_oracles(self, run_result, train_data, tmp_path):
        # The training labels shifted by 1 s and reversed: windows that
        # straddle a shifted edge have no true label.
        rec_path, lab_path = train_data
        shifted = [(a + 1.0, b + 1.0, label)
                   for a, b, label in reversed(load_labels(str(lab_path)))]
        labels = tmp_path / "shifted.csv"
        save_labels(shifted, str(labels))
        timeline = predict(run_result.model_path, None, str(rec_path),
                           run_result.manifest_path, labels_path=str(labels))
        want = [label for *_, label in oracles.tiles(load_recording(str(rec_path)), 200, shifted)]
        assert [row.true_label for row in timeline.rows] == want
        assert None in want and {"walk", "run"} <= set(want)

    def test_windows_ordered_by_time(self, run_result, train_data):
        rec_path, _ = train_data
        timeline = predict(
            run_result.model_path,
            run_result.settings_path,
            str(rec_path),
            run_result.manifest_path,
        )
        starts = [r.start_s for r in timeline.rows]
        assert starts == sorted(starts)

    def test_unreferenced_virtual_sensor_is_not_applied(self, run_result, train_data, tmp_path):
        # the extra spec's input is missing, so applying it would raise UnknownKind
        rec_path, _ = train_data
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            Path(run_result.manifest_path).read_text()
            + "virtual_sensor = derivative gyro_q_l gyro_q_l_rate\n"
        )
        args = (run_result.model_path, run_result.settings_path, str(rec_path))
        timeline = predict(*args, str(manifest))
        assert timeline == predict(*args, run_result.manifest_path)


    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_worker_count_rejected_before_any_file_is_read(self, tmp_path, workers):
        missing = str(tmp_path / "missing")
        with pytest.raises(BadParameters, match=f"workers must be >= 1, got {workers}"):
            predict(missing, missing, missing, missing, workers=workers)


class TestInputThatIsNotUtf8:
    """Every reader of a text artifact raises DataError, an ImufreshError,
    for a file holding a byte that is not UTF-8, and keeps the codec's
    message."""

    @staticmethod
    def _not_utf8(tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"key = caf\xe9\n")
        return str(path)

    @pytest.mark.parametrize("read", [read_manifest, load_model_file])
    def test_artifact_readers(self, tmp_path, read):
        with pytest.raises(DataError, match="not UTF-8: 'utf-8' codec can't decode"):
            read(self._not_utf8(tmp_path, "artifact.txt"))

    def test_training_settings_file(self, train_data, tmp_path):
        config = _config(train_data, tmp_path / "out",
                         settings_file=self._not_utf8(tmp_path, "settings.txt"))
        with pytest.raises(DataError, match="settings file .* can't decode"):
            run_full_pipeline(config)


class TestDeterminism:
    def test_identical_runs_bitwise(self, train_data, tmp_path):
        config_a = _config(train_data, tmp_path / "a", repeats=1, n_trees=20)
        config_b = _config(train_data, tmp_path / "b", repeats=1, n_trees=20)
        ra = run_full_pipeline(config_a)
        rb = run_full_pipeline(config_b)
        assert Path(ra.model_path).read_text() == Path(rb.model_path).read_text()
        assert Path(ra.selection_path).read_text() == Path(rb.selection_path).read_text()
        assert Path(ra.settings_path).read_text() == Path(rb.settings_path).read_text()

        def stable_manifest(path):
            return [
                line for line in Path(path).read_text().splitlines()
                if not line.startswith("time_")
            ]

        assert stable_manifest(ra.manifest_path) == stable_manifest(rb.manifest_path)

    def test_worker_count_does_not_change_artifacts(self, train_data, tmp_path):
        runs = [
            run_full_pipeline(
                _config(train_data, tmp_path / f"w{workers}", repeats=2, n_trees=40,
                        workers=workers)
            )
            for workers in (1, 2)
        ]
        for name in ("features_full.csv", "selection.csv", "importance.csv",
                     "settings_topk.txt", "model.txt"):
            one, two = (Path(r.config.output_dir, name).read_bytes() for r in runs)
            assert one == two, name

    def test_fan_out_leaves_no_process_running(self, train_data, tmp_path):
        artifacts = {}
        for workers in (1, 2, 3):
            result = run_full_pipeline(
                _config(train_data, tmp_path / f"w{workers}", repeats=3, n_trees=20,
                        workers=workers)
            )
            assert multiprocessing.active_children() == []
            artifacts[workers] = [
                Path(result.model_path).read_bytes(), Path(result.importance_path).read_bytes()
            ]
        assert artifacts[2] == artifacts[1]
        assert artifacts[3] == artifacts[1]


def test_benchmark_times_a_run_and_predict_and_keeps_no_artifacts(train_data, tmp_path):
    settings_path = tmp_path / "tiny_settings.txt"
    settings_path.write_text("accel_x_l__minimum\naccel_x_r__variance\n")
    out = tmp_path / "bench"
    out.mkdir()
    seconds = benchmark(_config(train_data, out, settings_file=str(settings_path), workers=2))
    assert list(seconds) == ["run", "predict"]
    assert tuple(seconds["run"]) == STEPS
    assert tuple(seconds["predict"]) == PREDICT_STAGES
    assert list(out.iterdir()) == []


class TestExplicitVirtualSensors:
    def test_derivative_spec_flows_through_run_and_predict(self, train_data, tmp_path):
        rec_path, _ = train_data
        settings_path = tmp_path / "restricted.txt"
        settings_path.write_text("accel_x_l_rate__variance\naccel_x_l__variance\n")
        config = _config(
            train_data, tmp_path / "vs",
            auto_pair=None,
            virtual_sensors=(
                VirtualSensorSpec("derivative", ("accel_x_l",), "accel_x_l_rate"),
            ),
            settings_file=str(settings_path),
            repeats=1, n_trees=20,
        )
        result = run_full_pipeline(config)
        engineered = load_recording(result.engineered_path)
        assert "accel_x_l_rate" in engineered.channels
        # predict must replay the derivative spec recorded in the manifest
        timeline = predict(
            result.model_path, result.settings_path, str(rec_path), result.manifest_path
        )
        assert len(timeline.rows) == 30

    def test_predict_applies_referenced_specs_in_manifest_order(
        self, train_data, tmp_path, monkeypatch
    ):
        rec_path, _ = train_data
        settings_path = tmp_path / "restricted.txt"
        settings_path.write_text("dx_rate__variance\ndx_rate__abs_energy\n")
        specs = (
            VirtualSensorSpec("diff", ("accel_x_l", "accel_x_r"), "dx"),
            VirtualSensorSpec("abs_diff", ("accel_y_l", "accel_y_r"), "dy"),
            VirtualSensorSpec("derivative", ("dx",), "dx_rate"),
        )
        config = _config(
            train_data, tmp_path / "vs", auto_pair=None, virtual_sensors=specs,
            settings_file=str(settings_path), repeats=1, n_trees=20,
        )
        result = run_full_pipeline(config)
        assert {f.kind for f in result.top_features} == {"dx_rate"}
        applied = []

        def spy(recording, specs):
            applied.append(list(specs))
            return apply_virtual_sensors(recording, specs)

        monkeypatch.setattr(pipeline, "apply_virtual_sensors", spy)
        predict(result.model_path, result.settings_path, str(rec_path), result.manifest_path)
        assert applied == [[specs[0], specs[2]]]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_selected_column_with_infinite_cells_is_dropped_before_ranking(tmp_path, caplog):
    # The walk windows' samples sum past -1.8e308, so their mean is -inf: a
    # perfect separator that a forest would split at the threshold -inf,
    # which no model file may hold.  Their minimum separates as well and
    # stays finite.
    walk = np.arange(12) % 2 == 0
    rng = np.random.default_rng(3)
    big = np.concatenate([np.full(200, -1e307) if w else rng.standard_normal(200) for w in walk])
    rec_path, lab_path = tmp_path / "rec.csv", tmp_path / "labels.csv"
    save_recording(Recording(50.0, {"big": big}), str(rec_path))
    save_labels([(4.0 * i, 4.0 * i + 4.0, "walk" if w else "run") for i, w in enumerate(walk)],
                str(lab_path))
    settings_path = tmp_path / "settings.txt"
    with open(settings_path, "w", encoding="utf-8") as fh:
        write_settings_file(settings_from_feature_names(["big__mean", "big__minimum"]), fh)
    config = PipelineConfig(
        recording=str(rec_path), labels=str(lab_path), output_dir=str(tmp_path / "out"),
        top_k=2, repeats=2, n_trees=20, cv_folds=3, settings_file=str(settings_path),
    )
    with caplog.at_level(logging.INFO, logger="imufresh.pipeline"):
        result = run_full_pipeline(config)
    manifest = read_manifest(result.manifest_path)
    assert (manifest["n_selected"], manifest["n_selected_usable"]) == (["2"], ["1"])
    assert "dropping 1 selected columns with NaN or infinite cells" in caplog.text
    model = load_model_file(result.model_path)
    assert [f.canonical() for f in model.feature_names] == ["big__minimum"]
    paths = (result.model_path, result.settings_path, str(rec_path), result.manifest_path)
    assert len(predict(*paths).rows) == 12
