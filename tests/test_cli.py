import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from imufresh.cli import main
from imufresh.timeseries import Recording, load_recording, save_recording


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "synth",
        "--profile", "walkrun",
        "--out-recording", str(root / "rec.csv"),
        "--out-labels", str(root / "labels.csv"),
        "--duration", "80", "--rate", "50", "--seed", "3",
    ])
    assert rc == 0
    (root / "pipe.cfg").write_text(
        "recording = rec.csv\n"
        "labels = labels.csv\n"
        "output_dir = artifacts\n"
        "window_seconds = 4.0\n"
        "repeats = 1\n"
        "n_trees = 30\n"
        "auto_pair = _l _r\n"
    )
    return root


@pytest.fixture(scope="module")
def artifacts(workspace):
    """The artifacts of one ``imufresh run`` on the workspace."""
    rc = main(["run", "--config", str(workspace / "pipe.cfg"), "--seed", "5"])
    assert rc == 0
    return workspace / "artifacts"


def test_synth_writes_files(workspace):
    assert (workspace / "rec.csv").exists()
    header = (workspace / "rec.csv").read_text().splitlines()[0]
    assert header == "time,kind,value"
    assert (workspace / "labels.csv").read_text().splitlines()[0] == "start_s,end_s,label"


def test_run_and_predict(workspace, artifacts, capsys):
    assert (artifacts / "model.txt").exists()
    rc = main([
        "predict",
        "--artifacts", str(artifacts),
        "--recording", str(workspace / "rec.csv"),
        "--labels", str(workspace / "labels.csv"),
        "--out", str(workspace / "timeline.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert (workspace / "timeline.csv").exists()


def test_nothing_selected_exit_code(workspace):
    rc = main([
        "run", "--config", str(workspace / "pipe.cfg"),
        "--q", "1e-12", "--out", str(workspace / "strict"),
    ])
    assert rc == 4


def test_failed_rerun_leaves_no_manifest_to_predict_with(workspace, tmp_path):
    run = ["run", "--config", str(workspace / "pipe.cfg"), "--out", str(tmp_path / "art")]
    assert main(run) == 0
    assert main([*run, "--q", "1e-12"]) == 4
    assert (tmp_path / "art" / "model.txt").exists()  # the first run's
    rc = main([
        "predict",
        "--artifacts", str(tmp_path / "art"),
        "--recording", str(workspace / "rec.csv"),
        "--out", str(tmp_path / "timeline.csv"),
    ])
    assert rc == 3


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("recording = r.csv\noutput_dir = out\nnot_a_key = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2


def test_data_error_exit_code(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,kind,value\n0.0,a,nan\n0.01,a,1.0\n")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"recording = {bad}\nlabels = {bad}\noutput_dir = out\n")
    assert main(["run", "--config", str(cfg)]) == 3


def test_top_k_zero_is_a_config_error(workspace):
    out = workspace / "topk0"
    rc = main(["run", "--config", str(workspace / "pipe.cfg"), "--top-k", "0",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_trees", "min_leaf", "mtry", "max_depth"])
def test_forest_param_zero_is_a_config_error(workspace, key):
    cfg = workspace / f"{key}0.cfg"
    cfg.write_text((workspace / "pipe.cfg").read_text() + f"{key} = 0\n")
    out = workspace / f"{key}0"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_corrupt_model_exit_code(workspace, artifacts, tmp_path):
    lines = (artifacts / "model.txt").read_text().splitlines()
    split = next(i for i, line in enumerate(lines) if line.startswith("split "))
    parts = lines[split].split()
    lines[split] = " ".join(parts[:3] + ["999", parts[4]])
    (tmp_path / "model.txt").write_text("\n".join(lines) + "\n")
    rc = main([
        "predict",
        "--model", str(tmp_path / "model.txt"),
        "--settings", str(artifacts / "settings_topk.txt"),
        "--manifest", str(artifacts / "manifest.txt"),
        "--recording", str(workspace / "rec.csv"),
        "--out", str(tmp_path / "timeline.csv"),
    ])
    assert rc == 3


def test_non_numeric_model_token_exit_code(workspace, artifacts, tmp_path):
    text = (artifacts / "model.txt").read_text()
    (tmp_path / "model.txt").write_text(re.sub(r"^tree \d+$", "tree x", text, count=1, flags=re.M))
    rc = main([
        "predict",
        "--model", str(tmp_path / "model.txt"),
        "--settings", str(artifacts / "settings_topk.txt"),
        "--manifest", str(artifacts / "manifest.txt"),
        "--recording", str(workspace / "rec.csv"),
        "--out", str(tmp_path / "timeline.csv"),
    ])
    assert rc == 3


def test_benchmark_prints_stage_times_as_json(workspace, capsys):
    rc = main(["benchmark", "--config", str(workspace / "pipe.cfg"), "--workers", "2"])
    assert rc == 0
    seconds = json.loads(capsys.readouterr().out)
    assert list(seconds) == ["run", "predict"]
    assert list(seconds["run"]) == ["engineer", "extract", "select", "rank", "fit"]
    assert list(seconds["predict"]) == [
        "load", "ingest", "virtual_sensors", "segment", "extract", "predict", "timeline"
    ]
    assert all(s >= 0 for stages in seconds.values() for s in stages.values())


def test_benchmark_workers_zero_is_a_config_error(workspace):
    assert main(["benchmark", "--config", str(workspace / "pipe.cfg"), "--workers", "0"]) == 2


@pytest.mark.parametrize(
    "key, value",
    [("window_seconds", "abc"), ("window_seconds", "nan"), ("window_seconds", "inf"),
     ("window_seconds", "-1"), ("virtual_sensor", "bogus")],
)
def test_bad_manifest_value_is_a_data_error(artifacts, tmp_path, capsys, key, value):
    lines = [
        line for line in (artifacts / "manifest.txt").read_text().splitlines()
        if not line.startswith(f"{key} =")
    ]
    (tmp_path / "manifest.txt").write_text("\n".join([*lines, f"{key} = {value}", ""]))
    rc = main([
        "predict",
        "--model", str(artifacts / "model.txt"),
        "--settings", str(artifacts / "settings_topk.txt"),
        "--manifest", str(tmp_path / "manifest.txt"),
        # Missing, so reading it first would fail with another message.
        "--recording", str(tmp_path / "missing.csv"),
        "--out", str(tmp_path / "timeline.csv"),
    ])
    assert rc == 3
    assert f"data error: manifest key '{key}'" in capsys.readouterr().err


def test_inspect_manifest(artifacts, capsys):
    rc = main(["inspect", str(artifacts / "manifest.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tool_version" in out


def test_inspect_model(artifacts, capsys):
    rc = main(["inspect", str(artifacts / "model.txt")])
    assert rc == 0
    assert "forest:" in capsys.readouterr().out


def test_predict_on_a_recording_shorter_than_one_window(workspace, artifacts, tmp_path, capsys):
    # 100 samples at 50 Hz; the model's windows are 4 s (200 samples).
    full = load_recording(str(workspace / "rec.csv"))
    channels = {kind: values[:100] for kind, values in full.channels.items()}
    save_recording(Recording(full.sample_rate_hz, channels, full.t0), str(tmp_path / "short.csv"))
    rc = main([
        "predict",
        "--artifacts", str(artifacts),
        "--recording", str(tmp_path / "short.csv"),
        "--out", str(tmp_path / "timeline.csv"),
    ])
    assert rc == 0
    assert "(0 windows)" in capsys.readouterr().out
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("window_id,start_s,end_s,prob_")


def test_inspect_missing_file(tmp_path):
    assert main(["inspect", str(tmp_path / "nope.txt")]) == 3


def _cli_process(cwd, *args):
    """Exit code and standard error of the command line run as a program."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "imufresh.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "args, code",
    [
        (["run", "--config", "bad.cfg"], 2),
        (["inspect", "manifest.txt"], 3),
        (["inspect", "model.txt"], 3),
        (["inspect", "table.csv"], 3),
        (["predict", "--manifest", "manifest.txt", "--model", "model.txt",
          "--settings", "s.txt", "--recording", "rec.csv", "--out", "t.csv"], 3),
        (["predict", "--manifest", "good_manifest.txt", "--model", "model.txt",
          "--settings", "s.txt", "--recording", "rec.csv", "--out", "t.csv"], 3),
    ],
)
def test_input_that_is_not_utf8_exit_code(tmp_path, args, code):
    for name in ("bad.cfg", "manifest.txt", "model.txt", "table.csv"):
        (tmp_path / name).write_bytes(b"key = caf\xe9\n")
    (tmp_path / "good_manifest.txt").write_text("window_seconds = 4.0\n")
    rc, err = _cli_process(tmp_path, *args)
    assert rc == code, err
    assert "can't decode" in err
    assert "Traceback" not in err


def test_inspect_empty_manifest_exit_code(tmp_path):
    (tmp_path / "manifest.txt").write_text("")
    rc, err = _cli_process(tmp_path, "inspect", "manifest.txt")
    assert rc == 3, err
    assert "empty" in err
    assert "Traceback" not in err
