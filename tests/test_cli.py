import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from imufresh.cli import main


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


def test_synth_writes_files(workspace):
    assert (workspace / "rec.csv").exists()
    header = (workspace / "rec.csv").read_text().splitlines()[0]
    assert header == "time,kind,value"
    assert (workspace / "labels.csv").read_text().splitlines()[0] == "start_s,end_s,label"


def test_run_and_predict(workspace, capsys):
    rc = main(["run", "--config", str(workspace / "pipe.cfg"), "--seed", "5"])
    assert rc == 0
    assert (workspace / "artifacts" / "model.txt").exists()
    rc = main([
        "predict",
        "--artifacts", str(workspace / "artifacts"),
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


def test_corrupt_model_exit_code(workspace, tmp_path):
    artifacts = workspace / "artifacts"
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


def test_non_numeric_model_token_exit_code(workspace, tmp_path):
    artifacts = workspace / "artifacts"
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


def test_benchmark_command(workspace, capsys):
    rc = main(["benchmark", "--config", str(workspace / "pipe.cfg"), "--workers", "2"])
    assert rc == 0
    assert "rows/s" in capsys.readouterr().out


def test_benchmark_times_predict_on_artifacts(workspace, capsys):
    rc = main(["benchmark", "--config", str(workspace / "pipe.cfg"),
               "--artifacts", str(workspace / "artifacts")])
    assert rc == 0
    assert re.search(r"^ +predict +\d", capsys.readouterr().out, flags=re.M)


def test_benchmark_workers_zero_is_a_config_error(workspace):
    assert main(["benchmark", "--config", str(workspace / "pipe.cfg"), "--workers", "0"]) == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_predict_bad_workers_is_a_config_error(workspace, tmp_path, workers):
    out = tmp_path / "timeline.csv"
    rc = main([
        "predict",
        "--artifacts", str(workspace / "artifacts"),
        "--recording", str(workspace / "rec.csv"),
        "--out", str(out),
        "--workers", workers,
    ])
    assert rc == 2
    assert not out.exists()


def test_inspect_manifest(workspace, capsys):
    rc = main(["inspect", str(workspace / "artifacts" / "manifest.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tool_version" in out


def test_inspect_model(workspace, capsys):
    rc = main(["inspect", str(workspace / "artifacts" / "model.txt")])
    assert rc == 0
    assert "forest:" in capsys.readouterr().out


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
