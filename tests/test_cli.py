import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from imufresh.calculators import read_settings_file
from imufresh.cli import main
from imufresh.errors import ConfigError, ImufreshError
from imufresh.forest import load_model_file
from imufresh.pipeline import _deployment_keys, load_config, read_manifest
from imufresh.timeseries import (
    Recording,
    check_label,
    load_labels,
    load_recording,
    open_utf8,
    save_recording,
)


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


def _artifacts_copy(artifacts, dest, name=None, data=b""):
    """A copy of the run's artifacts directory, with file *name*, if given,
    holding *data*."""
    shutil.copytree(artifacts, dest)
    if name is not None:
        (dest / name).write_bytes(data)
    return dest


def _with_manifest_value(artifacts, dest, key, value):
    """A copy of the run's artifacts directory whose manifest gives *key*
    the one *value*."""
    lines = [line for line in (artifacts / "manifest.txt").read_text().splitlines()
             if not line.startswith(f"{key} =")]
    return _artifacts_copy(artifacts, dest, "manifest.txt",
                           "\n".join([*lines, f"{key} = {value}", ""]).encode())


def test_synth_writes_files(workspace):
    assert (workspace / "rec.csv").exists()
    header = (workspace / "rec.csv").read_text().splitlines()[0]
    sides = [f"accel_{axis}_{side}" for side in "lr" for axis in "xyz"]
    assert header == ",".join(["time"] + sorted(sides))
    assert (workspace / "labels.csv").read_text().splitlines()[0] == "start_s,end_s,label"


@pytest.mark.parametrize(
    "flag", ["--duration", "--rate", "--window-seconds", "--noise", "--drift"]
)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_parameter_is_a_config_error(tmp_path, flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "synth",
            "--out-recording", str(tmp_path / "rec.csv"),
            "--out-labels", str(tmp_path / "labels.csv"),
            flag, value,
        ])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []
    assert caught == []


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


def test_data_error_exit_code(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a\n0.0,nan\n0.01,1.0\n")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"recording = {bad}\nlabels = {bad}\noutput_dir = out\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "channel 'a' contains NaN" in capsys.readouterr().err


def test_run_on_a_long_recording_exits_3(tmp_path, capsys):
    long = tmp_path / "long.csv"
    long.write_text("time,kind,value\n0.0,a,1.0\n0.01,a,2.0\n")
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"recording = {long}\nlabels = {long}\noutput_dir = out\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "only the wide layout" in capsys.readouterr().err
    # the output directory is made before the recording is read; nothing
    # lands in it
    assert list((tmp_path / "out").iterdir()) == []


def test_top_k_zero_is_a_config_error(workspace):
    out = workspace / "topk0"
    rc = main(["run", "--config", str(workspace / "pipe.cfg"), "--top-k", "0",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_n_trees_zero_is_a_config_error(workspace):
    cfg = workspace / "n_trees0.cfg"
    cfg.write_text((workspace / "pipe.cfg").read_text() + "n_trees = 0\n")
    out = workspace / "n_trees0"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["min_leaf", "mtry", "max_depth"])
def test_retired_forest_key_is_an_unknown_config_key(workspace, capsys, key):
    # Every tree grows until its leaves are pure, with floor(sqrt(p))
    # features per node; no key tunes that any more.
    cfg = workspace / f"{key}.cfg"
    cfg.write_text((workspace / "pipe.cfg").read_text() + f"{key} = 2\n")
    out = workspace / key
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["recording", "output_dir"])
def test_empty_required_path_is_a_config_error(workspace, tmp_path, capsys, key):
    paths = {"recording": workspace / "rec.csv", "labels": workspace / "labels.csv",
             "output_dir": tmp_path / "out", key: ""}
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in paths.items()))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"missing or empty required key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _predict_from(art, workspace, tmp_path):
    return main([
        "predict",
        "--artifacts", str(art),
        "--recording", str(workspace / "rec.csv"),
        "--out", str(tmp_path / "timeline.csv"),
    ])


def test_corrupt_model_exit_code(workspace, artifacts, tmp_path):
    lines = (artifacts / "model.txt").read_text().splitlines()
    split = next(i for i, line in enumerate(lines) if line.startswith("split "))
    parts = lines[split].split()
    lines[split] = " ".join(parts[:3] + ["999", parts[4]])
    art = _artifacts_copy(artifacts, tmp_path / "art", "model.txt",
                          ("\n".join(lines) + "\n").encode())
    assert _predict_from(art, workspace, tmp_path) == 3


def test_non_numeric_model_token_exit_code(workspace, artifacts, tmp_path):
    text = (artifacts / "model.txt").read_text()
    text = re.sub(r"^tree \d+$", "tree x", text, count=1, flags=re.M)
    art = _artifacts_copy(artifacts, tmp_path / "art", "model.txt", text.encode())
    assert _predict_from(art, workspace, tmp_path) == 3


@pytest.mark.parametrize("change", ["swap", "repeat"])
def test_model_feature_lines_out_of_order_exit_code(workspace, artifacts, tmp_path, capsys,
                                                    change):
    lines = (artifacts / "model.txt").read_text().splitlines()
    first = lines.index(next(line for line in lines if line.startswith("features "))) + 1
    if change == "swap":
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
    else:
        lines[first + 1] = lines[first]
    art = _artifacts_copy(artifacts, tmp_path / "art", "model.txt",
                          ("\n".join(lines) + "\n").encode())
    assert _predict_from(art, workspace, tmp_path) == 3
    assert "feature lines must be unique and in ascending canonical order" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "timeline.csv").exists()


@pytest.mark.parametrize(
    "change, message",
    [("repeat", "unique and in ascending order"), ("comma", "label with ','"),
     ("empty", "empty label")],
)
def test_model_class_lines_training_would_not_write_exit_3(workspace, artifacts, tmp_path, capsys,
                                                          change, message):
    # Each would give the timeline a header that names a class twice, or
    # whose field count differs from its rows'.
    lines = (artifacts / "model.txt").read_text().splitlines()
    first = lines.index("classes 2") + 1
    lines[first] = {"repeat": lines[first + 1], "comma": "r,un", "empty": ""}[change]
    art = _artifacts_copy(artifacts, tmp_path / "art", "model.txt",
                          ("\n".join(lines) + "\n").encode())
    assert _predict_from(art, workspace, tmp_path) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "timeline.csv").exists()


def test_empty_label_exit_code(workspace, tmp_path, capsys):
    # An empty cell is what the timeline writes for a window without a label.
    labels = (workspace / "labels.csv").read_text() + "1000.0,1008.0,\n"
    (tmp_path / "labels.csv").write_text(labels)
    config = (workspace / "pipe.cfg").read_text().replace(
        "labels = labels.csv", f"labels = {tmp_path / 'labels.csv'}").replace(
        "recording = rec.csv", f"recording = {workspace / 'rec.csv'}")
    (tmp_path / "pipe.cfg").write_text(config)
    rc = main(["run", "--config", str(tmp_path / "pipe.cfg"), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "empty label" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.txt").exists()


def test_run_with_a_window_longer_than_the_recording_exits_3(workspace, tmp_path, capsys):
    rc = main(["run", "--config", str(workspace / "pipe.cfg"), "--window-seconds", "1e300",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "no labeled windows" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["1e17", "1e300"])
def test_predict_with_a_manifest_window_longer_than_the_recording(workspace, artifacts,
                                                                  tmp_path, capsys, seconds):
    # as on a recording shorter than one window: an empty timeline
    art = _with_manifest_value(artifacts, tmp_path / "art", "window_seconds", seconds)
    assert _predict_from(art, workspace, tmp_path) == 0
    assert "(0 windows)" in capsys.readouterr().out
    lines = (tmp_path / "timeline.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("window_id,start_s,end_s,prob_")


def test_predict_with_a_manifest_window_under_two_samples_exits_3(workspace, artifacts,
                                                                  tmp_path, capsys):
    # The manifest is data, so its window is a data error, not a config one.
    art = _with_manifest_value(artifacts, tmp_path / "art", "window_seconds", "0.001")
    assert _predict_from(art, workspace, tmp_path) == 3
    assert "data error: manifest key 'window_seconds'" in capsys.readouterr().err
    assert not (tmp_path / "timeline.csv").exists()


def test_predict_without_settings_file_writes_the_same_timeline(workspace, artifacts, tmp_path):
    art = _artifacts_copy(artifacts, tmp_path / "art")
    (art / "settings_topk.txt").unlink()
    timelines = []
    for name, directory in (("with.csv", artifacts), ("without.csv", art)):
        rc = main([
            "predict",
            "--artifacts", str(directory),
            "--recording", str(workspace / "rec.csv"),
            "--labels", str(workspace / "labels.csv"),
            "--out", str(tmp_path / name),
        ])
        assert rc == 0
        timelines.append((tmp_path / name).read_bytes())
    assert timelines[0] == timelines[1]


@pytest.mark.parametrize(
    "args, message",
    [(["--settings", "x", "--artifacts", "."], "unrecognized arguments: --settings x"),
     (["--model", "x", "--artifacts", "."], "unrecognized arguments: --model x"),
     (["--manifest", "x", "--artifacts", "."], "unrecognized arguments: --manifest x"),
     ([], "the following arguments are required: --artifacts")],
    ids=["settings", "model", "manifest", "no-artifacts"],
)
def test_predict_reads_only_an_artifacts_directory(tmp_path, args, message):
    rc, err = _cli_process(tmp_path, "predict", *args, "--recording", "rec.csv", "--out", "t.csv")
    assert rc == 2, err
    assert message in err


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
    art = _with_manifest_value(artifacts, tmp_path / "art", key, value)
    rc = main([
        "predict",
        "--artifacts", str(art),
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
        (["predict", "--artifacts", "bad_manifest", "--recording", "rec.csv",
          "--out", "t.csv"], 3),
        (["predict", "--artifacts", "bad_model", "--recording", "rec.csv",
          "--out", "t.csv"], 3),
    ],
)
def test_input_that_is_not_utf8_exit_code(artifacts, tmp_path, args, code):
    not_utf8 = b"key = caf\xe9\n"
    for name in ("bad.cfg", "manifest.txt", "model.txt", "table.csv"):
        (tmp_path / name).write_bytes(not_utf8)
    if args[0] == "predict":
        for name in ("manifest", "model"):
            _artifacts_copy(artifacts, tmp_path / f"bad_{name}", f"{name}.txt", not_utf8)
    rc, err = _cli_process(tmp_path, *args)
    assert rc == code, err
    assert "can't decode" in err
    assert "Traceback" not in err


def test_config_path_with_a_nul_byte_exits_2(tmp_path):
    (tmp_path / "pipe.cfg").write_text("recording = rec\0.csv\noutput_dir = out\n")
    rc, err = _cli_process(tmp_path, "run", "--config", "pipe.cfg")
    assert rc == 2, err
    assert "pipe.cfg:1: recording holds a NUL byte" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "pipe.cfg"]


@pytest.mark.parametrize("count", ["4000000000", "99999999999999999999"])
def test_model_with_a_huge_node_count_exits_3(workspace, artifacts, tmp_path, count):
    # The count outruns the records that follow, so the next tree's header
    # is read as a node record; nothing the size of the count is allocated.
    text = (artifacts / "model.txt").read_text()
    text = re.sub(r"^tree \d+$", f"tree {count}", text, count=1, flags=re.M)
    _artifacts_copy(artifacts, tmp_path / "art", "model.txt", text.encode())
    rc, err = _cli_process(tmp_path, "predict", "--artifacts", "art",
                           "--recording", str(workspace / "rec.csv"), "--out", "t.csv")
    assert rc == 3, err
    assert "unknown node record 'tree'" in err
    assert "Traceback" not in err


def test_inspect_empty_manifest_exit_code(tmp_path):
    (tmp_path / "manifest.txt").write_text("")
    rc, err = _cli_process(tmp_path, "inspect", "manifest.txt")
    assert rc == 3, err
    assert "empty" in err
    assert "Traceback" not in err


def test_inspect_model_with_an_importance_that_is_not_finite_exits_3(artifacts, tmp_path):
    lines = (artifacts / "model.txt").read_text().splitlines()
    first = lines.index(next(line for line in lines if line.startswith("features "))) + 1
    lines[first] = lines[first].rsplit(" ", 1)[0] + " nan"
    (tmp_path / "model.txt").write_text("\n".join(lines) + "\n")
    rc, err = _cli_process(tmp_path, "inspect", "model.txt")
    assert rc == 3, err
    assert "finite and non-negative" in err
    assert "Traceback" not in err


def test_synth_negative_person_is_a_config_error(tmp_path):
    rc, err = _cli_process(tmp_path, "synth", "--profile", "multi", "--person", "-1",
                           "--out-recording", "rec.csv", "--out-labels", "labels.csv")
    assert rc == 2, err
    assert "person must be >= 0" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["labels", "recording"])
def test_input_with_a_byte_order_mark_exits_3(workspace, artifacts, tmp_path, bad):
    # "CSV UTF-8" as spreadsheet tools save it
    for what, name in (("labels", "labels.csv"), ("recording", "rec.csv")):
        mark = b"\xef\xbb\xbf" if what == bad else b""
        (tmp_path / name).write_bytes(mark + (workspace / name).read_bytes())
    rc, err = _cli_process(
        tmp_path, "predict", "--artifacts", str(artifacts), "--recording", "rec.csv",
        "--labels", "labels.csv", "--out", "timeline.csv",
    )
    assert rc == 3, err
    assert "byte-order mark" in err
    assert "Traceback" not in err
    assert not (tmp_path / "timeline.csv").exists()


def test_predict_on_a_long_recording_exits_3(workspace, artifacts, tmp_path):
    # the long layout, one row per sample, of the workspace's recording
    rec = load_recording(str(workspace / "rec.csv"))
    times = (rec.t0 + np.arange(rec.length) / rec.sample_rate_hz).tolist()
    with open(tmp_path / "long.csv", "w", encoding="utf-8") as fh:
        fh.write("time,kind,value\n")
        for kind in rec.kinds:
            values = rec.channels[kind].tolist()
            fh.writelines(f"{t!r},{kind},{v!r}\n" for t, v in zip(times, values))
    rc, err = _cli_process(
        tmp_path, "predict", "--artifacts", str(artifacts), "--recording", "long.csv",
        "--labels", str(workspace / "labels.csv"), "--out", "timeline.csv",
    )
    assert rc == 3, err
    assert "only the wide layout" in err
    assert "Traceback" not in err
    assert not (tmp_path / "timeline.csv").exists()


@pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "lone-cr"])
def test_predict_on_files_with_other_line_ends_writes_the_same_timeline(
    workspace, artifacts, tmp_path, eol
):
    # as git's autocrlf or an editor on another platform saves them
    art = _artifacts_copy(artifacts, tmp_path / "art")
    converted = [art / name for name in ("model.txt", "manifest.txt", "settings_topk.txt")]
    for name in ("rec.csv", "labels.csv"):
        converted.append(Path(shutil.copy(workspace / name, tmp_path / name)))
    for path in converted:
        path.write_bytes(path.read_bytes().replace(b"\n", eol))
    timelines = []
    for directory, inputs in ((artifacts, workspace), (art, tmp_path)):
        out = tmp_path / f"timeline-{len(timelines)}.csv"
        rc = main([
            "predict",
            "--artifacts", str(directory),
            "--recording", str(inputs / "rec.csv"),
            "--labels", str(inputs / "labels.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        timelines.append(out.read_bytes())
    assert timelines[0] == timelines[1]


@pytest.mark.parametrize("first", ["recording = rec.csv", "# a comment"])
def test_config_with_a_byte_order_mark_is_named(workspace, tmp_path, capsys, first):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + f"{first}\n".encode() + (workspace / "pipe.cfg").read_bytes())
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "pipe.cfg:1: " in err and "byte-order mark" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_settings_file_with_a_byte_order_mark_is_named(workspace, artifacts, tmp_path, capsys):
    (tmp_path / "settings.txt").write_bytes(
        b"\xef\xbb\xbf" + (artifacts / "settings_topk.txt").read_bytes()
    )
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        f"recording = {workspace / 'rec.csv'}\nlabels = {workspace / 'labels.csv'}\n"
        "output_dir = out\nwindow_seconds = 4.0\nauto_pair = _l _r\n"
        "settings_file = settings.txt\n"
    )
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "invalid channel kind" in err and "byte-order mark" in err


# Tokens that have broken a text reader before: empty, non-finite, huge and
# negative numbers, NUL, a byte-order mark, line-end pieces, the feature-name
# separator, separators and quotes.
_MUTATION_TOKENS = [
    "", "nan", "inf", "-inf", "1e999", "1e300", "-1", "0", "99999999999999999999", "\x00",
    "\ufeff", "\r", "\n", "\x85", "__", "_", ",", "=", " ", "#", '"', "'", "é",
]


def _mutants(text, seed, count):
    """*count* mutants of *text*, drawn by ``random.Random(seed)``: each
    deletes or duplicates a line, or replaces, inserts or deletes one to
    three tokens, which come from the list above or from the text itself."""
    rng = random.Random(seed)
    pieces = re.findall(r"[^,\s=]+|[,\s=]", text)
    words = sorted({p for p in pieces if len(p) > 1})
    for _ in range(count):
        if rng.random() < 0.2:
            lines = text.splitlines(keepends=True)
            i = rng.randrange(len(lines))
            lines[i : i + 1] = [] if rng.random() < 0.5 else [lines[i]] * 2
            yield "".join(lines)
            continue
        out = list(pieces)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(out))
            token = rng.choice(_MUTATION_TOKENS if rng.random() < 0.7 else words)
            op = rng.randrange(3)  # replace, insert or delete
            out[i : i + (op != 1)] = [] if op == 2 else [token]
        yield "".join(out)


def _read_settings(path):
    with open_utf8(path, "settings file") as fh:
        return read_settings_file(fh)


def _read_manifest(path):
    return _deployment_keys(read_manifest(path))


def _labels_hold_classes(intervals):
    for start, end, label in intervals:
        assert math.isfinite(start) and math.isfinite(end) and start < end
        check_label(label, "labels")


def _model_holds_classes(model):
    assert list(model.classes) == sorted(set(model.classes))
    for label in model.classes:
        check_label(label, "model")


# input -> (seed file under the workspace, library reader, check of what it
# reads, command line run where the mutant is the file "input", and the
# manifest or model of the artifacts copy "input_dir")
_TEXT_INPUTS = {
    "config": ("pipe.cfg", load_config, None, ["run", "--config", "input"]),
    "recording": ("rec.csv", load_recording, None,
                  ["predict", "--artifacts", "art", "--recording", "input", "--out", "t.csv"]),
    "labels": ("labels.csv", load_labels, _labels_hold_classes,
               ["predict", "--artifacts", "art", "--recording", "rec.csv",
                "--labels", "input", "--out", "t.csv"]),
    "settings": ("artifacts/settings_topk.txt", _read_settings, None,
                 ["run", "--config", "settings.cfg"]),
    "manifest": ("artifacts/manifest.txt", _read_manifest, None,
                 ["predict", "--artifacts", "input_dir", "--recording", "rec.csv",
                  "--out", "t.csv"]),
    "model": ("artifacts/model.txt", load_model_file, _model_holds_classes,
              ["predict", "--artifacts", "input_dir", "--recording", "rec.csv",
               "--out", "t.csv"]),
}


def _seed_text(workspace, name):
    """The valid input *name* mutates, cut short where a shorter one reads
    the same way: the recording's first 40 rows, the model's first tree."""
    text = (workspace / _TEXT_INPUTS[name][0]).read_text(encoding="utf-8")
    if name == "recording":
        return "".join(text.splitlines(keepends=True)[:41])
    if name == "model":
        head, rest = text.split("\ntree ", 1)
        first_tree = rest.split("\ntree ", 1)[0].removesuffix("\nend\n")
        return re.sub(r"\ntrees \d+$", "\ntrees 1", head) + "\ntree " + first_tree + "\nend\n"
    return text


@pytest.mark.parametrize("name", list(_TEXT_INPUTS))
def test_mutated_text_input_fails_closed(workspace, artifacts, tmp_path, name):
    """Only ImufreshError subclasses leave a library reader, whatever a
    mutant holds; what a reader accepts holds valid classes."""
    _, read, check, _ = _TEXT_INPUTS[name]
    path = tmp_path / "input"
    path.write_text(_seed_text(workspace, name), encoding="utf-8")
    read(str(path))  # the input the mutants start from is valid
    refused = 0
    for text in _mutants(_seed_text(workspace, name), seed=name, count=400):
        path.write_bytes(text.encode("utf-8"))
        try:
            value = read(str(path))
        except ImufreshError:
            refused += 1
            continue
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on the mutant {text!r}")
        if check is not None:
            check(value)
    assert refused > 0


@pytest.mark.parametrize("name", list(_TEXT_INPUTS))
def test_mutated_text_input_exit_code(workspace, artifacts, tmp_path, name):
    """The command line on the first mutant its library reader refuses exits
    2 for a ConfigError, 3 for any other, and prints no traceback."""
    _, read, _, args = _TEXT_INPUTS[name]
    path = tmp_path / "input"
    for text in _mutants(_seed_text(workspace, name), seed=name, count=400):
        path.write_bytes(text.encode("utf-8"))
        try:
            read(str(path))
        except ImufreshError as exc:
            code = 2 if isinstance(exc, ConfigError) else 3
            break
    shutil.copy(workspace / "rec.csv", tmp_path / "rec.csv")
    shutil.copy(workspace / "labels.csv", tmp_path / "labels.csv")
    shutil.copytree(artifacts, tmp_path / "art")
    if name in ("manifest", "model"):
        _artifacts_copy(artifacts, tmp_path / "input_dir", f"{name}.txt", path.read_bytes())
    (tmp_path / "settings.cfg").write_text(
        "recording = rec.csv\nlabels = labels.csv\noutput_dir = out\nwindow_seconds = 4.0\n"
        "settings_file = input\n")
    rc, err = _cli_process(tmp_path, *args)
    assert rc == code, err
    assert "Traceback" not in err
