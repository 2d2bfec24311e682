"""Command-line interface.

Subcommands: ``synth`` (generate a synthetic recording + labels), ``run``
(full five-step pipeline), ``predict`` (restricted extraction + timeline
from one run's ``model.txt`` and ``manifest.txt``),
``benchmark`` (a training run into a temporary directory plus ``predict``
on its recording; prints their stage times as one JSON object),
``inspect`` (pretty-print artifacts).

Exit codes: 0 success, 2 configuration error (a config file that is not
UTF-8 included), 3 data error (any other input that is not UTF-8
included, and a ``model.txt`` whose feature lines are out of canonical
order), 4 nothing selected at the configured FDR level.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError, ImufreshError, NothingSelected
from .forest import load_model_file
from .pipeline import (
    benchmark,
    load_config,
    predict,
    read_manifest,
    run_full_pipeline,
)
from .synth import synth_multi_activity, synth_walk_run
from .timeseries import open_utf8, save_labels, save_recording

logger = logging.getLogger("imufresh")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NOTHING_SELECTED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imufresh",
        description="Feature engineering pipeline for IMU activity recognition.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic recording + label CSV")
    p_synth.add_argument("--profile", choices=["walkrun", "multi"], default="walkrun")
    p_synth.add_argument("--out-recording", required=True)
    p_synth.add_argument("--out-labels", required=True)
    p_synth.add_argument("--duration", type=float, default=560.0, help="seconds")
    p_synth.add_argument("--rate", type=float, default=100.0, help="Hz")
    p_synth.add_argument("--window-seconds", type=float, default=4.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise", type=float, default=0.35)
    p_synth.add_argument("--drift", type=float, default=1.0,
                         help="frequency drift factor for hold-out sessions (walkrun)")
    p_synth.add_argument("--person", type=int, default=0, help="person index (multi)")

    p_run = sub.add_parser("run", help="run the full five-step pipeline")
    p_run.add_argument("--config", required=True, help="key=value config file")
    p_run.add_argument("--q", type=float, default=None, help="FDR level override")
    p_run.add_argument("--top-k", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--window-seconds", type=float, default=None)
    p_run.add_argument("--out", default=None, help="output directory override")

    p_pred = sub.add_parser("predict", help="restricted extraction + prediction timeline")
    p_pred.add_argument("--artifacts", required=True,
                        help="run output directory (provides model.txt and manifest.txt)")
    p_pred.add_argument("--recording", required=True)
    p_pred.add_argument("--labels", default=None, help="optional truth for flags")
    p_pred.add_argument("--out", required=True, help="timeline CSV path")

    p_bench = sub.add_parser(
        "benchmark",
        help="time a training run (labels required, no artifacts kept) and predict "
             "on its recording; print the stage times as JSON",
    )
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--workers", type=int, default=None,
                         help="worker count to time at (overrides the config's workers)")

    p_inspect = sub.add_parser("inspect", help="pretty-print a manifest or report")
    p_inspect.add_argument("path")
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.profile == "walkrun":
        result = synth_walk_run(
            duration_s=args.duration,
            sample_rate_hz=args.rate,
            window_seconds=args.window_seconds,
            seed=args.seed,
            noise=args.noise,
            drift=args.drift,
        )
    else:
        result = synth_multi_activity(
            person=args.person,
            duration_s=args.duration,
            sample_rate_hz=args.rate,
            window_seconds=args.window_seconds,
            seed=args.seed,
            noise=args.noise,
        )
    save_recording(result.recording, args.out_recording)
    save_labels(result.labels, args.out_labels)
    print(
        f"wrote {args.out_recording} ({result.recording.length} samples x "
        f"{len(result.recording.channels)} channels) and {args.out_labels} "
        f"({len(result.labels)} intervals)"
    )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {
        "q": args.q,
        "top_k": args.top_k,
        "seed": args.seed,
        "workers": args.workers,
        "window_seconds": args.window_seconds,
        "output_dir": str(Path(args.out).resolve()) if args.out else None,
    }
    config = load_config(args.config, overrides)
    result = run_full_pipeline(config)
    print(f"pipeline complete; artifacts in {config.output_dir}")
    print(f"  selected {len(result.report.selected)} / {result.matrix.n_cols} features "
          f"at q={config.q}")
    print(f"  top-{len(result.top_features)} specialized model: "
          f"{result.cv.mean_accuracy:.4f} mean CV accuracy")
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    art = Path(args.artifacts)
    timeline = predict(
        model_path=str(art / "model.txt"),
        settings_path=None,
        recording_path=args.recording,
        manifest_path=str(art / "manifest.txt"),
        labels_path=args.labels,
        out_path=args.out,
    )
    msg = f"wrote {args.out} ({len(timeline.rows)} windows)"
    accuracy = timeline.accuracy()
    if accuracy is not None:
        msg += f"; accuracy {accuracy:.4f} on labeled windows"
    print(msg)
    return EXIT_OK


def _cmd_benchmark(args: argparse.Namespace) -> int:
    config = load_config(args.config, {"workers": args.workers})
    print(json.dumps(benchmark(config)))
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    if path.suffix == ".txt" and path.name.startswith("manifest"):
        manifest = read_manifest(str(path))
        if not manifest:
            raise DataError(f"manifest {path} is empty")
        width = max(len(k) for k in manifest)
        for key, values in manifest.items():
            for value in values:
                print(f"{key:<{width}}  {value}")
        return EXIT_OK
    if path.suffix == ".txt" and path.name.startswith("model"):
        model = load_model_file(str(path))
        print(f"forest: {len(model.trees)} trees, {model.n_features} features, "
              f"classes {', '.join(model.classes)}")
        ranked = sorted(
            zip(model.feature_names, model.importances), key=lambda kv: -kv[1]
        )
        for name, importance in ranked[:10]:
            print(f"  {importance:8.5f}  {name.canonical()}")
        return EXIT_OK
    # selection.csv / importance.csv / timelines: show head
    with open_utf8(str(path), "file") as fh:
        for i, line in enumerate(fh):
            if i >= 21:
                print("...")
                break
            print(line.rstrip("\n"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {
        "synth": _cmd_synth,
        "run": _cmd_run,
        "predict": _cmd_predict,
        "benchmark": _cmd_benchmark,
        "inspect": _cmd_inspect,
    }
    try:
        return handlers[args.command](args)
    except NothingSelected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOTHING_SELECTED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ImufreshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
