"""In-memory span recorder wrapped around imufresh's public functions.

A :class:`Tracer` is used as a context manager around one timed operation.
On entry it replaces the layer-boundary functions, as bound in
``imufresh.pipeline`` and ``imufresh.forest``, plus ``FeatureMatrix.column_index``
and ``FeatureMatrix.subset``, with wrappers that record a span (name, start,
end, parent, run id) per call; on exit it restores the originals.  Untraced
runs never enter a Tracer, so they execute the library unmodified.

``FeatureName.canonical`` runs about two million times in one desk training
run, so it is only counted: a span per call would cost more than the work.

Spans and counts cover the calling process only.  Work done inside the
library's process pools (extraction and selection at ``workers > 1``) shows
up as the span of the parent-side call that waits for the pool.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable

import imufresh.extraction
import imufresh.forest
import imufresh.names
import imufresh.pipeline


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


# (module, attribute) pairs wrapped with a span; the span is named after the
# module that defines the function, which is the layer it belongs to.
_PIPELINE_CALLS = (
    ("timeseries", "load_recording"),
    ("timeseries", "load_labels"),
    ("timeseries", "save_recording"),
    ("timeseries", "segment_fixed"),
    ("timeseries", "resolve_label"),
    ("timeseries", "render_float"),
    ("virtual", "default_pairing"),
    ("virtual", "apply_virtual_sensors"),
    ("calculators", "default_settings"),
    ("calculators", "read_settings_file"),
    ("calculators", "write_settings_file"),
    ("calculators", "settings_from_feature_names"),
    ("extraction", "extract"),
    ("extraction", "save_matrix"),
    ("selection", "select_features"),
    ("selection", "save_report"),
    ("forest", "aggregate_importances"),
    ("forest", "top_k_features"),
    ("forest", "cross_validate"),
    ("forest", "train_forest"),
    ("forest", "predict_proba"),
    ("forest", "save_model_file"),
    ("forest", "load_model_file"),
)
# Called from inside other forest functions, so wrapped where forest binds them.
_FOREST_CALLS = ("train_forest", "predict_proba")
_METHODS = (
    (imufresh.extraction.FeatureMatrix, "column_index", "extraction.FeatureMatrix.column_index"),
    (imufresh.extraction.FeatureMatrix, "subset", "extraction.FeatureMatrix.subset"),
)


def _extract_cells(matrix) -> dict[str, float]:
    return {"extraction.extract.cells": matrix.n_rows * matrix.n_cols}


def _recording_rows(recording) -> dict[str, float]:
    return {"timeseries.load_recording.rows": recording.length * len(recording.channels)}


def _forest_nodes(model) -> dict[str, float]:
    return {"forest.nodes": sum(tree.n_nodes for tree in model.trees)}


def _selection_counts(report) -> dict[str, float]:
    return {"selection.tests": len(report.tests), "selection.selected": len(report.selected)}


# Counts read from what a call returns, keyed by span name.
_RESULT_COUNTS: dict[str, Callable[[object], dict[str, float]]] = {
    "extraction.extract": _extract_cells,
    "timeseries.load_recording": _recording_rows,
    "forest.train_forest": _forest_nodes,
    "selection.select_features": _selection_counts,
}


class Tracer:
    """Records spans and counts while installed; see the module docs."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._canonical_calls = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named *name*; return its result."""
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))
        counter = _RESULT_COUNTS.get(name)
        if counter is not None:
            for key, value in counter(result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _count(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args):
            self._canonical_calls += 1
            return fn(*args)

        return counted

    # -- install / restore -------------------------------------------------

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        pipeline = imufresh.pipeline
        for layer, attr in _PIPELINE_CALLS:
            self._replace(pipeline, attr, self._wrap(f"{layer}.{attr}", getattr(pipeline, attr)))
        for attr in _FOREST_CALLS:
            forest = imufresh.forest
            self._replace(forest, attr, self._wrap(f"forest.{attr}", getattr(forest, attr)))
        for cls, attr, name in _METHODS:
            self._replace(cls, attr, self._wrap(name, getattr(cls, attr)))

        names = imufresh.names.FeatureName
        self._replace(names, "canonical", self._count(names.canonical))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.counts["names.canonical.calls"] = self._canonical_calls

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == parent.span_id]

    def write(self, path: str) -> None:
        """Dump every span as JSON lines, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered_seconds(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    reach = float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        start = max(span.start, reach)
        if span.end > start:
            total += span.end - start
            reach = span.end
    return total


def _noop() -> None:
    return None


def wrapper_costs(calls: int = 10000, rounds: int = 5) -> tuple[float, float]:
    """Seconds that one span and one count add to a call (best of *rounds*).

    Timed on a no-op through the same wrappers the tracer installs; the
    tracing overhead of a traced call is its spans and counts times these.
    """
    tracer = Tracer("calibration")
    traced = tracer._wrap("calibration", _noop)
    counted = tracer._count(_noop)

    def per_call(fn: Callable) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, perf_counter() - start)
            tracer.spans.clear()
        return best / calls

    bare = per_call(_noop)
    return per_call(traced) - bare, per_call(counted) - bare
