"""The benchmark's tracer wraps library functions by name.

``perfbench/spans.py`` replaces functions as bound in ``imufresh.pipeline``
and ``imufresh.forest``, plus two ``FeatureMatrix`` methods and
``FeatureName.canonical``.  Renaming or no longer importing one of them
breaks traced benchmark runs, so check here that the tracer can install
every wrapper and put every original back.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
