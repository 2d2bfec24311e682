"""The package's public surface and its modules' imports."""

import ast
import dataclasses
from pathlib import Path

import pytest

import imufresh

PACKAGE_DIR = Path(imufresh.__file__).parent
MODULES = sorted(PACKAGE_DIR.glob("*.py"))

# Names that were removed for having no caller.
REMOVED = [
    "imufresh.calculators.ExtractionSettings.feature_names",
    "imufresh.errors.FeatureSetMismatch",
    "imufresh.extraction.load_matrix",
    "imufresh.extraction.load_matrix_csv",
    "imufresh.extraction._parse_cell",
    "imufresh.forest.ForestParams.min_leaf",
    "imufresh.forest.ForestParams.max_depth",
    "imufresh.forest.ForestParams.mtry",
    "imufresh.forest.ForestParams.resolve_mtry",
    "imufresh.names.encode_feature_name",
    "imufresh.pipeline.PipelineConfig.min_leaf",
    "imufresh.pipeline.PipelineConfig.max_depth",
    "imufresh.pipeline.PipelineConfig.mtry",
    "imufresh.pipeline.PipelineResult.model",
    "imufresh.pipeline.check_intervals",
    "imufresh.pipeline.manifest_value",
    "imufresh.pipeline.write_manifest",
    "imufresh.selection.SelectionReport.threshold_rank",
    "imufresh.selection.is_binary",
    "imufresh.timeseries.Recording.sample_time",
    "imufresh.timeseries.Recording.duration_s",
    "imufresh.timeseries.WindowSet.label_domain",
    "imufresh.timeseries.check_intervals",
]


class TestAll:
    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from imufresh import *", namespace)
        assert [name for name in imufresh.__all__ if name not in namespace] == []

    def test_no_duplicates(self):
        assert len(imufresh.__all__) == len(set(imufresh.__all__))

    @pytest.mark.parametrize("path", REMOVED)
    def test_removed_name_is_gone(self, path):
        _, *owners, name = path.split(".")
        owner = imufresh
        for attr in owners:
            owner = getattr(owner, attr)
        assert not hasattr(owner, name)
        if dataclasses.is_dataclass(owner):  # a field without a default is no attribute
            assert name not in {f.name for f in dataclasses.fields(owner)}
        assert not hasattr(imufresh, name)
        assert name not in imufresh.__all__


def _unused_imports(source):
    """Names bound by a top-level import that the module never reads.  A
    name listed in a literal ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_gate_flags_a_planted_import():
    source = "from __future__ import annotations\nimport os\nimport sys\n\nprint(sys.argv)\n"
    assert _unused_imports(source) == [(2, "os")]


def _function_imports(source):
    """(line, name) of each import inside a function, nested ones included."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(
                (node.lineno, alias.name)
                for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            )
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    assert _function_imports(path.read_text(encoding="utf-8")) == []


def test_function_import_gate_flags_planted_imports():
    source = (
        "import os\n\n\ndef f():\n    from .a import b\n\n    def g():\n"
        "        import sys\n\n    return b, g\n\n\nclass C:\n    def m(self):\n"
        "        import json\n"
    )
    assert _function_imports(source) == [(5, "b"), (8, "sys"), (15, "json")]


def _unread_private_names(sources):
    """(module, line, name) of each top-level private function, class or
    constant (``_name``) that no module of *sources*, a mapping of module
    name to source, reads: as a name, an attribute or an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.extend((module, node.lineno, name) for name in targets
                           if name.startswith("_") and not name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_no_unread_private_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert _unread_private_names(sources) == []


def test_unread_private_name_gate_flags_planted_names():
    sources = {
        "a.py": "_USED = 1\n_UNREAD, _PAIRED = 2, 3\n\n\ndef _helper():\n"
                "    return _USED + _PAIRED\n\n\nclass _Left:\n    pass\n",
        "b.py": "from .a import _helper\n",
    }
    assert _unread_private_names(sources) == [("a.py", 2, "_UNREAD"), ("a.py", 9, "_Left")]
