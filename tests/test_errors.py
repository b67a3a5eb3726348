"""Every error class is raised somewhere or is the base of one that is, and
the package exports resolve: read from the source, so a class that loses its
last raiser, or a name left behind in `__all__`, fails the test run."""

import ast
import importlib
from pathlib import Path

import pytest

import qpb

SRC = Path(qpb.__file__).resolve().parent


def _raised_names() -> list[str]:
    """The class name of every `raise Name(...)` and `raise Name` under src/qpb."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.append(exc.id)
    return names


def _error_classes() -> dict[str, list[str]]:
    """Each class defined in errors.py with the names of its bases."""
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    return {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
            for node in tree.body if isinstance(node, ast.ClassDef)}


def test_every_error_class_is_raised_or_is_the_base_of_one_that_is():
    classes = _error_classes()
    raised = set(_raised_names()) & set(classes)
    assert {"ConfigurationError", "ExprSyntaxError"} <= raised
    needed, todo = set(), list(raised)
    while todo:
        name = todo.pop()
        if name in classes and name not in needed:
            needed.add(name)
            todo += classes[name]
    assert set(classes) - needed == set()


def test_no_code_raises_the_base_class_itself():
    assert "ToolkitError" in _error_classes()
    assert "ToolkitError" not in _raised_names()


@pytest.mark.parametrize("module", ["qpb", "qpb.symbolic"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
