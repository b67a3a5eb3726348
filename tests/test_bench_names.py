"""The qpb names the benchmark under bench/ calls, resolved here so that
removing one fails the test run rather than a later benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_qpb(module_name):
    return (module_name or "").split(".")[0] == "qpb"


def test_every_qpb_import_of_the_benchmark_resolves():
    """`from qpb... import name` and `import qpb...` in any bench/*.py file,
    read from the source, so a new import is covered as soon as it is made."""
    missing, seen = [], 0
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and _is_qpb(node.module):
                module = importlib.import_module(node.module)
                seen += len(node.names)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_qpb(alias.name):
                        importlib.import_module(alias.name)
                        seen += 1
    assert seen > 0
    assert missing == []


def test_the_names_the_tracer_counts_exist():
    from qpb.symbolic import OperatorPoly

    assert callable(OperatorPoly.monomial)
    tracer = _tracer()
    method_spans = set()
    for (modname, clsname, method), (_, span) in tracer.METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        assert method in vars(cls), (modname, clsname, method)
        method_spans.add(span)
    for span in tracer.HOOKS:
        if span in method_spans:
            continue
        layer, _, name = span.rpartition(".")
        module = importlib.import_module(tracer.LAYER_MODULES[layer])
        # install() wraps exactly the module's public functions
        assert name in tracer.public_functions(module), span
