"""Span tracer for one qpb process, installed from outside the package.

`install` wraps the public functions of every layer module, plus two class
methods, and rebinds every alias of each wrapped function across the loaded
`qpb.*` modules (`from .x import f` copies the name, so patching only the
defining module would miss calls made through the copies). Spans are kept in
memory as (name, start, end, parent) and written once, when the process ends.

`self_times` turns a span list into per-span self time: a span's duration
minus the part of it covered by its direct children.

Only the standard library is imported here, so bench/run.py can use
the arithmetic without loading numpy or qpb.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

CLOCK = time.monotonic

# layer name -> module whose public functions make up the layer
LAYER_MODULES = {
    "cli": "qpb.cli",
    "suites": "qpb.suites",
    "report": "qpb.report",
    "grids": "qpb.grids",
    "states": "qpb.states",
    "transforms": "qpb.transforms",
    "operators": "qpb.operators",
    "moments": "qpb.moments",
    "kk": "qpb.kk",
    "ladder": "qpb.ladder",
    "symbolic.expr": "qpb.symbolic.expr",
    "symbolic.poly": "qpb.symbolic.poly",
    "symbolic.matrices": "qpb.symbolic.matrices",
}

# (module, class, method) -> (layer, span name); patched on the class
METHODS = {
    ("qpb.symbolic.poly", "OperatorPoly", "normal_form"): ("symbolic.poly", "symbolic.poly.normal_form"),
    ("qpb.grids", "WaveFunction", "__post_init__"): ("grids", "grids.wavefunction"),
}

# the tracer's own work (installing wrappers, counting, writing spans)
TRACE_LAYER = "trace"
ROOT = -1


def _normal_form_count(tracer, args, kwargs):
    terms = args[0]._terms
    tracer.see("symbolic.poly.normal_form", frozenset(terms.items()))
    tracer.maximum("symbolic.poly.normal_form.max_word_len", max(map(len, terms), default=0))


def _letter_matrices_count(tracer, args, kwargs):
    tracer.see("symbolic.matrices.letter_matrices", (args, tuple(sorted(kwargs.items()))))


def _matrix_realize_count(tracer, args, kwargs):
    # one dense n_trunc x n_trunc product per letter of every word
    tracer.add("symbolic.matrices.matrix_realize.letter_products",
               sum(len(word) for word, _ in args[0].terms()))


def _pv_quadrature_all_count(tracer, args, kwargs):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    n = grid.n_points
    # every grid point sums over the n // 2 odd offsets
    tracer.add("kk.pv_quadrature_all.terms", n * len(range(1, n, 2)))


def _transform_count(tracer, args, kwargs):
    tracer.add("transforms.samples", args[0].values.size)


# span name -> hook computing counters from the call's arguments
HOOKS = {
    "symbolic.poly.normal_form": _normal_form_count,
    "symbolic.matrices.letter_matrices": _letter_matrices_count,
    "symbolic.matrices.matrix_realize": _matrix_realize_count,
    "kk.pv_quadrature_all": _pv_quadrature_all_count,
    "transforms.to_momentum": _transform_count,
    "transforms.to_position": _transform_count,
}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.stack: list[int] = [ROOT]
        self.counters: dict[str, float] = {}
        self.seen: dict[str, tuple[int, set]] = {}
        self._count_id = self.name_id("trace.count", TRACE_LAYER)

    def name_id(self, name: str, layer: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return idx

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a top-level span measured outside any wrapped call."""
        self.spans.append((self.name_id(name, layer), start, end, ROOT))

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def see(self, key: str, item) -> None:
        calls, distinct = self.seen.get(key, (0, set()))
        distinct.add(item)
        self.seen[key] = (calls + 1, distinct)

    def wrap(self, fn, name: str, layer: str):
        """Return fn wrapped in a span; a hook's own time is a `trace` child span."""
        spans, stack, clock = self.spans, self.stack, CLOCK
        name_idx = self.name_id(name, layer)
        hook = HOOKS.get(name)
        count_idx = self._count_id
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                if hook is not None:
                    hook(tracer, args, kwargs)
                    h1 = clock()
                    spans.append((count_idx, t0, h1, idx))
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_idx, t0, t1, parent)

        return functools.update_wrapper(traced, fn)

    def dump(self, path: str, extra: dict) -> None:
        """Write spans and counters as one JSON line, then the write's end
        time as a second line so the write itself is accounted for."""
        if None in self.spans:
            raise RuntimeError("a span is still open")
        counters = dict(self.counters)
        for key, (calls, distinct) in self.seen.items():
            counters[f"{key}.repeats"] = calls - len(distinct)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "layers": self.layers,
                       "spans": self.spans,
                       "counters": counters, **extra}, fh, separators=(",", ":"))
            fh.write("\n" + json.dumps({"write_end": CLOCK()}) + "\n")


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap every layer's public functions and the listed methods.

    `modules` maps module names to loaded modules; every `qpb.*` module in it
    has its aliases of a wrapped function rebound. Returns original -> wrapper.
    """
    wrappers = {}
    for layer, modname in LAYER_MODULES.items():
        for name, fn in public_functions(modules[modname]).items():
            wrappers[fn] = tracer.wrap(fn, f"{layer}.{name}", layer)
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])
    for (modname, clsname, meth), (layer, span) in METHODS.items():
        cls = getattr(modules[modname], clsname)
        fn = vars(cls)[meth]
        wrappers[fn] = tracer.wrap(fn, span, layer)
        setattr(cls, meth, wrappers[fn])
    return wrappers


def unwrapped_aliases(modules: dict, wrappers: dict) -> list[str]:
    """Names in the given modules (including module-level containers and
    class attributes) still bound to a function that has a wrapper."""
    def holds(value) -> bool:
        if isinstance(value, dict):
            return any(holds(v) for v in value.values())
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(holds(v) for v in value)
        return inspect.isfunction(value) and value in wrappers

    found = []
    for modname, module in modules.items():
        for name, value in vars(module).items():
            if holds(value):
                found.append(f"{modname}.{name}")
            elif inspect.isclass(value) and value.__module__ == modname:
                found.extend(f"{modname}.{name}.{attr}" for attr, v in vars(value).items()
                             if inspect.isfunction(v) and v in wrappers)
    return found


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    `spans` is a sequence of (name, start, end, parent) with parent the index
    of the enclosing span or -1. Children lie inside their parent's interval.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent != ROOT:
            out[parent] -= end - start
    return out
