"""Every defaulted parameter of a function under src/qpb is passed, by keyword
or by position, by some call under src/qpb, or is listed in ALLOWED with its
reason. A default that no caller overrides is a knob with one value: it
belongs in a module constant, which tests/test_fixed_parameters.py then holds
to what its kernel reads. Read from the source, like tests/test_errors.py.

Calls are matched to definitions by the bare name they call (`f(...)` and
`x.f(...)`; `C(...)`, and `cls(...)` inside class C, for `C.__init__`), so a
call to one function also counts for another of the same name. That errs
towards passing a knob; it never flags a parameter that some call does pass.
"""

import ast
from pathlib import Path

import qpb

SRC = Path(qpb.__file__).resolve().parent

# "module.qualname(parameter)" -> why no call under src/qpb passes it
ALLOWED = {
    "cli.main(argv)": "tests drive the CLI in process; the process entry reads sys.argv",
}


def _functions(body, prefix, in_class):
    """(qualname, def node, index of its first call-site parameter) for every
    function in body, nested ones included; a method's self or cls is bound,
    so its call sites start at parameter 1."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            yield f"{prefix}{node.name}", node, 1 if in_class and not static else 0
            yield from _functions(node.body, f"{prefix}{node.name}.", False)


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        yield module, ast.parse(path.read_text(encoding="utf-8"))


def _defaulted_parameters():
    """name -> [(label, parameter, call position or None)] for every
    defaulted parameter, keyed by the name its callers call."""
    found = {}
    for module, tree in _trees():
        for qualname, node, first in _functions(tree.body, "", False):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [(p.arg, i - first)
                         for i, p in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(p.arg, None)
                          for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            parts = qualname.split(".")
            name = parts[-2] if parts[-1] == "__init__" and len(parts) > 1 else parts[-1]
            for param, position in defaulted:
                found.setdefault(name, []).append(
                    (f"{module}.{qualname}({param})", param, position))
    return found


def _calls():
    """(called name, number of leading positional arguments, keyword names,
    whether a * or ** argument may pass any parameter) for every call."""
    for _, tree in _trees():
        owners = {call: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for call in ast.walk(cls) if isinstance(call, ast.Call)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            n_positional = starred[0] if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            if name == "cls":
                name = owners.get(node)
            yield name, n_positional, keywords, bool(starred) or None in keywords


def _unpassed() -> set[str]:
    params = _defaulted_parameters()
    unpassed = {label for entries in params.values() for label, _, _ in entries}
    for name, n_positional, keywords, spread in _calls():
        for label, param, position in params.get(name, ()):
            if spread or param in keywords or (position is not None
                                               and 0 <= position < n_positional):
                unpassed.discard(label)
    return unpassed


def test_every_default_is_passed_by_some_call_or_allowed():
    assert sorted(_unpassed() - set(ALLOWED)) == []


def test_every_allowed_default_still_exists_and_is_still_unpassed():
    assert sorted(set(ALLOWED) - _unpassed()) == []
