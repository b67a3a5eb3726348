"""The contract of qpb's record classes: each is constructed by keyword with
its field names, in their order and with their defaults; no field can be
assigned or deleted afterwards; records compare and hash by value. And the
package loads no class generator: importing the CLI leaves `dataclasses`
unloaded."""

import copy
import inspect
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qpb.grids import UniformGrid, WaveFunction
from qpb.kk import AnalyticSignal
from qpb.ladder import LadderSystem, build
from qpb.moments import Moments
from qpb.operators import GridOperator
from qpb.record import Record
from qpb.report import Check, CheckReport
from qpb.suites import SuiteConfig
from qpb.symbolic.expr import Comm, Pow, Prod, Scalar, Sum, Sym, WeylS

GRID = UniformGrid(dim=1, n_points=16, half_extent=4.0)
SAMPLES = np.arange(16, dtype=np.complex128)
X, P = Sym(name="X"), Sym(name="P")
_LADDER = build(8)

# class -> (the arguments it must be given, by keyword, in field order;
#           every defaulted field with its default)
RECORDS = {
    UniformGrid: ({"dim": 1, "n_points": 16, "half_extent": 4.0}, {"hbar": 1.0}),
    WaveFunction: ({"grid": GRID, "representation": "position", "values": SAMPLES}, {}),
    Check: ({"paper_ref": "Eq 20", "tolerance": 1e-6}, {}),
    CheckReport: ({"check_id": "kk_residual", "paper_ref": "Eq 14", "residual": 0.5,
                   "tolerance": 1.0}, {"valid": True, "context": {}}),
    AnalyticSignal: ({"grid": GRID, "values": SAMPLES}, {"analyticity_half_plane": "lower"}),
    LadderSystem: ({name: getattr(_LADDER, name) for name in
                    ("n_trunc", "omega", "hbar", "lowering", "energy", "time", "number")}, {}),
    Moments: ({"mean": 0.0, "second": 1.0, "spread": 1.0, "mean_imag_residue": 0.0}, {}),
    GridOperator: ({"kind": "position_multiply", "axis": 0, "grid": GRID}, {}),
    SuiteConfig: ({}, {"suite": "all", "n_points": None, "half_extent": None, "hbar": 1.0,
                       "n_trunc": 64, "omega": 1.0, "seed": 0, "tolerances": {}}),
    Sym: ({"name": "X"}, {}),
    Scalar: ({}, {"frac": Fraction(1), "imag": False, "hbar_pow": 0}),
    Sum: ({"terms": ((1, X), (-1, P))}, {}),
    Prod: ({"factors": (X, P)}, {}),
    Pow: ({"base": X, "exp": 2}, {}),
    Comm: ({"lhs": X, "rhs": P}, {}),
    WeylS: ({"inner": Prod(factors=(X, P))}, {}),
}
CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_the_table_holds_every_record_class():
    """Every class on the Record base with fields of its own, so a new one
    joins the table."""
    found, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__slots__:
            found.add(cls)
    assert found == set(RECORDS) and len(RECORDS) == 16


@CLASSES
def test_keyword_construction_with_the_field_names_order_and_defaults(cls):
    required, defaults = RECORDS[cls]
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == [*required, *defaults]
    # a dict field defaults to None in the signature and to a fresh {} on the record
    assert {name: p.default for name, p in parameters.items() if p.default is not p.empty} \
        == {name: None if value == {} else value for name, value in defaults.items()}
    assert [name for name in cls.__slots__ if name[0] != "_"] == list(parameters)
    record = cls(**required)
    for name, value in {**required, **defaults}.items():
        assert _same(getattr(record, name), value), name
    assert all(_same(getattr(cls(**required, **defaults), name), value)
               for name, value in defaults.items())


@CLASSES
def test_no_field_can_be_assigned_or_deleted(cls):
    required, defaults = RECORDS[cls]
    record = cls(**required)
    for name in [*required, *defaults]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@CLASSES
def test_copy_and_pickle_rebuild_the_record(cls):
    required, defaults = RECORDS[cls]
    record = cls(**required)
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        for name in [*required, *defaults]:
            value = getattr(twin, name)
            assert _same(value, getattr(record, name)), name
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name


def test_equal_grids_compare_and_hash_equal():
    """A grid keys the caches of per-grid arrays, so a grid built again must
    find the first one's entry."""
    a = UniformGrid(dim=3, n_points=32, half_extent=8.0, hbar=0.5)
    b = UniformGrid(3, 32, 8.0, 0.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != UniformGrid(dim=3, n_points=32, half_extent=8.0)
    assert a != (3, 32, 8.0, 0.5)


def test_array_records_compare_their_arrays_by_value():
    """Distinct but equal arrays make equal records with equal hashes; one
    changed sample makes them unequal."""
    a = WaveFunction(GRID, "position", np.zeros(16))
    b = WaveFunction(GRID, "position", np.zeros(16))
    assert a.values is not b.values and a == b and hash(a) == hash(b)
    changed = np.zeros(16)
    changed[5] = 1.0
    assert a != WaveFunction(GRID, "position", changed)
    assert a != WaveFunction(GRID, "momentum", np.zeros(16))
    assert AnalyticSignal(GRID, SAMPLES) == AnalyticSignal(GRID, SAMPLES.copy())
    twin = LadderSystem(**RECORDS[LadderSystem][0])
    assert twin == _LADDER and hash(twin) == hash(_LADDER)


def test_expression_nodes_equal_only_same_type_nodes_with_equal_fields():
    nodes = [X, P, Scalar(), Scalar(frac=Fraction(1, 2), imag=True, hbar_pow=1),
             Sum(terms=((1, X), (1, P))), Sum(terms=((1, X), (-1, P))),
             Prod(factors=(X, P)), Prod(factors=(P, X)), Pow(base=X, exp=2), Pow(base=X, exp=3),
             Comm(lhs=X, rhs=P), Comm(lhs=P, rhs=X), WeylS(inner=Prod(factors=(X, P))),
             WeylS(inner=X)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) == (i == j), (a, b)
    # the fields alone are not enough: these pairs hold equal values
    assert Comm(lhs=X, rhs=2) != Pow(base=X, exp=2)
    assert WeylS(inner=(X, P)) != Prod(factors=(X, P))
    # rebuilt from equal fields, each node equals and hashes as the first
    for node in nodes:
        fields = {name: getattr(node, name) for name in inspect.signature(type(node)).parameters}
        twin = type(node)(**fields)
        assert twin is not node and twin == node and hash(twin) == hash(node)


def test_importing_the_cli_loads_no_dataclasses():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, qpb.cli; print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
