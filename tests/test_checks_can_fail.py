"""Each check can FAIL: a defect injected into the identity it checks turns
its verdict. DEFECTS is keyed by check id and holds the weyl suite's exact
checks so far; it grows towards every id of report.CHECKS."""

import pytest

from qpb import suites
from qpb.report import CHECKS
from qpb.suites import SuiteConfig, run_suite
from qpb.symbolic import poly
from qpb.symbolic.poly import _ordering


def _one_contraction_too_many(monkeypatch):
    # every pattern that contracts at all counts one way too many to make one
    # contraction, so P X normal-orders to X P - 2 i*hbar
    def spoiled(orders):
        counts = _ordering(orders)
        return counts[:1] + (counts[1] + 1,) + counts[2:] if len(counts) > 1 else counts
    monkeypatch.setattr(poly, "_ordering", spoiled)


def _only_the_word_itself(monkeypatch):
    # weyl_symmetrize keeps the word in place of its arrangements. A
    # non-reversing adjoint cannot break weyl_adjoint_symmetry instead: the
    # full average over arrangements is invariant under reversal anyway
    monkeypatch.setattr(poly, "permutations", lambda word: [tuple(word)])


def _starless_printer(monkeypatch):
    # "3*i*hbar^2" prints as "3ihbar^2", which is not the canonical spelling
    print_expression = suites.print_expression
    monkeypatch.setattr(suites, "print_expression",
                        lambda node: print_expression(node).replace("*", ""))


# check id -> installs a defect in the identity that check states
DEFECTS = {
    "weyl_poisson_exact": _one_contraction_too_many,
    "weyl_sxp_normal_form": _one_contraction_too_many,
    "weyl_centrality": _one_contraction_too_many,
    "weyl_adjoint_symmetry": _only_the_word_itself,
    "weyl_parser_round_trip": _starless_printer,
}


@pytest.fixture
def fresh_ordering():
    """_ordering's memo neither hides a defect nor keeps one: its recursion
    calls the module name, so a spoiled run stores spoiled prefixes."""
    _ordering.cache_clear()
    yield
    _ordering.cache_clear()


def _verdicts():
    return {r.check_id: r.passed for r in run_suite(SuiteConfig(suite="weyl"))}


def test_every_defect_names_a_check_that_passes_without_it():
    assert set(DEFECTS) <= set(CHECKS)
    verdicts = _verdicts()
    assert all(verdicts[check_id] for check_id in DEFECTS)


@pytest.mark.parametrize("check_id", list(DEFECTS))
def test_each_check_fails_on_its_defect(check_id, monkeypatch, fresh_ordering):
    DEFECTS[check_id](monkeypatch)
    assert _verdicts()[check_id] is False
