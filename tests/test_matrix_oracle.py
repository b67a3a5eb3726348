"""weyl_matrix_oracle: band products compared entry by entry on protected
blocks, held to the dense products they replace."""

import numpy as np
import pytest

from dense_letters import dense_of_band
from qpb import suites
from qpb.report import worst
from qpb.suites import SuiteConfig, run_suite
from qpb.symbolic import (
    band_product,
    commutator_poly,
    matrix_realize,
    protected_defect,
    protected_slice,
    random_operator_poly,
)

TOL = 1e-10
# the order _weyl_checks realizes each draw's bands in: a, b, [a, b], a's normal form
REALIZATIONS = ("a", "b", "commutator", "normal_form")


def oracle(cfg):
    return {r.check_id: r for r in run_suite(cfg)}["weyl_matrix_oracle"]


def perturbing(monkeypatch, which, entry):
    """Add 1e-9 (1 + max|M|) to entry (i, j) of every realization M of kind
    `which`, at band[k + j - i, j] of its band."""
    original = suites.matrix_realize
    calls = []

    def perturbed(*args, **kwargs):
        band = original(*args, **kwargs)
        calls.append(None)
        if REALIZATIONS[(len(calls) - 1) % 4] == which:
            (i, j), k = entry, len(band) // 2
            assert abs(j - i) <= k
            band[k + j - i, j] += 1e-9 * (1.0 + float(np.max(np.abs(band))))
        return band

    monkeypatch.setattr(suites, "matrix_realize", perturbed)
    return calls


@pytest.mark.parametrize("n_trunc", [9, 64, 96])
@pytest.mark.parametrize("which", ["commutator", "normal_form"])
def test_one_wrong_protected_entry_fails_the_oracle(monkeypatch, n_trunc, which):
    # every draw's protected block holds the first n_trunc - 2 * ORACLE_TERM_DEGREE states
    i = n_trunc - 2 * suites.ORACLE_TERM_DEGREE - 1
    calls = perturbing(monkeypatch, which, (i, i))
    report = oracle(SuiteConfig(suite="weyl", n_trunc=n_trunc))
    assert len(calls) == 4 * suites.N_ORACLE_DRAWS
    assert report.residual > TOL
    assert not report.passed


@pytest.mark.parametrize("n_trunc", [9, 64, 96])
def test_a_wrong_entry_outside_the_protected_block_is_ignored(monkeypatch, n_trunc):
    clean = oracle(SuiteConfig(suite="weyl", n_trunc=n_trunc))
    # the last state lies outside every protected block of degree >= 1
    perturbing(monkeypatch, "commutator", (n_trunc - 1, n_trunc - 1))
    report = oracle(SuiteConfig(suite="weyl", n_trunc=n_trunc))
    assert report.passed
    assert report.residual == clean.residual


def test_oracle_draws_the_bare_polynomial_stream(monkeypatch):
    seed = 3
    drawn = []
    original = suites.random_operator_poly

    def recording(*args, **kwargs):
        drawn.append(original(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(suites, "random_operator_poly", recording)
    run_suite(SuiteConfig(suite="weyl", n_trunc=9, seed=seed))
    rng = np.random.default_rng(seed)
    bare = [random_operator_poly(rng, max_degree=suites.ORACLE_TERM_DEGREE, n_terms=3)
            for _ in range(2 * suites.N_ORACLE_DRAWS)]
    assert drawn == bare


def dense_oracle_residual(n_trunc, seed):
    """The oracle on dense matrices: the realized bands scattered to n_trunc x
    n_trunc, full products on the protected blocks, each relative to
    1 + max|A B| (commutator) or 1 + max|A|."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(suites.N_ORACLE_DRAWS):
        a = random_operator_poly(rng, max_degree=suites.ORACLE_TERM_DEGREE, n_terms=3)
        b = random_operator_poly(rng, max_degree=suites.ORACLE_TERM_DEGREE, n_terms=3)
        m_a = dense_of_band(matrix_realize(a, n_trunc, 1.0))
        m_b = dense_of_band(matrix_realize(b, n_trunc, 1.0))
        s = protected_slice(n_trunc, max(a.total_degree() + b.total_degree(), 1))
        prod = m_a @ m_b
        direct = (prod - m_b @ m_a)[s, s]
        symbolic = dense_of_band(matrix_realize(commutator_poly(a, b), n_trunc, 1.0))[s, s]
        nf = dense_of_band(matrix_realize(a.normal_form(), n_trunc, 1.0))
        sa = protected_slice(n_trunc, max(a.total_degree(), 1))
        worst = max(worst,
                    float(np.max(np.abs(symbolic - direct))) / (1.0 + float(np.max(np.abs(prod)))),
                    float(np.max(np.abs((nf - m_a)[sa, sa]))) / (1.0 + float(np.max(np.abs(m_a)))))
    return worst


@pytest.mark.parametrize("n_trunc", [64, 96])
@pytest.mark.parametrize("seed", range(8))
def test_dense_and_probe_residuals_both_pass(n_trunc, seed):
    """The band residual passes and agrees with the dense one within a factor
    of 2 (0.84-1.22 measured): both are rounding-level, and only the
    products' summation order differs."""
    report = oracle(SuiteConfig(suite="weyl", n_trunc=n_trunc, seed=seed))
    dense = dense_oracle_residual(n_trunc, seed)
    assert report.passed
    assert 0.0 < report.residual <= TOL
    assert dense <= TOL
    assert dense / 2 <= report.residual <= 2 * dense


def test_report_states_its_scaling():
    context = oracle(SuiteConfig(suite="weyl")).context
    assert "n_probes" not in context
    assert "1 + max |A B|" in context["residual_scaling"]


def per_draw_oracle_residual(n_trunc, seed, hbar):
    """weyl_matrix_oracle one draw at a time, the loop its degree-class blocks
    replace: each pair's 2D bands, band products, protected defects and
    maxima, in draw order."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(suites.N_ORACLE_DRAWS):
        a = random_operator_poly(rng, max_degree=suites.ORACLE_TERM_DEGREE, n_terms=3)
        b = random_operator_poly(rng, max_degree=suites.ORACLE_TERM_DEGREE, n_terms=3)
        m_a = matrix_realize(a, n_trunc, hbar)
        m_b = matrix_realize(b, n_trunc, hbar)
        symbolic = matrix_realize(commutator_poly(a, b), n_trunc, hbar)
        nf = matrix_realize(a.normal_form(), n_trunc, hbar)
        ab = band_product(m_a, m_b)
        direct = ab - band_product(m_b, m_a)
        residuals += [
            protected_defect(symbolic, direct, max(a.total_degree() + b.total_degree(), 1))
            / (1.0 + float(np.max(np.abs(ab)))),
            protected_defect(nf, m_a, max(a.total_degree(), 1))
            / (1.0 + float(np.max(np.abs(m_a)))),
        ]
    return worst(residuals)


def oracle_blocks(monkeypatch, cfg):
    """cfg's weyl_matrix_oracle report and the (degree class, pairs) of each
    block it checked, in order."""
    blocks = []
    original = suites._oracle_stacks

    def recording(pairs, degrees, *args):
        blocks.append((degrees, len(pairs)))
        return original(pairs, degrees, *args)

    monkeypatch.setattr(suites, "_oracle_stacks", recording)
    return oracle(cfg), blocks


# n_trunc 9-96 hold classes of several pairs per block, 256 and 2048 only
# blocks of one pair; hbar 0.37 and 1e-50 move every realized entry
REFERENCE_CASES = ([(n, seed, 1.0) for n in (9, 64, 96, 256) for seed in (0, 3, 11)]
                   + [(2048, 11, 1.0)]
                   + [(64, seed, hbar) for seed in (0, 3, 11) for hbar in (0.37, 1e-50)])


@pytest.mark.parametrize("n_trunc,seed,hbar", REFERENCE_CASES)
def test_blocked_oracle_has_the_bits_of_the_per_draw_loop(monkeypatch, n_trunc, seed, hbar):
    report, blocks = oracle_blocks(
        monkeypatch, SuiteConfig(suite="weyl", n_trunc=n_trunc, seed=seed, hbar=hbar))
    assert sum(pairs for _, pairs in blocks) == suites.N_ORACLE_DRAWS
    assert report.residual.hex() == per_draw_oracle_residual(n_trunc, seed, hbar).hex()


def test_the_reference_cases_hold_every_block_shape(monkeypatch):
    def shapes(n_trunc, seed):
        blocks = oracle_blocks(monkeypatch, SuiteConfig(suite="weyl", n_trunc=n_trunc,
                                                        seed=seed))[1]
        drawn, checked = {}, {}
        for degrees, pairs in blocks:
            drawn[degrees] = drawn.get(degrees, 0) + pairs
            checked[degrees] = checked.get(degrees, 0) + 1
        return blocks, drawn, checked

    # a class drawn once, where a block could hold more pairs
    _, drawn, _ = shapes(9, 0)
    assert [d for d, pairs in drawn.items() if pairs == 1 and suites._oracle_block_pairs(9, *d) > 1]
    # a class of several full blocks of more than one pair
    _, drawn, checked = shapes(64, 0)
    assert [d for d in drawn if checked[d] > 1 and suites._oracle_block_pairs(64, *d) > 1]
    # blocks of one pair only
    for n_trunc in (256, 2048):
        blocks, _, _ = shapes(n_trunc, 11)
        assert {pairs for _, pairs in blocks} == {1}


def test_block_budget_counts_every_live_block_array():
    # A, B, [A, B], N, A B, B A and A B - B A for one pair of class (4, 4)
    rows = 9 + 9 + 17 + 9 + 3 * 17
    assert suites._oracle_block_pairs(64, 4, 4) == suites.BLOCK_SAMPLES // (rows * 64)
    assert suites._oracle_block_pairs(suites.BLOCK_SAMPLES, 0, 0) == 1
