"""weyl_matrix_oracle: band products compared entry by entry on protected
blocks, held to the dense products they replace."""

import numpy as np
import pytest

from dense_letters import dense_of_band
from qpb import suites
from qpb.suites import SuiteConfig, run_suite
from qpb.symbolic import commutator_poly, matrix_realize, protected_slice, random_operator_poly

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


# the oracle's residual as float.hex(), stored per (n_trunc, seed, hbar): n_trunc
# 9 to 2048 at hbar 1; hbar 0.37 and 1e-50 move every realized entry
REFERENCE_RESIDUALS = {
    (9, 0, 1.0): "0x1.7426c5fa9207bp-51",
    (9, 3, 1.0): "0x1.63ddc5c297b83p-51",
    (9, 11, 1.0): "0x1.7455f52c2d62fp-51",
    (64, 0, 1.0): "0x1.95d4373b0d276p-50",
    (64, 3, 1.0): "0x1.5694ec3f56cb8p-50",
    (64, 11, 1.0): "0x1.049e4ae2659eap-49",
    (96, 0, 1.0): "0x1.9bf44b8aa2178p-50",
    (96, 3, 1.0): "0x1.4c869ee1b8c3ap-49",
    (96, 11, 1.0): "0x1.e5e8834774fdep-50",
    (256, 0, 1.0): "0x1.1b7038cd132dcp-49",
    (256, 3, 1.0): "0x1.590c7aa6df1dap-49",
    (256, 11, 1.0): "0x1.16a1eacbd9dacp-49",
    (2048, 11, 1.0): "0x1.f5c8d8dc40ca4p-49",
    (64, 0, 0.37): "0x1.a21058639fd56p-50",
    (64, 0, 1e-50): "0x1.4c1bacf914c1cp-56",
    (64, 3, 0.37): "0x1.233a4e24006a5p-50",
    (64, 3, 1e-50): "0x1.2121212121212p-56",
    (64, 11, 0.37): "0x1.a6de9c414e2a9p-50",
    (64, 11, 1e-50): "0x1.0000000000000p-130",
}


@pytest.mark.parametrize("n_trunc,seed,hbar", list(REFERENCE_RESIDUALS))
def test_blocked_oracle_has_the_bits_of_the_per_draw_loop(n_trunc, seed, hbar):
    """Each case's residual keeps its stored bits."""
    report = oracle(SuiteConfig(suite="weyl", n_trunc=n_trunc, seed=seed, hbar=hbar))
    assert report.residual.hex() == REFERENCE_RESIDUALS[n_trunc, seed, hbar]
