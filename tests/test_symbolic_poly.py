from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpb.errors import ConfigurationError, IncompatibleOperandsError, ResourceBoundError
from qpb.symbolic import (
    GaussianRational,
    HbarPoly,
    OperatorPoly,
    commutator_poly,
    random_operator_poly,
    taylor_operator,
    weyl_symmetrize,
)

X = OperatorPoly.letter("X")
P = OperatorPoly.letter("P")
I_HBAR = OperatorPoly.scalar(HbarPoly.term(GaussianRational.of(0, 1), 1))
ORDER = {"X": 0, "P": 1, "H": 0, "T": 1}


def weyl_symmetrize_recursive(word: tuple[str, ...]) -> OperatorPoly:
    """Positional recursion S{w} = (1/n) sum_k w_k S{w minus position k}.

    Exponential in the word length; an independent cross-check of
    weyl_symmetrize on short words.
    """
    word = tuple(word)
    if len(word) > 8:
        raise ResourceBoundError("recursive symmetrization is limited to degree 8")
    if not word:
        return OperatorPoly.one()
    total = OperatorPoly.zero()
    for k in range(len(word)):
        rest = word[:k] + word[k + 1:]
        total = total + OperatorPoly.letter(word[k]) * weyl_symmetrize_recursive(rest)
    return total.scale(Fraction(1, len(word)))


def one_swap_normal_form(p: OperatorPoly) -> dict:
    """Normal ordering by repeated single swaps BA -> AB - i hbar at the first
    out-of-order pair; exponential in the word length, used as an oracle."""
    minus_i_hbar = HbarPoly.term(GaussianRational.of(0, -1), 1)
    out: dict = {}
    stack = list(p.terms())
    while stack:
        word, coeff = stack.pop()
        at = next((i for i in range(len(word) - 1) if ORDER[word[i]] > ORDER[word[i + 1]]), -1)
        if at < 0:
            s = out.get(word)
            s = coeff if s is None else s + coeff
            if s.is_zero():
                out.pop(word)
            else:
                out[word] = s
            continue
        stack.append((word[:at] + (word[at + 1], word[at]) + word[at + 2:], coeff))
        stack.append((word[:at] + word[at + 2:], coeff * minus_i_hbar))
    return out


def test_gaussian_rational_field_operations():
    a = GaussianRational.of(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational.of(2, -1)
    assert (a * b).re == Fraction(4, 3)
    assert (a * b).im == Fraction(1, 6)
    assert (a + b - b) == a
    assert a.conjugate().im == -Fraction(1, 3)
    assert not a.is_zero()
    assert complex(a.to_complex()) == 0.5 + 1j / 3


def test_hbar_poly_degree_convolution():
    p = HbarPoly.term(GaussianRational.of(2), 0) + HbarPoly.term(GaussianRational.of(0, 1), 1)
    q = p * p  # (2 + i hbar)^2 = 4 + 4 i hbar - hbar^2
    assert q.coefficient(0) == GaussianRational.of(4)
    assert q.coefficient(1) == GaussianRational.of(0, 4)
    assert q.coefficient(2) == GaussianRational.of(-1)
    assert q.evaluate(0.5) == pytest.approx((2 + 0.5j) ** 2)


def test_canonical_commutator():
    assert commutator_poly(X, P) == I_HBAR
    assert commutator_poly(P, X) == -I_HBAR
    assert commutator_poly(X, X).is_zero()


def test_commutator_is_central_to_high_degree():
    c = commutator_poly(X, P)
    for other in (X, P, X * X * P, weyl_symmetrize(("X", "X", "P", "P"))):
        assert commutator_poly(c, other).is_zero()


def test_normal_form_reorders_without_changing_value():
    # P X = X P - i hbar
    nf = (P * X).normal_form()
    assert nf == X * P - I_HBAR
    # equality is definitionally via normal forms, so both spellings agree
    assert P * X == X * P - I_HBAR


def test_normal_form_degree_three_identity():
    # P X^2 = X^2 P - 2 i hbar X
    lhs = (P * X * X).normal_form()
    rhs = X * X * P - I_HBAR.scale(2) * X
    assert lhs == rhs


@pytest.mark.parametrize("register", ["XP", "HT"])
def test_normal_form_equals_one_swap_rewrite(register):
    rng = np.random.default_rng(31)
    for _ in range(300):
        p = random_operator_poly(rng, max_degree=8, n_terms=4, register=register)
        assert dict(p.normal_form().terms()) == one_swap_normal_form(p)


def test_normal_form_matches_closed_form_reordering():
    # P^m X^n = sum_k (-i hbar)^k k! C(m, k) C(n, k) X^(n-k) P^(m-k)
    minus_i = GaussianRational.of(0, -1)
    for m in range(8):
        for n in range(8):
            expected = {}
            phase = GaussianRational.of(1)
            for k in range(min(m, n) + 1):
                weight = GaussianRational.of(factorial(k) * comb(m, k) * comb(n, k))
                expected[("X",) * (n - k) + ("P",) * (m - k)] = HbarPoly.term(phase * weight, k)
                phase = phase * minus_i
            nf = OperatorPoly.monomial(("P",) * m + ("X",) * n).normal_form()
            assert dict(nf.terms()) == expected, (m, n)


def test_weyl_symmetrize_small_words():
    assert weyl_symmetrize(("X", "P")) == (X * P + P * X).scale(Fraction(1, 2))
    # S{X^2 P} averages three distinct arrangements
    s = weyl_symmetrize(("X", "X", "P"))
    expected = (X * X * P + X * P * X + P * X * X).scale(Fraction(1, 3))
    assert s == expected
    assert s == X * X * P - I_HBAR * X


def test_weyl_symmetrize_empty_word_is_identity():
    assert weyl_symmetrize(()) == OperatorPoly.one()


@settings(deadline=None, max_examples=30)
@given(n_x=st.integers(min_value=0, max_value=3), n_p=st.integers(min_value=0, max_value=2))
def test_weyl_recursive_matches_combinatorial(n_x, n_p):
    word = ("X",) * n_x + ("P",) * n_p
    assert weyl_symmetrize(word) == weyl_symmetrize_recursive(word)


def test_weyl_symmetrize_self_adjoint_through_degree_eight():
    for total in range(9):
        for n_x in range(total + 1):
            s = weyl_symmetrize(("X",) * n_x + ("P",) * (total - n_x))
            assert s.adjoint() == s


def test_weyl_symmetrize_permutation_invariant():
    reference = weyl_symmetrize(("X", "X", "P"))
    for word in (("X", "P", "X"), ("P", "X", "X")):
        assert weyl_symmetrize(word) == reference
    assert weyl_symmetrize(("P", "X", "P", "X")) == weyl_symmetrize(("X", "X", "P", "P"))


def test_normal_form_idempotent_and_linear():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_operator_poly(rng, max_degree=4)
        b = random_operator_poly(rng, max_degree=4)
        nf = a.normal_form()
        assert nf.normal_form() == nf
        scale = Fraction(-3, 2)
        assert (a.scale(scale) + b).normal_form() == nf.scale(scale) + b.normal_form()


def test_commutator_central_against_random_polys():
    c = commutator_poly(X, P)
    rng = np.random.default_rng(22)
    for _ in range(20):
        q = random_operator_poly(rng, max_degree=6, n_terms=5)
        assert commutator_poly(c, q).is_zero()


def test_weyl_symmetrize_respects_degree_bound():
    with pytest.raises(ResourceBoundError):
        weyl_symmetrize(("X",) * 6 + ("P",) * 6)
    with pytest.raises(ResourceBoundError):
        weyl_symmetrize_recursive(("X",) * 5 + ("P",) * 5)


def test_taylor_operator_examples():
    assert taylor_operator({(1, 1): 1}) == weyl_symmetrize(("X", "P"))
    assert taylor_operator({(2, 0): 1, (0, 2): 1}) == X * X + P * P
    mixed = taylor_operator({(0, 0): 5, (2, 1): Fraction(1, 3)})
    expected = OperatorPoly.scalar(5) + weyl_symmetrize(("X", "X", "P")).scale(Fraction(1, 3))
    assert mixed == expected


def test_taylor_operator_validates_table():
    with pytest.raises(ConfigurationError):
        taylor_operator({(1,): 1})
    with pytest.raises(ConfigurationError):
        taylor_operator({(-1, 0): 1})
    with pytest.raises(ConfigurationError):
        taylor_operator({(7, 7): 1})


def test_register_mixing_rejected():
    H = OperatorPoly.letter("H")
    with pytest.raises(IncompatibleOperandsError):
        _ = X * H
    with pytest.raises(IncompatibleOperandsError):
        _ = X + H


def test_ht_register_has_same_algebra():
    H = OperatorPoly.letter("H")
    T = OperatorPoly.letter("T")
    assert commutator_poly(H, T) == I_HBAR
    assert weyl_symmetrize(("H", "T")) == (H * T + T * H).scale(Fraction(1, 2))


def test_adjoint_reverses_and_conjugates():
    a = X * P.scale(HbarPoly.term(GaussianRational.of(0, 2), 1))  # 2 i hbar X P
    adj = a.adjoint()
    assert adj == (P * X).scale(HbarPoly.term(GaussianRational.of(0, -2), 1))
    # involution
    assert adj.adjoint() == a


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_adjoint_is_antihomomorphism(seed):
    rng = np.random.default_rng(seed)
    a = random_operator_poly(rng, max_degree=3, n_terms=3)
    b = random_operator_poly(rng, max_degree=3, n_terms=3)
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_commutator_bilinear_antisymmetric(seed):
    rng = np.random.default_rng(seed)
    a = random_operator_poly(rng, max_degree=3, n_terms=2)
    b = random_operator_poly(rng, max_degree=3, n_terms=2)
    assert commutator_poly(a, b) == -commutator_poly(b, a)
    assert commutator_poly(a + b, a).normal_form() == commutator_poly(b, a).normal_form()


def test_unknown_letter_rejected():
    with pytest.raises(ConfigurationError):
        OperatorPoly.monomial(("X", "Q"))
