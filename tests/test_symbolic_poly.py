from fractions import Fraction
from math import comb, factorial, gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpb.errors import ConfigurationError
from qpb.symbolic import (
    GaussianRational,
    HbarPoly,
    OperatorPoly,
    commutator_poly,
    poly_of,
    random_operator_poly,
    taylor_operator,
    weyl_symmetrize,
)
from qpb.symbolic.poly import _ordering

X = OperatorPoly.monomial(("X",))
P = OperatorPoly.monomial(("P",))
I_HBAR = OperatorPoly.monomial((), HbarPoly.term(GaussianRational(0, 1), 1))
ORDER = {"X": 0, "P": 1}


def draw(rng, letters, max_degree, n_terms):
    """random_operator_poly's next draw, whose words use only `letters`."""
    p = random_operator_poly(rng, max_degree=max_degree, n_terms=n_terms)
    assert {letter for word, _ in p.terms() for letter in word} <= set(letters)
    return p


def weyl_symmetrize_recursive(word: tuple[str, ...]) -> OperatorPoly:
    """Positional recursion S{w} = (1/n) sum_k w_k S{w minus position k}.

    Exponential in the word length; an independent cross-check of
    weyl_symmetrize on short words.
    """
    word = tuple(word)
    if len(word) > 8:
        raise ConfigurationError("recursive symmetrization is limited to degree 8")
    if not word:
        return OperatorPoly.monomial(())
    total = OperatorPoly()
    for k in range(len(word)):
        rest = word[:k] + word[k + 1:]
        total = total + OperatorPoly.monomial((word[k],)) * weyl_symmetrize_recursive(rest)
    return total.scale(Fraction(1, len(word)))


def one_swap_normal_form(p: OperatorPoly) -> dict:
    """Normal ordering by repeated single swaps BA -> AB - i hbar at the first
    out-of-order pair; exponential in the word length, used as an oracle."""
    minus_i_hbar = HbarPoly.term(GaussianRational(0, -1), 1)
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


def rational_table_normal_form(p: OperatorPoly) -> dict:
    """The left-to-right reading of normal_form with an (i, j) -> HbarPoly
    table, every step in exact rational arithmetic: the loop the integer
    counts replaced, kept as a reference for values and insertion order."""
    def add(table, key, value):
        s = table.get(key)
        s = value if s is None else s + value
        if s.is_zero():
            table.pop(key, None)
        else:
            table[key] = s

    out: dict = {}
    for word, coeff in p.terms():
        table = {(0, 0): coeff}
        for letter in word:
            step: dict = {}
            for (i, j), c in table.items():
                if ORDER[letter]:
                    add(step, (i, j + 1), c)
                    continue
                add(step, (i + 1, j), c)
                if j:
                    # c * (-j i hbar): (re + i im)(-j i) = j im - i j re
                    add(step, (i, j - 1), HbarPoly(
                        {d + 1: GaussianRational(j * g.im, -j * g.re) for d, g in c.items()}))
            table = step
        for (i, j), c in table.items():
            add(out, ("X",) * i + ("P",) * j, c)
    return out


def ordered(terms) -> list:
    """Words and their coefficients' (degree, value) pairs in insertion order."""
    return [(word, list(coeff.items())) for word, coeff in terms]


@pytest.mark.parametrize("letters", ["XP"])
def test_normal_form_equals_rational_table_reading_in_order(letters):
    rng = np.random.default_rng(33)
    for _ in range(200):
        p = draw(rng, letters, max_degree=8, n_terms=4)
        assert ordered(p.normal_form().terms()) == ordered(rational_table_normal_form(p).items())


def fraction_built_draw(rng: np.random.Generator, max_degree: int, n_terms: int,
                        letters: str) -> OperatorPoly:
    """random_operator_poly's draws (one call for every term's five integer
    fields, one for all the letters), with each coefficient built from two
    Fractions and the terms summed through the public OperatorPoly +, kept as
    the reference for its integer arithmetic."""
    fields = rng.integers([0, -6, 1, -3, 0], [max_degree + 1, 7, 5, 4, 2], size=(n_terms, 5))
    picks = iter(rng.integers(0, 2, size=int(fields[:, 0].sum())))
    total = OperatorPoly()
    for length, num, den, half_im, hbar_pow in fields:
        word = tuple(letters[int(next(picks))] for _ in range(length))
        re, im = Fraction(int(num), int(den)), Fraction(int(half_im), 2)
        total = total + OperatorPoly({word: HbarPoly.term(GaussianRational(re, im), int(hbar_pow))})
    return total


@pytest.mark.parametrize("letters", ["XP"])
def test_random_operator_poly_equals_the_fraction_built_draws(letters):
    for seed in range(10):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            p = draw(rng, letters, max_degree=8, n_terms=4)
            q = fraction_built_draw(reference, max_degree=8, n_terms=4, letters=letters)
            assert ordered(p.terms()) == ordered(q.terms())
        # the same generator calls, so every later draw is unchanged too
        assert rng.integers(1 << 62) == reference.integers(1 << 62)


@pytest.mark.parametrize("letters", ["XP"])
def test_commutator_equals_the_normal_form_of_the_products(letters):
    """Exact coefficients against (a b - b a).normal_form(), the route through
    product polynomials. The term order follows from the inputs alone: a cold
    and a warm cache give the same terms in the same order."""
    _ordering.cache_clear()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(41)
        run = []
        for _ in range(100):
            a = draw(rng, letters, max_degree=8, n_terms=3)
            b = draw(rng, letters, max_degree=8, n_terms=3)
            c = commutator_poly(a, b)
            via_products = (a * b - b * a).normal_form()
            assert dict(c.terms()) == dict(via_products.terms())
            assert c.normal_form() is c
            run.append(ordered(c.terms()))
        runs.append(run)
    assert runs[0] == runs[1]


def test_ordering_cache_is_bounded_and_long_words_still_normal_order():
    _ordering.cache_clear()
    rng = np.random.default_rng(43)
    for _ in range(100):
        a = random_operator_poly(rng, max_degree=8, n_terms=3)
        b = random_operator_poly(rng, max_degree=8, n_terms=3)
        commutator_poly(a, b)
    info = _ordering.cache_info()
    assert info.misses > info.maxsize == info.currsize == 512
    # degree 12 after the cache filled, then words past the memoized prefix
    for text in ("(P X)^6", "P^3 X^2 P X^4 P X", "(P X P)^4", "(P X)^20", "P^3 X^30 P X"):
        p = poly_of(text)
        assert ordered(p.normal_form().terms()) == ordered(rational_table_normal_form(p).items())
    nf = poly_of("P X^3000").normal_form()
    assert nf == poly_of("X^3000 P - 3000*i*hbar X^2999")


def test_normal_form_is_kept_and_is_its_own():
    p = X * P * X + P * P * X
    nf = p.normal_form()
    assert p.normal_form() is nf
    assert nf.normal_form() is nf
    c = commutator_poly(X * X, P)
    assert c.normal_form() is c


def test_equal_polys_built_in_different_orders_hash_equal():
    a = X * P + P * X
    b = P * X + X * P
    c = (X + P) * (X + P) - X * X - P * P
    d = (X * P).scale(2) - I_HBAR
    for q in (b, c, d):
        assert q == a
        assert hash(q) == hash(a)
    assert len({a, b, c, d}) == 1


def frac_ref(g: GaussianRational) -> tuple[Fraction, Fraction]:
    return g.re, g.im


def ref_str(re: Fraction, im: Fraction) -> str:
    """GaussianRational.__str__ on a (Fraction, Fraction) pair."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


rationals = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    st.fractions(max_denominator=10**9).filter(lambda f: abs(f) < 10**12),
)


def same_float(x: float, y: float) -> bool:
    return np.float64(x).view(np.uint64) == np.float64(y).view(np.uint64)


@settings(deadline=None, max_examples=300)
@given(r1=rationals, i1=rationals, r2=rationals, i2=rationals)
# a numerator above 2**53: rounding it to a float before dividing rounds twice
@example(r1=Fraction(12358174754309001862, 408747), i1=0, r2=1, i2=0)
def test_gaussian_rational_matches_fraction_pair_reference(r1, i1, r2, i2):
    x, y = GaussianRational(r1, i1), GaussianRational(r2, i2)
    r1, i1, r2, i2 = map(Fraction, (r1, i1, r2, i2))
    assert frac_ref(x) == (r1, i1) and frac_ref(y) == (r2, i2)
    assert all(type(v) is Fraction for v in frac_ref(x))
    assert frac_ref(x + y) == (r1 + r2, i1 + i2)
    assert frac_ref(x - y) == (r1 - r2, i1 - i2)
    assert frac_ref(x * y) == (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)
    assert frac_ref(-x) == (-r1, -i1)
    assert frac_ref(x.conjugate()) == (r1, -i1)
    assert x.is_zero() == (r1 == 0 and i1 == 0)
    assert str(x) == ref_str(r1, i1) and str(x * y) == ref_str(*frac_ref(x * y))
    z, ref = x.to_complex(), complex(r1, i1)
    assert same_float(z.real, ref.real) and same_float(z.imag, ref.imag)
    # lowest terms with a positive denominator
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1
    assert (x * y)._d > 0 and gcd((x * y)._a, (x * y)._b, (x * y)._d) == 1


@settings(deadline=None, max_examples=200)
@given(r1=rationals, i1=rationals, r2=rationals, i2=rationals,
       n=st.integers(min_value=-50, max_value=50).filter(bool), m=st.integers(0, 9))
def test_gaussian_rational_equal_values_by_different_routes_hash_equal(r1, i1, r2, i2, n, m):
    x, y = GaussianRational(r1, i1), GaussianRational(r2, i2)
    routes = [
        (x + y) - y,
        y + (x - y),
        GaussianRational(Fraction(r1) * 6 / 6, Fraction(i1) * 35 / 35),
        (x * y + x) - x * y,
        -(-x),
        x.conjugate().conjugate(),
    ]
    for r in routes:
        assert r == x and hash(r) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)
    turned = GaussianRational(n)
    for _ in range(m):
        turned = turned * GaussianRational(0, -1)
    assert x.times_neg_i_power(n, m) == x * turned
    assert hash(x.times_neg_i_power(n, m)) == hash(x * turned)


def test_gaussian_rational_field_operations():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(2, -1)
    assert (a * b).re == Fraction(4, 3)
    assert (a * b).im == Fraction(1, 6)
    assert (a + b - b) == a
    assert a.conjugate().im == -Fraction(1, 3)
    assert not a.is_zero()
    assert complex(a.to_complex()) == 0.5 + 1j / 3


def test_hbar_poly_degree_convolution():
    p = HbarPoly.term(GaussianRational(2), 0) + HbarPoly.term(GaussianRational(0, 1), 1)
    q = p * p  # (2 + i hbar)^2 = 4 + 4 i hbar - hbar^2
    assert dict(q.items()) == {0: GaussianRational(4), 1: GaussianRational(0, 4),
                               2: GaussianRational(-1)}
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


@pytest.mark.parametrize("letters", ["XP"])
def test_normal_form_equals_one_swap_rewrite(letters):
    rng = np.random.default_rng(31)
    for _ in range(300):
        p = draw(rng, letters, max_degree=8, n_terms=4)
        assert dict(p.normal_form().terms()) == one_swap_normal_form(p)


def test_normal_form_matches_closed_form_reordering():
    # P^m X^n = sum_k (-i hbar)^k k! C(m, k) C(n, k) X^(n-k) P^(m-k)
    minus_i = GaussianRational(0, -1)
    for m in range(8):
        for n in range(8):
            expected = {}
            phase = GaussianRational(1)
            for k in range(min(m, n) + 1):
                weight = GaussianRational(factorial(k) * comb(m, k) * comb(n, k))
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
    assert weyl_symmetrize(()) == OperatorPoly.monomial(())


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
    with pytest.raises(ConfigurationError):
        weyl_symmetrize(("X",) * 6 + ("P",) * 6)
    with pytest.raises(ConfigurationError):
        weyl_symmetrize_recursive(("X",) * 5 + ("P",) * 5)


def test_taylor_operator_examples():
    assert taylor_operator({(1, 1): 1}) == weyl_symmetrize(("X", "P"))
    assert taylor_operator({(2, 0): 1, (0, 2): 1}) == X * X + P * P
    mixed = taylor_operator({(0, 0): 5, (2, 1): Fraction(1, 3)})
    expected = OperatorPoly.monomial((), 5) + weyl_symmetrize(("X", "X", "P")).scale(Fraction(1, 3))
    assert mixed == expected


def test_taylor_operator_validates_table():
    with pytest.raises(ConfigurationError):
        taylor_operator({(1,): 1})
    with pytest.raises(ConfigurationError):
        taylor_operator({(-1, 0): 1})
    with pytest.raises(ConfigurationError):
        taylor_operator({(7, 7): 1})


def test_letters_other_than_x_and_p_rejected():
    # X and P are the only letters: an energy or time letter beside them is
    # rejected where the word is built
    for word in (("X", "H"), ("T", "P")):
        with pytest.raises(ConfigurationError, match="unknown operator letter"):
            OperatorPoly.monomial(word)
        with pytest.raises(ConfigurationError, match="unknown operator letter"):
            weyl_symmetrize(word)


def test_adjoint_reverses_and_conjugates():
    a = X * P.scale(HbarPoly.term(GaussianRational(0, 2), 1))  # 2 i hbar X P
    adj = a.adjoint()
    assert adj == (P * X).scale(HbarPoly.term(GaussianRational(0, -2), 1))
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
