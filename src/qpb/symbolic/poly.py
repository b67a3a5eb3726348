"""Noncommutative polynomials in the canonical pair X, P.

Words are tuples over the letters "X" and "P", with the single relation
PX = XP - i*hbar (the commutator [X, P] is +i*hbar). Coefficients are
HbarPoly, so all identities are exact. Products are kept as written; normal
ordering happens only when a normal form is requested, which keeps identities
about reordering falsifiable instead of true by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, zip_longest
from math import gcd

import numpy as np

from ..errors import ConfigurationError
from .coeffs import GaussianRational, HbarPoly

_ORDER = {"X": 0, "P": 1}

SYMMETRIZE_DEGREE_BOUND = 10
# holds all 511 patterns of up to 8 letters: weyl's products of two degree-4
# draws and their prefixes
_ORDERING_CACHE_SIZE = 512
_ORDERING_PREFIX = 16


def _check_letters(word: tuple[str, ...]) -> None:
    for letter in word:
        if letter not in _ORDER:
            raise ConfigurationError(f"unknown operator letter {letter!r}")


def _accumulate(table: dict, key, value: HbarPoly) -> None:
    """Add value into table[key], dropping the entry when the sum is zero."""
    s = table.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        table.pop(key, None)
    else:
        table[key] = s


def _pattern(word: tuple[str, ...]) -> tuple[int, ...]:
    """Letter-order pattern of a word: 0 for X, 1 for P."""
    return tuple([_ORDER[letter] for letter in word])


@lru_cache(maxsize=_ORDERING_CACHE_SIZE)
def _ordering(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Normal-ordering counts of a letter-order pattern (0 for X, 1 for P):
    entry m is the number n_m of ways to make m contractions, so a word of
    that pattern with a X's and b P's equals the sum over m of
    n_m (-i*hbar)^m X^(a-m) P^(b-m); entry 0 is always 1.

    Grown from the counts of the pattern's prefix by one left-to-right step:
    a P on the right changes no count, and an X on the right is moved past the
    P^j of entry m (j the P's read so far, less m) by
    P^j X = X P^j - j i*hbar P^(j-1), which adds j n_m to entry m + 1. A
    pattern longer than _ORDERING_PREFIX grows letter by letter from its
    memoized prefix of that length, so the recursion stays shallow.
    """
    if not orders:
        return (1,)
    cut = len(orders) - 1 if len(orders) <= _ORDERING_PREFIX else _ORDERING_PREFIX
    counts, n_b = _ordering(orders[:cut]), sum(orders[:cut])
    for order in orders[cut:]:
        if order:
            n_b += 1
            continue
        step = list(counts) + [0]
        for m, n in enumerate(counts):
            step[m + 1] += (n_b - m) * n
        counts = tuple(step if step[-1] else step[:-1])
    return counts


class OperatorPoly:
    """Linear combination of operator words with exact hbar-polynomial
    coefficients. Immutable; the normal form is computed once and kept (a
    normal form is its own)."""

    __slots__ = ("_terms", "_normal")

    def __init__(self, terms: dict[tuple[str, ...], HbarPoly] | None = None):
        clean: dict[tuple[str, ...], HbarPoly] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            _check_letters(word)
            coeff = HbarPoly.of(coeff)
            if not coeff.is_zero():
                clean[word] = coeff
        self._terms = clean
        self._normal = None

    @classmethod
    def _of_terms(cls, terms: dict[tuple[str, ...], HbarPoly]) -> "OperatorPoly":
        """Wrap a zero-free table of X, P words without checking them again."""
        out = object.__new__(cls)
        out._terms = terms
        out._normal = None
        return out

    @classmethod
    def monomial(cls, word: tuple[str, ...], coeff=1) -> "OperatorPoly":
        return cls({tuple(word): HbarPoly.of(coeff)})

    def terms(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self.normal_form()._terms

    def total_degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            _accumulate(out, word, coeff)
        return OperatorPoly._of_terms(out)

    def __neg__(self) -> "OperatorPoly":
        return OperatorPoly._of_terms({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + (-other)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        out: dict[tuple[str, ...], HbarPoly] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _accumulate(out, w1 + w2, c1 * c2)
        return OperatorPoly._of_terms(out)

    def scale(self, value) -> "OperatorPoly":
        c = HbarPoly.of(value)
        return OperatorPoly({w: v * c for w, v in self._terms.items()})

    def normal_form(self) -> "OperatorPoly":
        """Rewrite every word with all X's before all P's, using
        PX = XP - i*hbar.

        A word with a X's and b P's becomes the sum over m of n_m (-i*hbar)^m
        X^(a-m) P^(b-m), with the integer counts n_m of its ways to make m
        contractions read from _ordering (memoized per letter-order pattern).
        Each entry takes the word's coefficient times n_m (-i*hbar)^m once
        (Blasiak et al., Am. J. Phys. 75 (2007), arXiv:0704.3116). The result
        is kept, so later calls, and __eq__, __hash__ and is_zero, reuse it.
        """
        if self._normal is not None:
            return self._normal
        out: dict[tuple[str, ...], HbarPoly] = {}
        for word, coeff in self._terms.items():
            orders = _pattern(word)
            n_b = sum(orders)
            n_a = len(word) - n_b
            for m, n in enumerate(_ordering(orders)):
                _accumulate(out, ("X",) * (n_a - m) + ("P",) * (n_b - m),
                            coeff if not m else coeff.times_neg_i_hbar_power(n, m))
        nf = OperatorPoly._of_terms(out)
        nf._normal = self._normal = nf
        return nf

    def adjoint(self) -> "OperatorPoly":
        return OperatorPoly(
            {tuple(reversed(w)): c.conjugate() for w, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, OperatorPoly):
            return NotImplemented
        return self.normal_form()._terms == other.normal_form()._terms

    def __hash__(self):
        return hash(frozenset(self.normal_form()._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for word in sorted(self._terms, key=lambda w: (len(w), w)):
            c = self._terms[word]
            name = "".join(word) if word else "1"
            parts.append(f"({c}) {name}")
        return " + ".join(parts)

    __repr__ = __str__


def commutator_poly(a: OperatorPoly, b: OperatorPoly) -> OperatorPoly:
    """[a, b] = a b - b a in normal form, rewritten with PX = XP - i*hbar
    rather than assumed.

    For each pair of terms c1 w1 and c2 w2, the counts of w2 w1 are
    subtracted from those of w1 w2 (both from _ordering), so the
    contraction-free counts cancel as integers, and c1 c2 (-i*hbar)^m times
    each surviving difference n_m lands on X^(a-m) P^(b-m); no product
    polynomial is built. The result is its own normal form.
    """
    out: dict[tuple[str, ...], HbarPoly] = {}
    b_terms = [(_pattern(w2), c2) for w2, c2 in b._terms.items()]
    for w1, c1 in a._terms.items():
        o1 = _pattern(w1)
        for o2, c2 in b_terms:
            t12, t21 = _ordering(o1 + o2), _ordering(o2 + o1)
            if t12 == t21:
                continue
            n_b = sum(o1) + sum(o2)
            n_a = len(o1) + len(o2) - n_b
            c = c1 * c2
            for m, (n12, n21) in enumerate(zip_longest(t12, t21, fillvalue=0)):
                if n12 != n21:
                    _accumulate(out, ("X",) * (n_a - m) + ("P",) * (n_b - m),
                                c.times_neg_i_hbar_power(n12 - n21, m))
    nf = OperatorPoly._of_terms(out)
    nf._normal = nf
    return nf


def weyl_symmetrize(word: tuple[str, ...]) -> OperatorPoly:
    """Symmetric (Weyl) ordering of a word: the uniform average of the
    distinct arrangements of its letters, each weighted by one over their
    count. Equals the average over all len(word)! permutations because equal
    arrangements collapse with equal multiplicity."""
    word = tuple(word)
    _check_letters(word)
    if len(word) > SYMMETRIZE_DEGREE_BOUND:
        raise ConfigurationError(f"symmetrizing a degree {len(word)} word exceeds "
                                 f"the bound {SYMMETRIZE_DEGREE_BOUND}")
    if not word:
        return OperatorPoly.monomial(())
    arrangements = list(dict.fromkeys(permutations(word)))
    weight = HbarPoly.term(GaussianRational(Fraction(1, len(arrangements))))
    return OperatorPoly({arr: weight for arr in arrangements})


def taylor_operator(table: dict[tuple[int, int], object]) -> OperatorPoly:
    """Operator image of a phase-space polynomial given by its coefficient
    table: sum over (n, m) of table[(n, m)] * S{X^n P^m}.

    Table values are the coefficients of r^n p^m in the function itself
    (any factorial normalization is already folded in by the caller). An
    entry above SYMMETRIZE_DEGREE_BOUND fails in weyl_symmetrize.
    """
    total = OperatorPoly()
    for key, value in table.items():
        try:
            n, m = key
        except (TypeError, ValueError):
            raise ConfigurationError(f"table key {key!r} is not an (n, m) pair") from None
        if not (isinstance(n, int) and isinstance(m, int)) or n < 0 or m < 0:
            raise ConfigurationError(f"table key {key!r} must hold nonnegative ints")
        word = ("X",) * n + ("P",) * m
        total = total + weyl_symmetrize(word).scale(HbarPoly.of(value))
    return total


def random_operator_poly(rng: np.random.Generator, max_degree: int = 4,
                         n_terms: int = 4) -> OperatorPoly:
    """Small random polynomial with rational coefficients, for seeded
    cross-checks against matrix realizations.

    One generator call draws every term's length, real numerator and
    denominator, doubled imaginary part and hbar power, and one more draws
    all the letters; each coefficient is num/den + (half_im/2) i."""
    fields = rng.integers([0, -6, 1, -3, 0], [max_degree + 1, 7, 5, 4, 2], size=(n_terms, 5))
    picks = rng.integers(0, 2, size=int(fields[:, 0].sum())).tolist()
    terms: dict[tuple[str, ...], HbarPoly] = {}
    end = 0
    for length, num, den, half_im, hbar_pow in fields.tolist():
        word = tuple(["XP"[i] for i in picks[end:end + length]])
        end += length
        d = den * 2 // gcd(den, 2)  # the lcm of den and 2
        value = GaussianRational._reduced(num * (d // den), half_im * (d // 2), d)
        _accumulate(terms, word, HbarPoly.term(value, hbar_pow))
    return OperatorPoly._of_terms(terms)
