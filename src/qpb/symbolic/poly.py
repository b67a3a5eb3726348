"""Noncommutative polynomials in one canonical operator pair.

Words are tuples over one register, either ("X", "P") or ("H", "T"), with the
single relation BA = AB - i*hbar for the out-of-order adjacent pair (the
commutator of the ordered pair is +i*hbar). Coefficients are HbarPoly, so all
identities are exact. Products are kept as written; normal ordering happens
only when a normal form is requested, which keeps identities about reordering
falsifiable instead of true by construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, zip_longest
from math import gcd

import numpy as np

from ..errors import ConfigurationError, IncompatibleOperandsError, ResourceBoundError
from .coeffs import GaussianRational, HbarPoly, HP_ONE

_REGISTER_OF = {"X": "XP", "P": "XP", "H": "HT", "T": "HT"}
_ORDER = {"X": 0, "P": 1, "H": 0, "T": 1}

SYMMETRIZE_DEGREE_BOUND = 10
# holds all 511 patterns of up to 8 letters: weyl's products of two degree-4
# draws and their prefixes
_ORDERING_CACHE_SIZE = 512
_ORDERING_PREFIX = 16


def _register_of_word(word: tuple[str, ...]) -> str | None:
    reg = None
    for letter in word:
        r = _REGISTER_OF.get(letter)
        if r is None:
            raise ConfigurationError(f"unknown operator letter {letter!r}")
        if reg is None:
            reg = r
        elif reg != r:
            raise IncompatibleOperandsError(
                f"word {''.join(word)} mixes the XP and HT registers")
    return reg


def _accumulate(table: dict, key, value: HbarPoly) -> None:
    """Add value into table[key], dropping the entry when the sum is zero."""
    s = table.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        table.pop(key, None)
    else:
        table[key] = s


def _pattern(word: tuple[str, ...]) -> tuple[int, ...]:
    """Letter-order pattern of a word: 0 for A, 1 for B."""
    return tuple([_ORDER[letter] for letter in word])


@lru_cache(maxsize=_ORDERING_CACHE_SIZE)
def _ordering(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Normal-ordering counts of a letter-order pattern (0 for A, 1 for B):
    entry m is the number n_m of ways to make m contractions, so a word of
    that pattern with a A's and b B's equals the sum over m of
    n_m (-i*hbar)^m A^(a-m) B^(b-m); entry 0 is always 1.

    Grown from the counts of the pattern's prefix by one left-to-right step:
    a B on the right changes no count, and an A on the right is moved past the
    B^j of entry m (j the B's read so far, less m) by
    B^j A = A B^j - j i*hbar B^(j-1), which adds j n_m to entry m + 1. A
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
    coefficients, confined to one register. Immutable; the normal form is
    computed once and kept (a normal form is its own)."""

    __slots__ = ("_terms", "register", "_normal")

    def __init__(self, terms: dict[tuple[str, ...], HbarPoly] | None = None):
        clean: dict[tuple[str, ...], HbarPoly] = {}
        reg = None
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            r = _register_of_word(word)
            if r is not None:
                if reg is None:
                    reg = r
                elif reg != r:
                    raise IncompatibleOperandsError(
                        "polynomial mixes the XP and HT registers")
            coeff = HbarPoly.of(coeff)
            if not coeff.is_zero():
                clean[word] = coeff
        self._terms = clean
        self.register = reg
        self._normal = None

    @classmethod
    def _of_terms(cls, terms: dict[tuple[str, ...], HbarPoly], register: str | None) -> "OperatorPoly":
        """Wrap a zero-free table of words from `register` without checking
        them again; like __init__, keep the register only while a nonempty
        word remains."""
        out = object.__new__(cls)
        out._terms = terms
        out.register = register if any(terms) else None
        out._normal = None
        return out

    @classmethod
    def zero(cls) -> "OperatorPoly":
        return cls()

    @classmethod
    def one(cls) -> "OperatorPoly":
        return cls({(): HP_ONE})

    @classmethod
    def scalar(cls, value) -> "OperatorPoly":
        return cls({(): HbarPoly.of(value)})

    @classmethod
    def letter(cls, name: str) -> "OperatorPoly":
        return cls({(name,): HP_ONE})

    @classmethod
    def monomial(cls, word: tuple[str, ...], coeff=1) -> "OperatorPoly":
        return cls({tuple(word): HbarPoly.of(coeff)})

    def terms(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self.normal_form()._terms

    def total_degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

    def _check_register(self, other: "OperatorPoly") -> None:
        if self.register and other.register and self.register != other.register:
            raise IncompatibleOperandsError(
                f"cannot combine {self.register} and {other.register} register polynomials")

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        self._check_register(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            _accumulate(out, word, coeff)
        return OperatorPoly._of_terms(out, self.register or other.register)

    def __neg__(self) -> "OperatorPoly":
        return OperatorPoly._of_terms({w: -c for w, c in self._terms.items()}, self.register)

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + (-other)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        self._check_register(other)
        out: dict[tuple[str, ...], HbarPoly] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _accumulate(out, w1 + w2, c1 * c2)
        return OperatorPoly._of_terms(out, self.register or other.register)

    def scale(self, value) -> "OperatorPoly":
        c = HbarPoly.of(value)
        return OperatorPoly({w: v * c for w, v in self._terms.items()})

    def normal_form(self) -> "OperatorPoly":
        """Rewrite every word with all first-register letters A before all
        second-register letters B, using BA = AB - i*hbar.

        A word with a A's and b B's becomes the sum over m of n_m (-i*hbar)^m
        A^(a-m) B^(b-m), with the integer counts n_m of its ways to make m
        contractions read from _ordering (memoized per letter-order pattern).
        Each entry takes the word's coefficient times n_m (-i*hbar)^m once
        (Blasiak et al., Am. J. Phys. 75 (2007), arXiv:0704.3116). The result
        is kept, so later calls, and __eq__, __hash__ and is_zero, reuse it.
        """
        if self._normal is not None:
            return self._normal
        out: dict[tuple[str, ...], HbarPoly] = {}
        first, second = self.register or "XP"  # no register: only the empty word
        for word, coeff in self._terms.items():
            orders = _pattern(word)
            n_b = sum(orders)
            n_a = len(word) - n_b
            for m, n in enumerate(_ordering(orders)):
                _accumulate(out, (first,) * (n_a - m) + (second,) * (n_b - m),
                            coeff if not m else coeff.times_neg_i_hbar_power(n, m))
        nf = OperatorPoly._of_terms(out, self.register)
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
    """[a, b] = a b - b a in normal form, rewritten with BA = AB - i*hbar
    rather than assumed.

    For each pair of terms c1 w1 and c2 w2, the counts of w2 w1 are
    subtracted from those of w1 w2 (both from _ordering), so the
    contraction-free counts cancel as integers, and c1 c2 (-i*hbar)^m times
    each surviving difference n_m lands on A^(a-m) B^(b-m); no product
    polynomial is built. The result is its own normal form.
    """
    a._check_register(b)
    register = a.register or b.register
    first, second = register or "XP"
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
                    _accumulate(out, (first,) * (n_a - m) + (second,) * (n_b - m),
                                c.times_neg_i_hbar_power(n12 - n21, m))
    nf = OperatorPoly._of_terms(out, register)
    nf._normal = nf
    return nf


def weyl_symmetrize(word: tuple[str, ...], bound: int = SYMMETRIZE_DEGREE_BOUND) -> OperatorPoly:
    """Symmetric (Weyl) ordering of a word: the uniform average of the
    distinct arrangements of its letters, each weighted by one over their
    count. Equals the average over all len(word)! permutations because equal
    arrangements collapse with equal multiplicity."""
    word = tuple(word)
    _register_of_word(word)
    if len(word) > bound:
        raise ResourceBoundError(
            f"symmetrizing a degree {len(word)} word exceeds the bound {bound}")
    if not word:
        return OperatorPoly.one()
    arrangements = list(dict.fromkeys(permutations(word)))
    weight = HbarPoly.term(GaussianRational(Fraction(1, len(arrangements))))
    return OperatorPoly({arr: weight for arr in arrangements})


def taylor_operator(table: dict[tuple[int, int], object],
                    order_cap: int = SYMMETRIZE_DEGREE_BOUND) -> OperatorPoly:
    """Operator image of a phase-space polynomial given by its coefficient
    table: sum over (n, m) of table[(n, m)] * S{X^n P^m}.

    Table values are the coefficients of r^n p^m in the function itself
    (any factorial normalization is already folded in by the caller).
    """
    total = OperatorPoly.zero()
    for key, value in table.items():
        try:
            n, m = key
        except (TypeError, ValueError):
            raise ConfigurationError(f"table key {key!r} is not an (n, m) pair") from None
        if not (isinstance(n, int) and isinstance(m, int)) or n < 0 or m < 0:
            raise ConfigurationError(f"table key {key!r} must hold nonnegative ints")
        if n + m > order_cap:
            raise ConfigurationError(
                f"table entry {key!r} has degree {n + m}, above the cap {order_cap}")
        word = ("X",) * n + ("P",) * m
        total = total + weyl_symmetrize(word, bound=order_cap).scale(HbarPoly.of(value))
    return total


def random_operator_poly(rng: np.random.Generator, max_degree: int = 4,
                         n_terms: int = 4, register: str = "XP") -> OperatorPoly:
    """Small random polynomial with rational coefficients, for seeded
    cross-checks against matrix realizations.

    One generator call draws every term's length, real numerator and
    denominator, doubled imaginary part and hbar power, and one more draws
    all the letters; each coefficient is num/den + (half_im/2) i."""
    if register not in ("XP", "HT"):
        raise ConfigurationError("register must be 'XP' or 'HT'")
    letters = tuple(register)
    fields = rng.integers([0, -6, 1, -3, 0], [max_degree + 1, 7, 5, 4, 2], size=(n_terms, 5))
    picks = rng.integers(0, 2, size=int(fields[:, 0].sum())).tolist()
    terms: dict[tuple[str, ...], HbarPoly] = {}
    end = 0
    for length, num, den, half_im, hbar_pow in fields.tolist():
        word = tuple([letters[i] for i in picks[end:end + length]])
        end += length
        d = den * 2 // gcd(den, 2)  # the lcm of den and 2
        value = GaussianRational._reduced(num * (d // den), half_im * (d // 2), d)
        _accumulate(terms, word, HbarPoly.term(value, hbar_pow))
    return OperatorPoly._of_terms(terms, register)
