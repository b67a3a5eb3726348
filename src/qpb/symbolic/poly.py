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
from itertools import permutations

import numpy as np

from ..errors import ConfigurationError, IncompatibleOperandsError, ResourceBoundError
from .coeffs import GaussianRational, HbarPoly, HP_ONE

_REGISTER_OF = {"X": "XP", "P": "XP", "H": "HT", "T": "HT"}
_ORDER = {"X": 0, "P": 1, "H": 0, "T": 1}

SYMMETRIZE_DEGREE_BOUND = 10


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

        Each word is read left to right into a table (i, j) -> n of integer
        counts of A^i B^j: a B on the right raises j, and an A on the right is
        moved past B^j by B^j A = A B^j - j i*hbar B^(j-1), so it raises i and
        adds j n to (i, j-1). O(d^2) int work for a word of length d; each
        entry then takes the word's coefficient times n (-i*hbar)^m once, with
        m = (d - i - j) / 2 contractions (Blasiak et al., Am. J. Phys. 75
        (2007), arXiv:0704.3116). The result is kept, so later calls, and
        __eq__, __hash__ and is_zero, reuse it.
        """
        if self._normal is not None:
            return self._normal
        out: dict[tuple[str, ...], HbarPoly] = {}
        first, second = self.register or "XP"  # no register: only the empty word
        for word, coeff in self._terms.items():
            table = {(0, 0): 1}
            for letter in word:
                step: dict[tuple[int, int], int] = {}
                if _ORDER[letter]:
                    for (i, j), n in table.items():
                        step[i, j + 1] = n
                else:
                    for (i, j), n in table.items():
                        step[i + 1, j] = step.get((i + 1, j), 0) + n
                        if j:
                            step[i, j - 1] = step.get((i, j - 1), 0) + j * n
                table = step
            for (i, j), n in table.items():
                m = (len(word) - i - j) // 2
                _accumulate(out, (first,) * i + (second,) * j,
                            coeff if n == 1 and not m else coeff.times_neg_i_hbar_power(n, m))
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
    """[a, b] = a b - b a, normal ordered after the full product so the
    relation BA = AB - i*hbar is exercised rather than assumed."""
    return (a * b - b * a).normal_form()


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
    cross-checks against matrix realizations."""
    if register not in ("XP", "HT"):
        raise ConfigurationError("register must be 'XP' or 'HT'")
    letters = tuple(register)
    terms: dict[tuple[str, ...], HbarPoly] = {}
    for _ in range(n_terms):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(letters[int(i)] for i in rng.integers(0, 2, size=length))
        num = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 5))
        re = Fraction(num, den)
        im = Fraction(int(rng.integers(-3, 4)), 2)
        hbar_pow = int(rng.integers(0, 2))
        coeff = HbarPoly.term(GaussianRational(re, im), hbar_pow)
        prev = terms.get(word)
        terms[word] = coeff if prev is None else prev + coeff
    return OperatorPoly(terms)
