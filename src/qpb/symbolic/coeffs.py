"""Exact scalars for the operator calculus.

GaussianRational is a complex number with rational real and imaginary parts.
HbarPoly is a polynomial in the reduced Planck constant with GaussianRational
coefficients, so every commutator identity can be checked without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussianRational:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re=0, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational.of(1)


class HbarPoly:
    """Polynomial in hbar, keyed by degree; zero coefficients are never stored."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, GaussianRational] | None = None):
        clean: dict[int, GaussianRational] = {}
        for deg, c in (coeffs or {}).items():
            if not isinstance(deg, int) or deg < 0:
                raise ValueError(f"hbar degree must be a nonnegative int, got {deg!r}")
            if not isinstance(c, GaussianRational):
                raise TypeError(f"coefficient must be GaussianRational, got {type(c).__name__}")
            if not c.is_zero():
                clean[deg] = c
        self._coeffs = clean

    @classmethod
    def term(cls, coeff: GaussianRational, degree: int = 0) -> "HbarPoly":
        return cls({degree: coeff})

    @classmethod
    def of(cls, value) -> "HbarPoly":
        """Coerce an int, Fraction, complex (float parts taken exactly as
        dyadic rationals), GaussianRational, or HbarPoly into an HbarPoly."""
        if isinstance(value, HbarPoly):
            return value
        if isinstance(value, GaussianRational):
            return cls.term(value)
        if isinstance(value, (int, Fraction)):
            return cls.term(GaussianRational.of(value))
        if isinstance(value, complex):
            re, im = Fraction(value.real), Fraction(value.imag)
            return cls.term(GaussianRational(re, im))
        raise TypeError(f"cannot interpret {type(value).__name__} as an hbar polynomial")

    def items(self):
        return self._coeffs.items()

    def coefficient(self, degree: int) -> GaussianRational:
        return self._coeffs.get(degree, GR_ZERO)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "HbarPoly") -> "HbarPoly":
        out = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            s = out.get(deg, GR_ZERO) + c
            if s.is_zero():
                out.pop(deg, None)
            else:
                out[deg] = s
        res = HbarPoly.__new__(HbarPoly)
        res._coeffs = out
        return res

    def __neg__(self) -> "HbarPoly":
        res = HbarPoly.__new__(HbarPoly)
        res._coeffs = {deg: -c for deg, c in self._coeffs.items()}
        return res

    def __sub__(self, other: "HbarPoly") -> "HbarPoly":
        return self + (-other)

    def __mul__(self, other: "HbarPoly") -> "HbarPoly":
        out: dict[int, GaussianRational] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                d = d1 + d2
                s = out.get(d, GR_ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(d, None)
                else:
                    out[d] = s
        res = HbarPoly.__new__(HbarPoly)
        res._coeffs = out
        return res

    def conjugate(self) -> "HbarPoly":
        res = HbarPoly.__new__(HbarPoly)
        res._coeffs = {deg: c.conjugate() for deg, c in self._coeffs.items()}
        return res

    def evaluate(self, hbar_value: float) -> complex:
        return sum((c.to_complex() * hbar_value**deg for deg, c in self._coeffs.items()),
                   complex(0.0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HbarPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for deg in sorted(self._coeffs):
            c = self._coeffs[deg]
            if deg == 0:
                parts.append(str(c))
            elif deg == 1:
                parts.append(f"{c}*hbar")
            else:
                parts.append(f"{c}*hbar^{deg}")
        return " + ".join(parts)

    __repr__ = __str__


HP_ONE = HbarPoly.term(GR_ONE)
