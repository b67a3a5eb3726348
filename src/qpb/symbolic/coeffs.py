"""Exact scalars for the operator calculus.

GaussianRational is a complex number with rational real and imaginary parts,
stored as Python ints (a + b i) / d in lowest terms, so each sum or product
costs one three-argument gcd and equal values have equal fields. HbarPoly is a
polynomial in the reduced Planck constant with GaussianRational coefficients,
so every commutator identity can be checked without rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussianRational:
    """(a + b i) / d with ints a, b and d > 0, gcd(a, b, d) == 1."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # over the lcm of the denominators the three fields share no factor
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def _reduced(cls, a: int, b: int, d: int) -> "GaussianRational":
        """(a + b i) / d for d > 0, divided through by gcd(a, b, d)."""
        g = gcd(a, b, d)
        out = object.__new__(cls)
        if g == 1:
            out._a, out._b, out._d = a, b, d
        else:
            out._a, out._b, out._d = a // g, b // g, d // g
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d1, d2 = self._d, other._d
        if d1 == d2:
            return GaussianRational._reduced(self._a + other._a, self._b + other._b, d1)
        return GaussianRational._reduced(self._a * d2 + other._a * d1,
                                         self._b * d2 + other._b * d1, d1 * d2)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-other)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return GaussianRational._reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                                         self._d * other._d)

    def times_neg_i_power(self, n: int, m: int) -> "GaussianRational":
        """self * n * (-i)^m for an int n != 0: m quarter turns clockwise and
        one integer scale, the weight of n ways to make m contractions."""
        a, b = self._a, self._b
        a, b = ((a, b), (b, -a), (-a, -b), (-b, a))[m % 4]
        # gcd(a, b, d) == 1, so gcd(n a, n b, d) == gcd(n, d)
        g = gcd(n, self._d)
        out = object.__new__(GaussianRational)
        out._a, out._b, out._d = a * (n // g), b * (n // g), self._d // g
        return out

    def __neg__(self) -> "GaussianRational":
        out = object.__new__(GaussianRational)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        return out

    def conjugate(self) -> "GaussianRational":
        out = object.__new__(GaussianRational)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def to_complex(self) -> complex:
        # int true division is correctly rounded, like float(Fraction)
        return complex(self._a / self._d, self._b / self._d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


GR_ZERO = GaussianRational()


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
            return cls.term(GaussianRational(value))
        if isinstance(value, complex):
            re, im = Fraction(value.real), Fraction(value.imag)
            return cls.term(GaussianRational(re, im))
        raise TypeError(f"cannot interpret {type(value).__name__} as an hbar polynomial")

    def items(self):
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "HbarPoly") -> "HbarPoly":
        out = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            prev = out.get(deg)
            if prev is None:
                out[deg] = c
                continue
            s = prev + c
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

    def times_neg_i_hbar_power(self, n: int, m: int) -> "HbarPoly":
        """self * n * (-i hbar)^m for an int n != 0."""
        res = HbarPoly.__new__(HbarPoly)
        res._coeffs = {deg + m: c.times_neg_i_power(n, m) for deg, c in self._coeffs.items()}
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

