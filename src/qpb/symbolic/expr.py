"""Text form for operator expressions.

Grammar (whitespace insensitive, no unary minus, multiplication of factors by
juxtaposition only):

    expr   := term (('+' | '-') term)*
    term   := factor factor*
    factor := atom ('^' UINT)?
    atom   := 'X' | 'P' | scalar
            | 'S{' expr '}' | '[' expr ',' expr ']' | '(' expr ')'
    scalar := rational? ('*')? ('i')? ('*')? ('hbar' ('^' UINT)?)?
              with at least one part present; rational := UINT ('/' UINT)?

'*' appears only inside scalars, between their parts. The ASCII hyphen and
U+2212 are both accepted as minus.

print_expression produces the canonical spelling (stars inside scalars,
single-space juxtaposition, minimal parentheses) and parsing it back
reproduces the tree exactly.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ConfigurationError, ExprSyntaxError
from ..record import Record
from .coeffs import GaussianRational, HbarPoly
from .poly import OperatorPoly, commutator_poly, weyl_symmetrize

_LETTERS = ("X", "P")


class Node(Record):
    """The base of the seven expression node classes below."""

    __slots__ = ()


class Sym(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in _LETTERS:
            raise ConfigurationError(f"unknown symbol {name!r}")
        self._set(name=name)


class Scalar(Node):
    __slots__ = ("frac", "imag", "hbar_pow")

    def __init__(self, frac: Fraction = Fraction(1), imag: bool = False, hbar_pow: int = 0):
        if frac < 0:
            raise ConfigurationError("scalar literals are nonnegative; negation lives in sums")
        if hbar_pow < 0:
            raise ConfigurationError("hbar exponent must be nonnegative")
        self._set(frac=frac, imag=imag, hbar_pow=hbar_pow)


class Sum(Node):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, Node], ...]):
        if len(terms) < 2:
            raise ConfigurationError("a sum needs at least two terms")
        if terms[0][0] != 1:
            raise ConfigurationError("the first term of a sum is unsigned")
        if any(sign not in (1, -1) for sign, _ in terms):
            raise ConfigurationError("term signs must be +1 or -1")
        self._set(terms=terms)


class Prod(Node):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Node, ...]):
        if len(factors) < 2:
            raise ConfigurationError("a product needs at least two factors")
        self._set(factors=factors)


class Pow(Node):
    __slots__ = ("base", "exp")

    def __init__(self, base: Node, exp: int):
        if exp < 0:
            raise ConfigurationError("exponents are nonnegative integers")
        self._set(base=base, exp=exp)


class Comm(Node):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Node, rhs: Node):
        self._set(lhs=lhs, rhs=rhs)


class WeylS(Node):
    __slots__ = ("inner",)

    def __init__(self, inner: Node):
        self._set(inner=inner)


_PUNCT = set("+-*/^{}[](),")
_WORDS = {"X", "P", "i", "hbar", "S"}
_ATOM_EXPECT = frozenset({"X", "P", "i", "hbar", "S{", "integer", "(", "["})


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    text = text.replace("−", "-")
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in _WORDS:
                raise ExprSyntaxError(i, _ATOM_EXPECT, word)
            tokens.append(("word", word, i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(("punct", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(i, _ATOM_EXPECT, ch)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: set[str]):
        kind, value, pos = self.peek()
        raise ExprSyntaxError(pos, frozenset(expected), value if kind != "end" else "end of input")

    def at_punct(self, ch: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "punct" and value == ch

    def at_word(self, word: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "word" and value == word

    def expect_punct(self, ch: str):
        if not self.at_punct(ch):
            self.fail({ch})
        self.advance()

    def expect_uint(self) -> int:
        kind, value, _ = self.peek()
        if kind != "int":
            self.fail({"integer"})
        self.advance()
        return int(value)

    def starts_factor(self) -> bool:
        kind, value, _ = self.peek()
        if kind == "int":
            return True
        if kind == "word":
            return True
        return kind == "punct" and value in "(["

    def parse_expr(self) -> Node:
        terms: list[tuple[int, Node]] = [(1, self.parse_term())]
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.advance()[1] == "+" else -1
            terms.append((sign, self.parse_term()))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def parse_term(self) -> Node:
        factors = [self.parse_factor()]
        while self.starts_factor():
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def parse_factor(self) -> Node:
        atom = self.parse_atom()
        if self.at_punct("^"):
            self.advance()
            return Pow(atom, self.expect_uint())
        return atom

    def parse_atom(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "word" and value in _LETTERS:
            self.advance()
            return Sym(value)
        if kind == "int" or (kind == "word" and value in ("i", "hbar")):
            return self.parse_scalar()
        if kind == "word" and value == "S":
            self.advance()
            self.expect_punct("{")
            inner = self.parse_expr()
            self.expect_punct("}")
            return WeylS(inner)
        if kind == "punct" and value == "[":
            self.advance()
            lhs = self.parse_expr()
            self.expect_punct(",")
            rhs = self.parse_expr()
            self.expect_punct("]")
            return Comm(lhs, rhs)
        if kind == "punct" and value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        self.fail(set(_ATOM_EXPECT))

    def _parse_hbar_tail(self) -> int:
        # caller sits on the 'hbar' word
        self.advance()
        if self.at_punct("^"):
            self.advance()
            return self.expect_uint()
        return 1

    def parse_scalar(self) -> Scalar:
        frac: Fraction | None = None
        imag = False
        hbar_pow = 0
        kind, value, _ = self.peek()
        if kind == "int":
            num = self.expect_uint()
            den = 1
            if self.at_punct("/"):
                self.advance()
                _, dval, dpos = self.peek()
                den = self.expect_uint()
                if den == 0:
                    raise ExprSyntaxError(dpos, frozenset({"nonzero integer"}), dval)
            frac = Fraction(num, den)
            if self.at_punct("*"):
                self.advance()
                if self.at_word("i"):
                    self.advance()
                    imag = True
                elif self.at_word("hbar"):
                    hbar_pow = self._parse_hbar_tail()
                else:
                    self.fail({"i", "hbar"})
            elif self.at_word("i"):
                self.advance()
                imag = True
            elif self.at_word("hbar"):
                hbar_pow = self._parse_hbar_tail()
        elif self.at_word("i"):
            self.advance()
            imag = True
        else:
            hbar_pow = self._parse_hbar_tail()
        if imag and hbar_pow == 0:
            if self.at_punct("*"):
                self.advance()
                if not self.at_word("hbar"):
                    self.fail({"hbar"})
                hbar_pow = self._parse_hbar_tail()
            elif self.at_word("hbar"):
                hbar_pow = self._parse_hbar_tail()
        return Scalar(frac if frac is not None else Fraction(1), imag, hbar_pow)


def parse_expression(text: str) -> Node:
    parser = _Parser(text)
    node = parser.parse_expr()
    if parser.peek()[0] != "end":
        parser.fail({"+", "-", "end of input"})
    return node


def _prec(node: Node) -> int:
    if isinstance(node, Sum):
        return 0
    if isinstance(node, Prod):
        return 1
    if isinstance(node, Pow):
        return 2
    return 3


def _print_scalar(s: Scalar) -> str:
    parts = []
    if s.frac != 1 or (not s.imag and s.hbar_pow == 0):
        parts.append(str(s.frac))
    if s.imag:
        parts.append("i")
    if s.hbar_pow == 1:
        parts.append("hbar")
    elif s.hbar_pow > 1:
        parts.append(f"hbar^{s.hbar_pow}")
    return "*".join(parts)


def _print(node: Node, min_prec: int) -> str:
    if isinstance(node, Sym):
        body = node.name
    elif isinstance(node, Scalar):
        body = _print_scalar(node)
    elif isinstance(node, Sum):
        chunks = [_print(node.terms[0][1], 1)]
        for sign, term in node.terms[1:]:
            chunks.append("+" if sign == 1 else "-")
            chunks.append(_print(term, 1))
        body = " ".join(chunks)
    elif isinstance(node, Prod):
        body = " ".join(_print(f, 2) for f in node.factors)
    elif isinstance(node, Pow):
        # a bare scalar base carrying an hbar exponent would fuse with the
        # outer exponent when reparsed, so it is parenthesized like compounds
        base_needs_parens = _prec(node.base) < 3 or (
            isinstance(node.base, Scalar) and node.base.hbar_pow > 0)
        base = f"({_print(node.base, 0)})" if base_needs_parens else _print(node.base, 3)
        body = f"{base}^{node.exp}"
        return body
    elif isinstance(node, Comm):
        return f"[{_print(node.lhs, 0)}, {_print(node.rhs, 0)}]"
    elif isinstance(node, WeylS):
        return f"S{{{_print(node.inner, 0)}}}"
    else:
        raise ConfigurationError(f"not an expression node: {node!r}")
    if _prec(node) < min_prec:
        return f"({body})"
    return body


def print_expression(node: Node) -> str:
    return _print(node, 0)


def to_poly(node: Node) -> OperatorPoly:
    """Evaluate an expression tree into an operator polynomial."""
    if isinstance(node, Sym):
        return OperatorPoly.monomial((node.name,))
    if isinstance(node, Scalar):
        gr = GaussianRational(Fraction(0), node.frac) if node.imag \
            else GaussianRational(node.frac, Fraction(0))
        return OperatorPoly.monomial((), HbarPoly.term(gr, node.hbar_pow))
    if isinstance(node, Sum):
        total = OperatorPoly()
        for sign, term in node.terms:
            p = to_poly(term)
            total = total + (p if sign == 1 else -p)
        return total
    if isinstance(node, Prod):
        total = OperatorPoly.monomial(())
        for f in node.factors:
            total = total * to_poly(f)
        return total
    if isinstance(node, Pow):
        base = to_poly(node.base)
        total = OperatorPoly.monomial(())
        for _ in range(node.exp):
            total = total * base
        return total
    if isinstance(node, Comm):
        return commutator_poly(to_poly(node.lhs), to_poly(node.rhs))
    if isinstance(node, WeylS):
        inner = to_poly(node.inner)
        total = OperatorPoly()
        for word, coeff in inner.terms():
            total = total + weyl_symmetrize(word).scale(coeff)
        return total
    raise ConfigurationError(f"not an expression node: {node!r}")


def poly_of(text: str) -> OperatorPoly:
    return to_poly(parse_expression(text))
