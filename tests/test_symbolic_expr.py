from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpb.errors import ExprSyntaxError
from qpb.symbolic import (
    Comm,
    OperatorPoly,
    Pow,
    Prod,
    Scalar,
    Sum,
    Sym,
    WeylS,
    commutator_poly,
    parse_expression,
    poly_of,
    print_expression,
    weyl_symmetrize,
)

# Canonical spellings: printing the parse of each string must return it
# byte for byte, and reparsing the print must rebuild the identical tree.
CANONICAL = [
    "X",
    "hbar",
    "3/4",
    "2*i",
    "5*hbar^2",
    "3*i*hbar",
    "X P - P X",
    "1/2 X P + 1/2 P X",
    "S{X^2 P}",
    "[X, P] - i*hbar",
    "3*i*hbar^2 (X + P)^2",
    "S{X P} - 1/2 X P - 1/2 P X",
    "hbar^2 X^2",
    "(X + P)^3",
    "[X^2, P] (X - P)",
    "S{X P} S{X P}",
    "(i*hbar)^2",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_canonical_round_trip(text):
    ast = parse_expression(text)
    assert print_expression(ast) == text
    assert parse_expression(print_expression(ast)) == ast


def test_whitespace_and_unicode_minus_normalize():
    a = parse_expression("X P\t-  P X")
    b = parse_expression("X P − P X")
    assert a == b
    assert print_expression(a) == "X P - P X"


def test_scalar_spellings_collapse_to_one_node():
    for text in ("2i", "2*i", "2 * i"):
        assert parse_expression(text) == Scalar(frac=Fraction(2), imag=True)
    assert parse_expression("hbar^3") == Scalar(hbar_pow=3)
    assert parse_expression("1/2") == Scalar(frac=Fraction(1, 2))
    assert parse_expression("i hbar") == Scalar(imag=True, hbar_pow=1)


def test_power_of_scalar_with_hbar_keeps_parens():
    # without parentheses the exponent would fuse into the scalar on reparse
    node = Pow(base=Scalar(imag=True, hbar_pow=1), exp=2)
    assert print_expression(node) == "(i*hbar)^2"
    assert parse_expression("(i*hbar)^2") == node


def test_no_unary_minus():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("-X")
    assert err.value.position == 0


def test_error_carries_position_and_expected_set():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("X +")
    assert err.value.position == 3
    assert "X" in err.value.expected
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("X ^ P")
    assert err.value.found == "P"


def test_letters_other_than_x_and_p_rejected_at_parse_time():
    for letter in ("H", "T"):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(f"X P + {letter}")
        assert err.value.position == 6
        assert err.value.found == letter
        assert {"X", "P"} <= err.value.expected


def test_star_outside_scalar_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("X * P")
    with pytest.raises(ExprSyntaxError):
        parse_expression("2 * X")


def test_zero_denominator_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expression("1/0 X")


def test_comm_and_weyl_structures():
    node = parse_expression("[X, S{X P}]")
    assert node == Comm(lhs=Sym("X"), rhs=WeylS(inner=Prod(factors=(Sym("X"), Sym("P")))))


def test_poly_of_matches_algebra():
    assert poly_of("[X, P]") == poly_of("i*hbar")
    assert poly_of("S{X P}") == poly_of("1/2 X P + 1/2 P X")
    assert poly_of("S{X^2 P}") == poly_of("X^2 P - i*hbar X")
    assert poly_of("S{X P} - 1/2 X P - 1/2 P X").is_zero()
    x, p = OperatorPoly.monomial(("X",)), OperatorPoly.monomial(("P",))
    assert poly_of("[X^2, P]") == commutator_poly(x * x, p)
    assert poly_of("(X + P)^2") == (x + p) * (x + p)


def test_poly_of_weyl_distributes_over_sum():
    assert poly_of("S{X P + P X}") == weyl_symmetrize(("X", "P")).scale(2)


# strategy for ASTs whose printed form is canonical: products never place two
# scalars adjacently (printed "2 i" would reparse as one scalar token)
_scalars = st.builds(
    Scalar,
    frac=st.fractions(min_value=Fraction(0), max_value=Fraction(9), max_denominator=4),
    imag=st.booleans(),
    hbar_pow=st.integers(min_value=0, max_value=3),
).filter(lambda s: s.frac != 0 or s.imag or s.hbar_pow > 0)

_syms = st.sampled_from([Sym("X"), Sym("P")])


def _pows(children):
    return st.builds(
        Pow,
        base=children,
        exp=st.integers(min_value=0, max_value=4),
    )


def _prods(children):
    def assemble(first, rest):
        factors = [first]
        for node in rest:
            if isinstance(factors[-1], Scalar) and isinstance(node, Scalar):
                factors.append(Sym("X"))
            factors.append(node)
        return Prod(factors=tuple(factors))

    return st.builds(assemble, children, st.lists(children, min_size=1, max_size=3))


def _sums(children):
    return st.builds(
        lambda first, rest: Sum(terms=((1, first),) + tuple(rest)),
        children,
        st.lists(st.tuples(st.sampled_from([1, -1]), children), min_size=1, max_size=3),
    )


_atoms = st.one_of(_syms, _scalars)
_ast = st.recursive(
    _atoms,
    lambda children: st.one_of(
        _prods(children),
        _sums(children),
        _pows(st.one_of(_syms, _scalars, children)),
        st.builds(Comm, lhs=children, rhs=children),
        st.builds(WeylS, inner=children),
    ),
    max_leaves=12,
)


@settings(deadline=None, max_examples=200)
@given(node=_ast)
def test_print_parse_round_trip_property(node):
    assert parse_expression(print_expression(node)) == node
