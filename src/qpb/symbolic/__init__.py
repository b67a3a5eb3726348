"""Exact operator calculus: Gaussian-rational scalars, noncommutative
polynomials over one canonical pair, symmetric ordering, a text grammar, and
truncated matrix realizations for numeric cross-checks."""

from .coeffs import GaussianRational, HbarPoly
from .expr import (
    Comm,
    Pow,
    Prod,
    Scalar,
    Sum,
    Sym,
    WeylS,
    parse_expression,
    poly_of,
    print_expression,
    to_poly,
)
from .matrices import (
    band_adjoint,
    band_product,
    letter_matrices,
    matrix_realize,
    protected_defect,
    protected_slice,
)
from .poly import (
    SYMMETRIZE_DEGREE_BOUND,
    OperatorPoly,
    commutator_poly,
    random_operator_poly,
    taylor_operator,
    weyl_symmetrize,
)

__all__ = [
    "GaussianRational",
    "HbarPoly",
    "OperatorPoly",
    "SYMMETRIZE_DEGREE_BOUND",
    "Comm",
    "Pow",
    "Prod",
    "Scalar",
    "Sum",
    "Sym",
    "WeylS",
    "band_adjoint",
    "band_product",
    "commutator_poly",
    "letter_matrices",
    "matrix_realize",
    "parse_expression",
    "poly_of",
    "print_expression",
    "protected_defect",
    "protected_slice",
    "random_operator_poly",
    "taylor_operator",
    "to_poly",
    "weyl_symmetrize",
]
