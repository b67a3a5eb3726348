"""Verification toolkit for conjugate-representation operator identities.

Numerics live on centered uniform grids whose position and momentum steps
satisfy the reciprocity relation dr * dp = 2 pi hbar / n, so the scaled
Fourier pair is exactly unitary. On top of that sit spectral and finite
difference operator backends, principal-value and analytic-signal checks,
an exact symbolic operator calculus with symmetrized products, and a
truncated ladder-operator model. Every check returns a CheckReport; the
suites module groups them into named, seeded suites behind the `qpb` CLI.
"""

from .errors import (
    BoundaryContaminationError,
    ConfigurationError,
    DegenerateStateError,
    ExprSyntaxError,
    IncompatibleOperandsError,
    PhaseUndefinedError,
    PreconditionError,
    ProtectedRangeError,
    RepresentationError,
    ResourceBoundError,
    ToolkitError,
)
from .grids import UniformGrid, WaveFunction, inner_product, make_uniform_grid, normalize
from .kk import (
    AnalyticSignal,
    hilbert_spectral,
    kk_residual,
    periodized_pole,
    phase_equivalence,
    pole_family,
    pv_quadrature,
    pv_quadrature_all,
)
from .ladder import LadderSystem, build as build_ladder
from .moments import Moments, moments, saturation_check, uncertainty_check, vector_uncertainty_check
from .operators import (
    GridOperator,
    apply,
    commutator_apply,
    commutator_expectation_matrix,
    corollary_residual_momentum,
    momentum_operator,
    poisson_residual,
    position_operator,
)
from .report import CheckReport, emit_report, make_report, report_as_dict
from .states import (
    conjugate_gaussian_pair,
    gaussian,
    gaussian_3d,
    oscillator_eigenstate,
    random_band_limited,
)
from .suites import KNOWN_CHECK_IDS, SUITE_NAMES, SuiteConfig, run_suite
from .transforms import check_parseval, reciprocal_grid, to_momentum, to_position, transform

__version__ = "0.1.0"

__all__ = [
    "AnalyticSignal",
    "BoundaryContaminationError",
    "CheckReport",
    "ConfigurationError",
    "DegenerateStateError",
    "ExprSyntaxError",
    "GridOperator",
    "IncompatibleOperandsError",
    "KNOWN_CHECK_IDS",
    "LadderSystem",
    "Moments",
    "PhaseUndefinedError",
    "PreconditionError",
    "ProtectedRangeError",
    "RepresentationError",
    "ResourceBoundError",
    "SUITE_NAMES",
    "SuiteConfig",
    "ToolkitError",
    "UniformGrid",
    "WaveFunction",
    "apply",
    "build_ladder",
    "check_parseval",
    "commutator_apply",
    "commutator_expectation_matrix",
    "conjugate_gaussian_pair",
    "corollary_residual_momentum",
    "emit_report",
    "gaussian",
    "gaussian_3d",
    "hilbert_spectral",
    "inner_product",
    "kk_residual",
    "make_report",
    "make_uniform_grid",
    "moments",
    "momentum_operator",
    "normalize",
    "oscillator_eigenstate",
    "periodized_pole",
    "phase_equivalence",
    "poisson_residual",
    "pole_family",
    "position_operator",
    "pv_quadrature",
    "pv_quadrature_all",
    "random_band_limited",
    "reciprocal_grid",
    "report_as_dict",
    "run_suite",
    "saturation_check",
    "to_momentum",
    "to_position",
    "transform",
    "uncertainty_check",
    "vector_uncertainty_check",
    "__version__",
]
