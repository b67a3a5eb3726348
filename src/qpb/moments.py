"""Means, spreads, and commutator lower bounds for grid states.

Second moments are taken as <A psi | A psi>, which is <A^2> for the Hermitian
operators built here and keeps variances nonnegative by construction.

`pair_moments_block` is the kernel for a pair of operators: it takes a block
of states on the trailing grid axes of an array and returns one value per
state, raising ConfigurationError if any state is not normalized or has a
non-real expectation. `saturation_check` calls it with a single state, as
`moments` calls the same code for one operator.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .grids import UniformGrid, WaveFunction, inner_product_block, norm_block, require_normalized
from .operators import (
    GridOperator,
    apply,
    apply_block,
    momentum_operator,
    position_operator,
)
from .record import Record
from .report import CheckReport, make_report, worst

HERMITICITY_SLACK = 1e-10
NOT_NORMALIZED = "moments are defined for normalized states"


class Moments(Record):
    """Moments of one operator: floats for a state, arrays (one entry per
    state) inside the block kernel."""

    __slots__ = ("mean", "second", "spread", "mean_imag_residue")

    def __init__(self, mean: float, second: float, spread: float, mean_imag_residue: float):
        self._set(mean=mean, second=second, spread=spread, mean_imag_residue=mean_imag_residue)


def _moments_of(values: np.ndarray, a_values: np.ndarray, grid: UniformGrid) -> Moments:
    raw_mean = inner_product_block(values, a_values, grid)
    second = inner_product_block(a_values, a_values, grid).real
    # |<psi|A psi>| <= |A psi| on a normalized state, so the rounding in the
    # imaginary part scales with |A psi|, not with 1
    if not np.all(np.abs(raw_mean.imag) <= HERMITICITY_SLACK * np.sqrt(second)):
        raise ConfigurationError("operator expectation is not real on this state")
    mean = raw_mean.real
    spread = np.sqrt(np.maximum(second - mean * mean, 0.0))
    return Moments(mean=mean, second=second, spread=spread,
                   mean_imag_residue=np.abs(raw_mean.imag))


def moments(psi: WaveFunction, op: GridOperator) -> Moments:
    """Mean, second moment <A psi|A psi> and spread of op on a normalized
    state: the per-state arithmetic of pair_moments_block, for one operator.
    The state's norm is computed once and kept, so repeated calls on one
    state check it once."""
    require_normalized(psi.norm(), NOT_NORMALIZED)
    m = _moments_of(psi.values, apply(op, psi).values, psi.grid)
    return Moments(mean=float(m.mean), second=float(m.second), spread=float(m.spread),
                   mean_imag_residue=float(m.mean_imag_residue))


def pair_moments_block(values: np.ndarray, grid: UniformGrid, op_a: GridOperator,
                       op_b: GridOperator, representation: str = "position") -> dict:
    """Spreads of A and B, their product and <[A, B]> for every state of a
    block, one entry per state. A psi and B psi are computed once each and
    reused for the commutator (AB - BA) psi."""
    require_normalized(norm_block(values, grid), NOT_NORMALIZED)
    # each product is freed as soon as it is used, so that with the two
    # arrays of a transform at most four state-sized arrays are alive at once
    a_values = apply_block(op_a, values, grid, representation)
    ma = _moments_of(values, a_values, grid)
    ba_values = apply_block(op_b, a_values, grid, representation)
    del a_values
    b_values = apply_block(op_b, values, grid, representation)
    mb = _moments_of(values, b_values, grid)
    comm_values = apply_block(op_a, b_values, grid, representation)
    del b_values
    comm_values -= ba_values
    del ba_values
    comm = inner_product_block(values, comm_values, grid)
    return {
        "spread_a": ma.spread,
        "spread_b": mb.spread,
        "product": ma.spread * mb.spread,
        # hypot is Python's abs(complex); numpy's complex abs can differ in the last bit
        "half_commutator_magnitude": 0.5 * np.hypot(comm.real, comm.imag),
        "commutator_expectation": comm,
    }


def saturation_check(psi: WaveFunction, op_a: GridOperator, op_b: GridOperator,
                     target_product: float,
                     check_id: str = "uncertainty_gaussian_saturation") -> CheckReport:
    """Two-sided check that the spread product equals a known closed form."""
    data = pair_moments_block(psi.values, psi.grid, op_a, op_b, psi.representation)
    data["target_product"] = target_product
    residual = abs(data["product"] - target_product)
    return make_report(check_id, residual, context=data)


def vector_uncertainty_check(psi: WaveFunction, mode: str = "bound") -> CheckReport:
    """Componentwise spread products of a 3D state against dim * hbar / 2.

    mode="bound" clamps the violation of sum_m spread(X_m) spread(P_m) >=
    3 hbar / 2 at zero; mode="saturation" reports the two-sided distance,
    which vanishes only for isotropic minimum states.
    """
    if psi.grid.dim != 3:
        raise ConfigurationError("vector uncertainty is defined for 3D states")
    if mode not in ("bound", "saturation"):
        raise ConfigurationError("mode must be 'bound' or 'saturation'")
    # the first moments() call checks that psi is normalized
    products = []
    for axis in range(3):
        mx = moments(psi, position_operator(psi.grid, axis=axis))
        mp = moments(psi, momentum_operator(psi.grid, axis=axis))
        products.append(mx.spread * mp.spread)
    total = float(np.sum(products))
    target = 3.0 * psi.grid.hbar / 2.0
    residual = worst([0.0, target - total]) if mode == "bound" else abs(total - target)
    return make_report(f"uncertainty_vector_{mode}", residual, context={
        "axis_products": products,
        "sum_of_products": total,
        "target": target,
        "mode": mode,
    })
