"""Kernel parameters that only ever took one value are module constants. Each
test holds a constant to the samples its kernel reads, or to the value its
report records, so that the reports keep their bytes."""

import numpy as np
import pytest

from qpb import grids, kk, ladder, operators, states
from qpb.grids import WaveFunction, boundary_band_fraction, boundary_mass, make_uniform_grid
from qpb.kk import AnalyticSignal, kk_residual, periodized_pole, phase_equivalence
from qpb.ladder import build, eigenstate_overlap_check, scaling_exact_check
from qpb.operators import corollary_residual_momentum, poisson_residual
from qpb.states import gaussian, random_band_limited
from qpb.transforms import to_momentum


def _outer(n, width):
    """True on the `width` samples at each end of an axis of n samples."""
    index = np.arange(n)
    return (index < width) | (index >= n - width)


def test_the_boundary_cells_are_the_same_in_grids_and_kk():
    # row i of the identity puts all of its mass on sample i
    n = 32
    grid = make_uniform_grid(1, n, 4.0)
    unit = np.eye(n, dtype=np.complex128)
    mass = [boundary_mass(WaveFunction(grid=grid, representation="position", values=row))
            for row in unit]
    amplitude = [kk._relative_boundary_amplitude(row) for row in unit]
    expected = _outer(n, grids.BOUNDARY_CELLS).astype(float)
    assert grids.BOUNDARY_CELLS == 4
    assert np.array_equal(mass, expected)
    assert np.array_equal(amplitude, expected)


def test_the_band_is_one_band_divisor_th_of_each_side_of_a_row():
    n = 64
    assert grids.BAND_DIVISOR == 8
    assert np.array_equal(boundary_band_fraction(np.eye(n)),
                          _outer(n, n // grids.BAND_DIVISOR).astype(float))


def test_the_phase_window_starts_at_its_threshold_of_the_peak():
    # one sample's phase is off by 1 radian; it counts only inside the window
    assert kk.PHASE_WINDOW_THRESHOLD == 1e-3
    zero = np.zeros(16)
    off = np.where(np.arange(16) == 5, 1.0, 0.0)
    for scale, residual in ((1.0, 1.0), (np.nextafter(1.0, 0.0), 0.0)):
        mag = np.ones(16)
        mag[5] = kk.PHASE_WINDOW_THRESHOLD * scale
        report = phase_equivalence(mag, off, zero)
        assert report.residual == residual
        assert report.passed == (residual == 0.0)


def test_random_band_limited_reads_its_mode_count_and_envelope_width():
    assert (states.N_MODES, states.ENVELOPE_DIVISOR) == (6, 8.0)
    grid = make_uniform_grid(1, 64, 8.0)
    x, half = grid.axis_points(), grid.half_extent
    waves, envelope = states._band_basis(grid)
    # the plane waves run from wavenumber -N_MODES pi / L to N_MODES pi / L
    assert len(waves) == 2 * states.N_MODES + 1
    for row, k in ((0, -states.N_MODES), (-1, states.N_MODES)):
        assert np.allclose(waves[row], np.exp(1j * np.pi * k * x / half), rtol=0, atol=1e-14)
    width = half / states.ENVELOPE_DIVISOR
    assert np.allclose(envelope, np.exp(-(x**2) / (2.0 * width**2)), rtol=0, atol=1e-15)
    assert random_band_limited(grid, np.random.default_rng(0), n_states=2).shape == (2, 64)


def _line_grid():
    return make_uniform_grid(1, 2048, 64.0)


def _gaussian():
    return gaussian(make_uniform_grid(1, 256, 8.0), sigma=1.0)


# (report, context key, module and constant or None, the value the key
# recorded when the constant was a keyword default)
RECORDED = {
    "kk_residual": (
        lambda: kk_residual(AnalyticSignal(
            _line_grid(), periodized_pole(_line_grid(), 1.0), "lower")),
        "dc_adjusted", None, True),
    "phase_equivalence": (
        lambda: phase_equivalence(np.ones(16), np.zeros(16), np.zeros(16)),
        "window_threshold", (kk, "PHASE_WINDOW_THRESHOLD"), 1e-3),
    "ladder_eigenstate_overlap": (
        lambda: eigenstate_overlap_check(build(16)),
        "m_max", (ladder, "M_MAX"), 4),
    "ladder_scaling_exact": (
        lambda: scaling_exact_check(16),
        "omegas", (ladder, "SCALING_OMEGAS"), [0.5, 2.0, 3.0]),
    "poisson_residual": (
        lambda: poisson_residual(_gaussian()),
        "interior_mask_threshold", (operators, "INTERIOR_MASK_THRESHOLD"), 1e-6),
    "corollary_residual_momentum": (
        lambda: corollary_residual_momentum(to_momentum(_gaussian())),
        "interior_mask_threshold", (operators, "INTERIOR_MASK_THRESHOLD"), 1e-6),
}


@pytest.mark.parametrize("check_id", list(RECORDED))
def test_each_report_records_the_value_of_its_fixed_parameter(check_id):
    build_report, key, constant, value = RECORDED[check_id]
    report = build_report()
    assert report.check_id == check_id and report.passed
    recorded = report.context[key]
    # an int and a float of one value serialize to different bytes
    assert recorded == value and type(recorded) is type(value)
    if constant is not None:
        module, name = constant
        # a tuple constant is recorded as a JSON list
        assert getattr(module, name) == (tuple(value) if isinstance(value, list) else value)
