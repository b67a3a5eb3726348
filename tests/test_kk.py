import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qpb import kk
from qpb.errors import ConfigurationError
from qpb.grids import make_uniform_grid
from qpb.kk import (
    AnalyticSignal,
    hilbert_spectral,
    kk_residual,
    periodized_pole,
    phase_equivalence,
    pole_family,
    pv_quadrature,
    pv_quadrature_all,
)
from qpb.states import conjugate_gaussian_pair
from qpb.transforms import to_position


def _grid(n=1024, half=32.0):
    return make_uniform_grid(1, n, half)


def _zero_mean_packet(grid, width_divisor=8.0, wavenumber=3.0):
    u = grid.axis_points()
    env = np.exp(-(u**2) / (2.0 * (grid.half_extent / width_divisor) ** 2))
    sig = env * np.cos(wavenumber * u)
    return sig - float(np.mean(sig))


def test_hilbert_involution_on_zero_mean_signals():
    # H^2 = -(I - DC - Nyquist) on the retained band
    grid = _grid()
    sig = _zero_mean_packet(grid)
    twice = hilbert_spectral(hilbert_spectral(sig, grid), grid)
    spec = np.fft.fft(sig)
    spec[0] = 0.0
    spec[grid.n_points // 2] = 0.0
    projected = np.fft.ifft(spec).real
    assert np.max(np.abs(twice + projected)) < 1e-12


def test_transforms_are_linear():
    grid = _grid()
    u = grid.axis_points()
    env = np.exp(-(u**2) / 10.0)
    f = env * np.sin(1.5 * u)
    g = env * np.cos(3.0 * u)
    alpha = -2.25
    combo = alpha * f + g
    spectral_gap = hilbert_spectral(combo, grid) - (
        alpha * hilbert_spectral(f, grid) + hilbert_spectral(g, grid))
    assert np.max(np.abs(spectral_gap)) < 1e-12
    pv_gap = pv_quadrature_all(combo, grid) - (
        alpha * pv_quadrature_all(f, grid) + pv_quadrature_all(g, grid))
    assert np.max(np.abs(pv_gap)) < 1e-12


def test_hilbert_parity_even_to_odd():
    grid = _grid()
    u = grid.axis_points()
    even = np.exp(-(u**2) / 8.0) * np.cos(2.0 * u)
    even -= float(np.mean(even))
    h = hilbert_spectral(even, grid)
    # odd about the center sample: h[j] = -h[n - j] for the interior
    flipped = -h[np.arange(grid.n_points - 1, 0, -1)]
    assert np.max(np.abs(h[1:] - flipped)) < 1e-12


def test_pv_periodic_kernel_cosine_to_minus_sine():
    # with kernel 1/(u - z) the transform of cos(ku) is -sin(kz); the
    # quadrature path has no decay guard, so pure harmonics probe the sign
    grid = _grid(256, np.pi * 4)
    u = grid.axis_points()
    k = 2.0 * np.pi * 3 / (2.0 * grid.half_extent)
    for j in (0, 31, 128, 200):
        got = pv_quadrature(np.cos(k * u), grid, j)
        assert got == pytest.approx(-np.sin(k * u[j]), abs=1e-12)


def test_hilbert_rejects_boundary_heavy_signal():
    grid = _grid(256, 8.0)
    ramp = np.abs(grid.axis_points())
    with pytest.raises(ConfigurationError, match="hilbert_spectral input has relative boundary amplitude"):
        hilbert_spectral(ramp, grid)


def test_pv_periodic_kernel_matches_spectral_everywhere():
    grid = _grid(512, 16.0)
    sig = _zero_mean_packet(grid)
    h = hilbert_spectral(sig, grid)
    all_points = pv_quadrature_all(sig, grid)
    assert np.max(np.abs(all_points - h)) < 1e-12
    for j in (0, 5, 256, 400):
        assert pv_quadrature(sig, grid, j) == pytest.approx(h[j], abs=1e-12)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_pv_quadrature_all_matches_per_point_sum(n):
    # the batched oracle must be the per-point sum at every index, to within
    # the float64 summation bound over the n/2 products g[z + m] * w_m
    grid = _grid(n, 8.0)
    sig = np.random.default_rng(n).normal(size=n)
    m = np.arange(1, n, 2)
    w = (2.0 / n) / np.tan(np.pi * m / n)
    got = pv_quadrature_all(sig, grid)
    eps = np.finfo(np.float64).eps
    for z in range(n):
        terms = np.abs(w) * np.abs(sig[(z + m) % n])
        bound = 8 * n * eps * float(np.sum(terms))
        assert abs(got[z] - pv_quadrature(sig, grid, z, kernel="periodic")) <= bound


@pytest.mark.parametrize("n", [8, 16, 64, 1024, 8192])
def test_pv_quadrature_all_matches_the_windowed_matvec(n):
    # the previous batched oracle: row z of a zero-copy window of the wrapped
    # samples holds g[(z + m) % n] at the odd offsets m, times the weights;
    # the correlation sums the same products in another order, so each point
    # may differ by the float64 summation bound over its n/2 products
    grid = _grid(n, 8.0)
    sig = np.random.default_rng(n).normal(size=n)
    m = np.arange(1, n, 2)
    w = (2.0 / n) / np.tan(np.pi * m / n)
    window = sliding_window_view(np.concatenate([sig, sig[:-1]]), n)[:, 1::2]
    bound = 8 * n * np.finfo(np.float64).eps * (np.abs(window) @ np.abs(w))
    assert np.all(np.abs(pv_quadrature_all(sig, grid) - window @ w) <= bound)


def test_pv_line_kernel_gap_shrinks_under_refinement():
    # truncated-line quadrature approaches the periodic answer as the window grows
    gaps = []
    for scale in (1, 2, 4):
        grid = _grid(1024 * scale, 32.0 * scale)
        sig = pole_family(grid, 1.0).real
        h = hilbert_spectral(sig, grid)
        j = grid.n_points // 2
        gaps.append(abs(pv_quadrature(sig, grid, j, kernel="line") - h[j]))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[2] > 3.0


def test_pv_unknown_kernel_rejected():
    grid = _grid(256, 8.0)
    with pytest.raises(ConfigurationError):
        pv_quadrature(np.zeros(256), grid, 0, kernel="midpoint")


def test_kk_residual_zero_input_flags_degenerate():
    grid = _grid(64, 4.0)
    report = kk_residual(AnalyticSignal(grid, np.zeros(64), "lower"))
    assert report.residual == 0.0
    assert not report.passed
    assert report.context["degenerate_input"] is True


def test_kk_residual_periodized_pole_both_planes():
    # 4096 points push the spectral tail of the a=0.5 member below Nyquist
    grid = _grid(4096, 64.0)
    for a in (0.5, 1.0, 2.0):
        values = periodized_pole(grid, a)
        lower = AnalyticSignal(grid, values, "lower")
        # the conjugate is analytic in the upper half-plane
        upper = AnalyticSignal(grid, np.conj(values), "upper")
        assert kk_residual(lower).residual < 1e-12
        assert kk_residual(upper).residual < 1e-12


def test_kk_residual_detects_wrong_half_plane():
    grid = _grid(2048, 64.0)
    values = periodized_pole(grid, 1.0)
    wrong = AnalyticSignal(grid, values, "upper")
    report = kk_residual(wrong)
    assert not report.passed
    assert report.residual > 1e-2


def test_analytic_signal_validates_half_plane_token():
    grid = _grid(256, 8.0)
    with pytest.raises(ConfigurationError):
        AnalyticSignal(grid, np.ones(256, dtype=complex), "sideways")


def test_phase_equivalence_transform_vs_closed_form():
    grid_p = make_uniform_grid(1, 1024, 32.0)
    psi_p, chi_closed = conjugate_gaussian_pair(grid_p, sigma=1.0, center=0.7, momentum=1.3)
    chi_num = to_position(psi_p)
    report = phase_equivalence(np.abs(chi_closed.values),
                               np.angle(chi_num.values),
                               np.angle(chi_closed.values))
    assert report.passed
    assert report.residual < 1e-10


def test_phase_equivalence_accepts_2pi_offsets():
    grid = _grid(256, 8.0)
    u = grid.axis_points()
    mag = np.exp(-(u**2) / 2.0)
    phase = 0.3 * u
    jumps = phase + 2.0 * np.pi * np.round(u)  # integer multiples of 2 pi, varying
    report = phase_equivalence(mag, phase, jumps)
    assert report.passed


def test_phase_equivalence_detects_genuine_mismatch():
    grid = _grid(256, 8.0)
    u = grid.axis_points()
    mag = np.exp(-(u**2) / 2.0)
    report = phase_equivalence(mag, 0.3 * u, 0.3 * u + 0.5)
    assert not report.passed
    assert report.residual == pytest.approx(0.5, abs=1e-12)


def test_phase_equivalence_zero_magnitude_raises():
    with pytest.raises(ConfigurationError, match="phase comparison on an identically zero magnitude"):
        phase_equivalence(np.zeros(16), np.zeros(16), np.zeros(16))


def test_phase_equivalence_under_resolved_flag():
    # difference jumping by nearly pi between neighbors: residual small after
    # 2 pi reduction but the comparison is untrustworthy, so it must fail
    n = 64
    mag = np.ones(n)
    phase_a = np.zeros(n)
    phase_b = np.cumsum(np.full(n, 2.2))  # wrapped steps exceed pi/2
    report = phase_equivalence(mag, phase_a, phase_b)
    assert not report.passed
    assert report.context["insufficient_resolution"] is True


def test_pole_family_validates_parameters():
    grid = _grid(256, 8.0)
    with pytest.raises(ConfigurationError):
        pole_family(grid, -1.0)
    with pytest.raises(ConfigurationError):
        periodized_pole(grid, 0.0)


def test_kk_residual_nan_in_second_line_fails(monkeypatch):
    # the re-line residual comes second, where Python's max dropped a NaN
    original = kk.hilbert_spectral
    calls = []

    def spoiled(re_part, grid):
        calls.append(1)
        out = original(re_part, grid)
        return out * np.nan if len(calls) == 2 else out

    monkeypatch.setattr(kk, "hilbert_spectral", spoiled)
    grid = _grid(4096, 64.0)
    report = kk_residual(AnalyticSignal(grid, periodized_pole(grid, 1.0), "lower"))
    assert len(calls) == 2
    assert np.isnan(report.residual)
    assert not report.passed
