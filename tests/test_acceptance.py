"""Acceptance gate: ten criteria, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; under plain
pytest the per-test PASSED/FAILED names carry the same information.
"""

import json
import subprocess
import sys
import time

import numpy as np

from dense_letters import dense_of_band, dense_realize
from qpb.grids import WaveFunction, make_uniform_grid
from qpb.kk import AnalyticSignal, hilbert_spectral, kk_residual, phase_equivalence, \
    pole_family, pv_quadrature, pv_quadrature_all
from qpb.moments import saturation_check, uncertainty_check, vector_uncertainty_check
from qpb.operators import (
    commutator_expectation_matrix,
    corollary_residual_momentum,
    momentum_operator,
    poisson_residual,
    position_operator,
)
from qpb.ladder import build, check_ladder_algebra, ht_commutator_residual
from qpb.states import conjugate_gaussian_pair, gaussian, gaussian_3d, \
    oscillator_eigenstate, random_band_limited
from qpb.symbolic import (
    OperatorPoly,
    commutator_poly,
    matrix_realize,
    poly_of,
    protected_slice,
    random_operator_poly,
    weyl_symmetrize,
)
from qpb.transforms import check_parseval, to_momentum, to_position


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _states_1d(grid):
    return [gaussian(grid, sigma=1.0)] + [oscillator_eigenstate(grid, k) for k in (1, 2, 3, 4)]


def test_criterion_01_poisson_pointwise():
    t0 = time.perf_counter()
    grid = make_uniform_grid(1, 256, 8.0, 1.0)
    spectral = max(poisson_residual(s).residual for s in _states_1d(grid))
    fd = [poisson_residual(gaussian(make_uniform_grid(1, n, 8.0), sigma=1.0),
                           backend="finite_difference").residual
          for n in (256, 512, 1024)]
    ratios = (fd[0] / fd[1], fd[1] / fd[2])
    elapsed = time.perf_counter() - t0
    ok = spectral <= 1e-6 and min(ratios) >= 3.5 and elapsed < 1.0
    _verdict(1, ok, f"pointwise [X,P] identity: spectral {spectral:.2e} <= 1e-6, "
                    f"fd ratios {ratios[0]:.2f}/{ratios[1]:.2f} >= 3.5, {elapsed:.2f} s")


def test_criterion_02_momentum_corollary():
    grid = make_uniform_grid(1, 256, 8.0, 1.0)
    worst = max(corollary_residual_momentum(to_momentum(s)).residual for s in _states_1d(grid))
    _verdict(2, worst <= 1e-6, f"momentum-side corollary on transform images: {worst:.2e} <= 1e-6")


def test_criterion_03_tensor_kronecker():
    t0 = time.perf_counter()
    grid = make_uniform_grid(3, 64, 8.0, 1.0)
    psi = gaussian_3d(grid, sigmas=(1.0, 1.0, 1.0))
    defect = float(np.max(np.abs(commutator_expectation_matrix(psi) - np.eye(3))))
    elapsed = time.perf_counter() - t0
    ok = defect <= 1e-6 and elapsed < 30.0
    _verdict(3, ok, f"3D <[X_m,P_n]>/(i hbar) vs Kronecker delta: {defect:.2e} <= 1e-6, "
                    f"{elapsed:.1f} s < 30 s")


def test_criterion_04_transform_unitarity():
    grid = make_uniform_grid(1, 256, 8.0, 1.0)
    rng = np.random.default_rng(0)
    round_trip = 0.0
    parseval = 0.0
    for _ in range(100):
        psi = random_band_limited(grid, rng)
        back = to_position(to_momentum(psi))
        round_trip = max(round_trip, float(np.max(np.abs(back.values - psi.values))))
        parseval = max(parseval, check_parseval(psi).residual)
    ok = round_trip <= 1e-12 and parseval <= 1e-12
    _verdict(4, ok, f"100 random states: round trip {round_trip:.2e} <= 1e-12, "
                    f"parseval {parseval:.2e} <= 1e-12")


def test_criterion_05_kramers_kronig():
    grid = make_uniform_grid(1, 4096, 64.0)
    oracle_gap = 0.0
    for a in (0.5, 1.0, 2.0):
        sig = pole_family(grid, a).real
        oracle_gap = max(oracle_gap, float(np.max(np.abs(
            hilbert_spectral(sig, grid) - pv_quadrature_all(sig, grid)))))
    line_gaps = []
    for scale in (1, 2, 4):
        gi = make_uniform_grid(1, 4096 * scale, 64.0 * scale)
        sig = pole_family(gi, 1.0).real
        h = hilbert_spectral(sig, gi)
        j = gi.n_points // 2
        line_gaps.append(abs(pv_quadrature(sig, gi, j, kernel="line") - h[j]))
    wrong = kk_residual(AnalyticSignal(grid, pole_family(grid, 1.0, "lower"), "upper")).residual
    ok = (oracle_gap <= 1e-5 and line_gaps[0] > line_gaps[1] > line_gaps[2] and wrong > 1e-2)
    _verdict(5, ok, f"dispersion pair: oracle gap {oracle_gap:.2e} <= 1e-5, line-kernel gaps "
                    f"{line_gaps[0]:.2e} > {line_gaps[1]:.2e} > {line_gaps[2]:.2e}, "
                    f"wrong half-plane {wrong:.2e} > 1e-2")


def test_criterion_06_phase_equivalence():
    grid_p = make_uniform_grid(1, 4096, 64.0)
    psi_p, chi_closed = conjugate_gaussian_pair(grid_p, sigma=1.0, center=0.7, momentum=1.3)
    chi_num = to_position(psi_p)
    report = phase_equivalence(np.abs(chi_closed.values),
                               np.angle(chi_num.values),
                               np.angle(chi_closed.values))
    ok = report.passed and report.residual <= 1e-6
    _verdict(6, ok, f"independent position representations agree mod 2 pi: "
                    f"{report.residual:.2e} <= 1e-6 on the 1e-3 magnitude window")


def test_criterion_07_weyl_exact_algebra():
    t0 = time.perf_counter()
    x, p = OperatorPoly.letter("X"), OperatorPoly.letter("P")
    c = commutator_poly(x, p)
    exact_comm = c == poly_of("i*hbar")
    central = True
    for total in range(0, 9):
        for n in range(total + 1):
            s = weyl_symmetrize(("X",) * n + ("P",) * (total - n))
            central = central and commutator_poly(c, s).is_zero() \
                and commutator_poly(x * p - p * x, s).is_zero()
    sxp = poly_of("S{X P}") == poly_of("X P - 1/2*i*hbar")
    rng = np.random.default_rng(7)
    oracle = 0.0
    for _ in range(200):
        a = random_operator_poly(rng, max_degree=4, n_terms=3)
        b = random_operator_poly(rng, max_degree=4, n_terms=3)
        # the commutator's band against dense word products of the draws
        m_a, _ = dense_realize(a, 64, 1.0)
        m_b, _ = dense_realize(b, 64, 1.0)
        prod = m_a @ m_b
        s_ = protected_slice(64, max(a.total_degree() + b.total_degree(), 1))
        direct = (prod - m_b @ m_a)[s_, s_]
        symbolic = dense_of_band(matrix_realize(commutator_poly(a, b), 64, 1.0))[s_, s_]
        oracle = max(oracle, float(np.max(np.abs(symbolic - direct)))
                     / (1.0 + float(np.max(np.abs(prod)))))
    elapsed = time.perf_counter() - t0
    ok = exact_comm and central and sxp and oracle <= 1e-10 and elapsed < 10.0
    _verdict(7, ok, f"exact algebra: [X,P]=i*hbar {exact_comm}, centrality n+m<=8 {central}, "
                    f"S{{XP}} identity {sxp}, matrix oracle {oracle:.2e} <= 1e-10, "
                    f"{elapsed:.1f} s < 10 s")


def test_criterion_08_uncertainty():
    grid = make_uniform_grid(1, 256, 8.0, 1.0)
    x_op, p_op = position_operator(grid), momentum_operator(grid)
    sat = saturation_check(gaussian(grid, sigma=1.0), x_op, p_op, 0.5).residual
    rng = np.random.default_rng(0)
    bound = 0.0
    for _ in range(500):
        bound = max(bound, uncertainty_check(
            random_band_limited(grid, rng), x_op, p_op).residual)
    grid3 = make_uniform_grid(3, 64, 8.0)
    vec = vector_uncertainty_check(gaussian_3d(grid3, sigmas=(1.0, 1.0, 1.0)),
                                   mode="saturation").residual
    ok = sat <= 1e-8 and bound <= 1e-8 and vec <= 1e-6
    _verdict(8, ok, f"uncertainty: gaussian saturation {sat:.2e} <= 1e-8, 500-state bound "
                    f"violation {bound:.2e} <= 1e-8, vector sum {vec:.2e} <= 1e-6")


def test_criterion_09_ladder_algebra():
    t0 = time.perf_counter()
    algebra = 0.0
    ht = 0.0
    corner_ok = True
    for omega in (0.5, 1.0, 3.0):
        for hbar in (0.5, 1.0):
            system = build(64, omega, hbar)
            rep = check_ladder_algebra(system)
            algebra = max(algebra, rep.residual)
            corner_ok = corner_ok and abs(rep.context["corner_entry"] + 63.0) < 1e-10
            ht = max(ht, ht_commutator_residual(system).residual)
    elapsed = time.perf_counter() - t0
    ok = algebra <= 1e-12 and ht <= 1e-10 and corner_ok and elapsed < 1.0
    _verdict(9, ok, f"ladder identities over omega x hbar sweep: algebra {algebra:.2e} <= 1e-12, "
                    f"[H,T] {ht:.2e} <= 1e-10, corner defect -(n-1) recorded {corner_ok}, "
                    f"{elapsed:.2f} s < 1 s")


def test_criterion_10_cli_determinism():
    cmd = [sys.executable, "-m", "qpb", "verify", "all", "--seed", "7", "--format", "json"]
    one = subprocess.run(cmd, capture_output=True, text=True)
    two = subprocess.run(cmd, capture_output=True, text=True)
    identical = one.stdout == two.stdout and one.returncode == two.returncode == 0
    rows = json.loads(one.stdout)
    all_pass = all(row["pass"] for row in rows)
    forced = subprocess.run(
        [sys.executable, "-m", "qpb", "verify", "poisson",
         "--tolerance", "poisson_residual=1e-15"], capture_output=True, text=True)
    config_err = subprocess.run(
        [sys.executable, "-m", "qpb", "verify", "all", "--tolerance", "no_such=1"],
        capture_output=True, text=True)
    ok = identical and all_pass and forced.returncode == 1 and config_err.returncode == 2
    _verdict(10, ok, f"CLI: byte-identical repeat runs {identical}, {len(rows)} checks all pass "
                     f"{all_pass}, exit codes 1/2 on forced failure and unknown key "
                     f"({forced.returncode}/{config_err.returncode})")
