"""Named check suites over the verification toolkit.

Each suite builds deterministic scenarios (seeded where random), runs the
relevant identities, and returns CheckReport rows sorted by check id. Grid
defaults differ per suite; explicit sizes apply to every 1D check in the
selected suite. 3D checks keep fixed sizes for runtime predictability.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ConfigurationError
from .grids import BLOCK_SAMPLES, UniformGrid, WaveFunction, make_uniform_grid
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
from .ladder import (
    build,
    check_ladder_algebra,
    eigenstate_overlap_check,
    ht_commutator_residual,
    scaling_exact_check,
)
from .moments import (
    pair_moments_block,
    saturation_check,
    vector_uncertainty_check,
)
from .operators import (
    corollary_residual_momentum,
    kronecker_commutators,
    momentum_operator,
    poisson_residual,
    position_operator,
)
from .record import Record
from .report import CHECKS, CheckReport, make_report, worst
from .states import (
    conjugate_gaussian_pair,
    gaussian,
    gaussian_3d,
    oscillator_eigenstate,
    random_band_limited,
)
from .symbolic import (
    band_product,
    commutator_poly,
    matrix_realize,
    parse_expression,
    poly_of,
    print_expression,
    protected_defect,
    random_operator_poly,
    weyl_symmetrize,
    taylor_operator,
)
from .transforms import (
    parseval_block,
    reciprocal_grid,
    to_momentum,
    to_position,
    transform_block,
)

_GRID_DEFAULTS = {"kk": (4096, 64.0)}
_GRID_FALLBACK = (256, 8.0)
_GRID_3D = (64, 8.0)

N_TRANSFORM_STATES = 100
N_BOUND_STATES = 500
N_ORACLE_DRAWS = 200
ORACLE_TERM_DEGREE = 4
# weyl_matrix_oracle realizes products of two draws, and a degree-d product
# is only checked on the nonempty protected block of n_trunc - d states
WEYL_MIN_N_TRUNC = 2 * ORACLE_TERM_DEGREE + 1
WRONG_PLANE_FLOOR = 1e-2
FD_RATIO_FLOOR = 3.5
# one memory budget bounds the size of a single array: a dense n_trunc x
# n_trunc complex128 matrix, or 64 complex128 arrays of n_points samples, more
# than a 1D check keeps alive. Ladder's overlap check (two eigh calls and two
# products on its protected blocks) holds the only n_trunc^2 arrays and is the
# only cubic cost; weyl keeps its matrices as bands of at most
# 4 ORACLE_TERM_DEGREE + 1 diagonals. It bounds neither a run's peak memory
# nor its time
MEMORY_BUDGET_BYTES = 64 * 2**20
MAX_N_TRUNC = math.isqrt(MEMORY_BUDGET_BYTES // 16)
MAX_N_POINTS = MEMORY_BUDGET_BYTES // (64 * 16)


class SuiteConfig(Record):
    __slots__ = ("suite", "n_points", "half_extent", "hbar", "n_trunc", "omega", "seed",
                 "tolerances")

    def __init__(self, suite: str = "all", n_points: int | None = None,
                 half_extent: float | None = None, hbar: float = 1.0, n_trunc: int = 64,
                 omega: float = 1.0, seed: int = 0, tolerances: Mapping[str, float] | None = None):
        if suite not in SUITE_NAMES:
            raise ConfigurationError(
                f"unknown suite {suite!r}; choose one of {', '.join(SUITE_NAMES)}")
        for name, value in (("hbar", hbar), ("omega", omega), ("half_extent", half_extent)):
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if n_trunc < 8:
            raise ConfigurationError("n_trunc below 8 leaves no protected block to check")
        if suite in ("weyl", "all") and n_trunc < WEYL_MIN_N_TRUNC:
            raise ConfigurationError(f"weyl needs n_trunc >= {WEYL_MIN_N_TRUNC} for its "
                                     f"products of two degree-{ORACLE_TERM_DEGREE} draws")
        if seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {seed}")
        budget = f"the {MEMORY_BUDGET_BYTES // 2**20} MiB memory budget"
        if n_trunc > MAX_N_TRUNC:
            raise ConfigurationError(f"n_trunc {n_trunc} exceeds {MAX_N_TRUNC}, "
                                     f"the largest dense matrix within {budget}")
        if n_points is not None and n_points > MAX_N_POINTS:
            raise ConfigurationError(f"n_points {n_points} exceeds {MAX_N_POINTS}, "
                                     f"the largest grid within {budget}")
        tolerances = {} if tolerances is None else tolerances
        unknown = set(tolerances) - set(CHECKS)
        if unknown:
            raise ConfigurationError(
                f"tolerance overrides for unknown checks: {', '.join(sorted(unknown))}")
        for key, value in tolerances.items():
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigurationError(
                    f"tolerance for {key} must be nonnegative and finite, got {value}")
        self._set(suite=suite, n_points=n_points, half_extent=half_extent, hbar=hbar,
                  n_trunc=n_trunc, omega=omega, seed=seed, tolerances=tolerances)

    def grid_1d(self, section: str) -> tuple[int, float]:
        n_default, half_default = _GRID_DEFAULTS.get(section, _GRID_FALLBACK)
        n = self.n_points if self.n_points is not None else n_default
        half = self.half_extent if self.half_extent is not None else half_default
        return n, half

    def tol(self, check_id: str) -> float:
        return float(self.tolerances.get(check_id, CHECKS[check_id].tolerance))


def _block_sizes(n_states: int, grid: UniformGrid) -> list[int]:
    """Row counts of the blocks of at most BLOCK_SAMPLES samples (and at
    least one state) that together hold n_states states on grid."""
    rows = max(1, BLOCK_SAMPLES // grid.size)
    return [min(rows, n_states - start) for start in range(0, n_states, rows)]


def _fold(check_id: str, reports: list[CheckReport], extra: dict | None = None) -> CheckReport:
    """Aggregate per-case reports for one check: worst residual wins (a NaN in
    any case makes it NaN, so the fold fails), and one invalid case makes the
    fold invalid, so it fails at any tolerance."""
    context = {"n_cases": len(reports)}
    if extra:
        context.update(extra)
    return make_report(check_id, worst([r.residual for r in reports]),
                       context=context, valid=all(r.valid for r in reports))


def _exact(check_id: str, ok: bool, context: dict | None = None) -> CheckReport:
    return make_report(check_id, 0.0 if ok else 1.0, context=context)


def _fourier_checks(cfg: SuiteConfig) -> list[CheckReport]:
    n, half = cfg.grid_1d("fourier")
    grid = make_uniform_grid(1, n, half, cfg.hbar)
    r_grid = reciprocal_grid(grid)
    rng = np.random.default_rng(cfg.seed)
    round_trip_defects, parseval_residuals = [], []
    for rows in _block_sizes(N_TRANSFORM_STATES, grid):
        block = random_band_limited(grid, rng, n_states=rows)
        momentum = transform_block(block, grid, "position")
        back = transform_block(momentum, r_grid, "momentum")
        round_trip_defects.append(np.max(np.abs(back - block), axis=-1))
        parseval_residuals.append(parseval_block(block, momentum, grid)["residual"])
    r_round = make_report("fourier_round_trip", worst(np.concatenate(round_trip_defects)), context={
        "n_states": N_TRANSFORM_STATES, "n_points": n, "half_extent": half})
    r_parseval = make_report("fourier_parseval", worst(np.concatenate(parseval_residuals)),
                             context={"n_cases": N_TRANSFORM_STATES})

    # the kernel depends on p/hbar only, so doubling hbar together with the
    # momentum extent maps onto the same position grid; renormalizing the
    # widened samples leaves every position-representation value unchanged
    base = gaussian(grid, sigma=1.0, center=0.4, momentum=0.9,
                    representation="momentum")
    wide = make_uniform_grid(1, n, 2.0 * half, 2.0 * cfg.hbar)
    rescaled = WaveFunction(grid=wide, representation="momentum",
                            values=base.values / np.sqrt(2.0))
    scaling_defect = float(np.max(np.abs(
        to_position(rescaled).values - to_position(base).values)))
    r_scaling = make_report("fourier_hbar_scaling", scaling_defect, context={
        "n_points": n, "extent_factor": 2.0, "hbar_factor": 2.0,
        "renormalization": "samples divided by sqrt(2)"})

    grid3 = make_uniform_grid(3, 32, 8.0, cfg.hbar)
    axis = make_uniform_grid(1, 32, 8.0, cfg.hbar)
    parts = [
        gaussian(axis, sigma=1.0, center=0.5, momentum=0.7),
        gaussian(axis, sigma=1.3, center=-0.3, momentum=0.0),
        gaussian(axis, sigma=0.8, center=0.0, momentum=-1.1),
    ]
    product_state = WaveFunction(
        grid=grid3, representation="position",
        values=np.einsum("i,j,k->ijk", *(p.values for p in parts)))
    transformed = to_momentum(product_state)
    factored = np.einsum("i,j,k->ijk", *(to_momentum(p).values for p in parts))
    r_tensor = make_report("fourier_tensor_factorization",
                           float(np.max(np.abs(transformed.values - factored))),
                           context={"n_points": 32, "half_extent": 8.0})
    return [r_round, r_parseval, r_scaling, r_tensor]


def _poisson_checks(cfg: SuiteConfig) -> list[CheckReport]:
    n, half = cfg.grid_1d("poisson")
    grid = make_uniform_grid(1, n, half, cfg.hbar)
    labels = ["gaussian"] + [f"hermite_{k}" for k in (1, 2, 3, 4)]
    states = [gaussian(grid, sigma=1.0)] + [oscillator_eigenstate(grid, k) for k in (1, 2, 3, 4)]
    spectral = [poisson_residual(s) for s in states]
    r_poisson = _fold("poisson_residual", spectral,
                      extra={"states": labels,
                             "residuals": [r.residual for r in spectral],
                             "backend": "spectral"})

    fd_reports = []
    for scale in (1, 2, 4):
        g = gaussian(make_uniform_grid(1, n * scale, half, cfg.hbar), sigma=1.0)
        fd_reports.append(poisson_residual(g, backend="finite_difference"))
    resids = [r.residual for r in fd_reports]
    ratios = [resids[0] / resids[1], resids[1] / resids[2]]
    r_fd = make_report(
        "poisson_fd_convergence", worst([0.0] + [FD_RATIO_FLOOR - r for r in ratios]),
        context={"grid_sizes": [n, 2 * n, 4 * n], "residuals": resids,
                 "ratios": ratios, "required_ratio": FD_RATIO_FLOOR})

    images = [to_momentum(states[0]), to_momentum(states[1])]
    corollary = [corollary_residual_momentum(g) for g in images]
    r_corollary = _fold("corollary_residual_momentum", corollary,
                        extra={"states": ["gaussian image", "hermite_1 image"]})

    n3, half3 = _GRID_3D
    grid3 = make_uniform_grid(3, n3, half3, cfg.hbar)
    psi3 = gaussian_3d(grid3, sigmas=(1.0, 1.25, 0.8))
    matrix, pointwise = kronecker_commutators(psi3)
    matrix_defect = float(np.max(np.abs(matrix - np.eye(3))))
    r_tensor = make_report("tensor_kronecker", worst([matrix_defect, pointwise]), context={
        "n_points": n3, "half_extent": half3, "matrix_defect": matrix_defect,
        "cross_commutator_interior_max": pointwise})
    return [r_poisson, r_fd, r_corollary, r_tensor]


def _kk_checks(cfg: SuiteConfig) -> list[CheckReport]:
    n, half = cfg.grid_1d("kk")
    grid = make_uniform_grid(1, n, half, cfg.hbar)
    u = grid.axis_points()

    signals = [pole_family(grid, a).real for a in (0.5, 1.0, 2.0)]
    bump = np.exp(-(u**2) / (2.0 * (half / 8.0) ** 2)) * np.cos(3.0 * u)
    signals.append(bump - float(np.mean(bump)))
    gaps = [float(np.max(np.abs(hilbert_spectral(s, grid) - pv_quadrature_all(s, grid))))
            for s in signals]
    r_oracle = make_report("kk_oracle_agreement", worst(gaps), context={
        "n_points": n, "half_extent": half,
        "signals": ["pole a=0.5", "pole a=1", "pole a=2", "zero-mean packet"], "gaps": gaps})

    line_gaps = []
    for scale in (1, 2, 4):
        gi = make_uniform_grid(1, n * scale, half * scale, cfg.hbar)
        re = pole_family(gi, 1.0).real
        h = hilbert_spectral(re, gi)
        center = gi.n_points // 2
        probes = [center, center - n // 16, center + n // 16]
        line_gaps.append(worst(
            [abs(pv_quadrature(re, gi, j, kernel="line") - h[j]) for j in probes]))
    growth = worst([0.0, line_gaps[1] - line_gaps[0], line_gaps[2] - line_gaps[1]])
    r_refine = make_report("kk_refinement_monotone", growth,
                           context={"scales": [1, 2, 4], "line_kernel_gaps": line_gaps})

    a_values = [0.5, 1.0, 2.0]
    pairs = [AnalyticSignal(grid, periodized_pole(grid, a), "lower") for a in a_values]
    right = [kk_residual(sig) for sig in pairs]
    r_kk = _fold("kk_residual", right,
                 extra={"family": "periodized pole, lower half-plane",
                        "a_values": a_values,
                        "residuals": [r.residual for r in right]})

    wrong = [kk_residual(AnalyticSignal(grid, sig.values, "upper")) for sig in pairs]
    wrong_resids = [r.residual for r in wrong]
    r_wrong = make_report(
        "kk_wrong_half_plane", worst([0.0] + [WRONG_PLANE_FLOOR - r for r in wrong_resids]),
        context={"wrong_declaration_residuals": wrong_resids,
                 "required_floor": WRONG_PLANE_FLOOR})

    psi_p, chi_closed = conjugate_gaussian_pair(grid, sigma=1.0, center=0.7, momentum=1.3)
    chi_transform = to_position(psi_p)
    rep = phase_equivalence(np.abs(chi_closed.values),
                            np.angle(chi_transform.values),
                            np.angle(chi_closed.values))
    r_phase = _fold("phase_equivalence", [rep], extra={"window_points": rep.context["window_points"]})
    return [r_oracle, r_refine, r_kk, r_wrong, r_phase]


def _weyl_checks(cfg: SuiteConfig) -> list[CheckReport]:
    i_hbar = poly_of("i*hbar")
    x, p = poly_of("X"), poly_of("P")

    ok_poisson = (commutator_poly(x, p) == i_hbar) and (poly_of("[X, P]") == i_hbar)
    r_poisson = _exact("weyl_poisson_exact", ok_poisson)

    ok_sym = (
        poly_of("S{X P}") == poly_of("1/2 X P + 1/2 P X")
        and poly_of("S{X P}") == poly_of("X P - 1/2*i*hbar")
        and poly_of("S{X^2 P}") == poly_of("X^2 P - i*hbar X")
        and taylor_operator({(1, 1): 1}) == poly_of("S{X P}")
        and taylor_operator({(2, 0): 1, (0, 2): 1}) == poly_of("X^2 + P^2")
    )
    r_sym = _exact("weyl_sxp_normal_form", ok_sym)

    c = commutator_poly(x, p)
    ok_central = (c == i_hbar
                  and commutator_poly(c, x).is_zero()
                  and commutator_poly(c, p).is_zero()
                  and commutator_poly(c, poly_of("S{X^2 P^2}")).is_zero())
    r_central = _exact("weyl_centrality", ok_central)

    ok_adjoint = True
    for total in range(0, 7):
        for n_x in range(total + 1):
            word = ("X",) * n_x + ("P",) * (total - n_x)
            s = weyl_symmetrize(word)
            ok_adjoint = ok_adjoint and (s.adjoint() == s)
    r_adjoint = _exact("weyl_adjoint_symmetry", ok_adjoint, context={"max_degree": 6})

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_trunc
    residuals = []
    for _ in range(N_ORACLE_DRAWS):
        a = random_operator_poly(rng, max_degree=ORACLE_TERM_DEGREE, n_terms=3)
        b = random_operator_poly(rng, max_degree=ORACLE_TERM_DEGREE, n_terms=3)
        m_a = matrix_realize(a, n, cfg.hbar)
        m_b = matrix_realize(b, n, cfg.hbar)
        symbolic = matrix_realize(commutator_poly(a, b), n, cfg.hbar)
        nf = matrix_realize(a.normal_form(), n, cfg.hbar)
        ab = band_product(m_a, m_b)
        direct = ab - band_product(m_b, m_a)
        # commutator entries cancel to ~eps of the products' entries, so the
        # defensible scale is the product magnitude, not the block magnitude
        residuals += [
            protected_defect(symbolic, direct, max(a.total_degree() + b.total_degree(), 1))
            / (1.0 + float(np.max(np.abs(ab)))),
            protected_defect(nf, m_a, max(a.total_degree(), 1))
            / (1.0 + float(np.max(np.abs(m_a)))),
        ]
    r_oracle = make_report(
        "weyl_matrix_oracle", worst(residuals),
        context={"n_draws": N_ORACLE_DRAWS, "n_trunc": n,
                 "max_term_degree": ORACLE_TERM_DEGREE,
                 "residual_scaling": "max |C - (A B - B A)| over every entry of the "
                                     "protected block, over 1 + max |A B|; normal form "
                                     "N: max |N - A| over its protected block, over "
                                     "1 + max |A|; A B and B A the band products of "
                                     "the truncated matrices"})

    canonical = [
        "X P - P X",
        "1/2 X P + 1/2 P X",
        "S{X^2 P}",
        "[X, P] - i*hbar",
        "3*i*hbar^2 (X + P)^2",
        "S{X P} - 1/2 X P - 1/2 P X",
        "hbar^2 X^2",
    ]
    ok_parser = True
    for text in canonical:
        ast = parse_expression(text)
        ok_parser = ok_parser and print_expression(ast) == text
        ok_parser = ok_parser and parse_expression(print_expression(ast)) == ast
    ok_parser = ok_parser and poly_of("S{X P} - 1/2 X P - 1/2 P X").is_zero()
    r_parser = _exact("weyl_parser_round_trip", ok_parser, context={"n_cases": len(canonical)})
    return [r_poisson, r_sym, r_central, r_adjoint, r_oracle, r_parser]


def _uncertainty_checks(cfg: SuiteConfig) -> list[CheckReport]:
    n, half = cfg.grid_1d("uncertainty")
    grid = make_uniform_grid(1, n, half, cfg.hbar)
    x_op = position_operator(grid)
    p_op = momentum_operator(grid)
    target = cfg.hbar / 2.0

    sigmas = [0.75, 1.0, 1.5]
    gauss_reports = [saturation_check(gaussian(grid, sigma=s), x_op, p_op, target)
                     for s in sigmas]
    r_gauss = _fold("uncertainty_gaussian_saturation", gauss_reports,
                    extra={"sigmas": sigmas, "target_product": target})

    rng = np.random.default_rng(cfg.seed)
    residuals, products = [], []
    for rows in _block_sizes(N_BOUND_STATES, grid):
        data = pair_moments_block(random_band_limited(grid, rng, n_states=rows), grid, x_op, p_op)
        residuals.append(np.maximum(0.0, data["half_commutator_magnitude"] - data["product"]))
        products.append(data["product"])
    r_random = make_report("uncertainty_random_bound", worst(np.concatenate(residuals)), context={
        "n_states": N_BOUND_STATES, "min_product": float(np.min(np.concatenate(products))),
        "bound": target})

    hermites = [1, 2, 3]
    hermite_reports = [
        saturation_check(oscillator_eigenstate(grid, k), x_op, p_op, (k + 0.5) * cfg.hbar,
                         check_id="uncertainty_hermite_product")
        for k in hermites
    ]
    r_hermite = _fold("uncertainty_hermite_product", hermite_reports,
                      extra={"levels": hermites,
                             "products": [r.context["product"] for r in hermite_reports]})

    n3, half3 = _GRID_3D
    grid3 = make_uniform_grid(3, n3, half3, cfg.hbar)
    # each 64^3 state is built right before its check, so only one is alive
    r_vec_bound = vector_uncertainty_check(gaussian_3d(grid3, sigmas=(1.0, 1.25, 0.8)), "bound")
    r_vec_sat = vector_uncertainty_check(gaussian_3d(grid3, sigmas=(1.0, 1.0, 1.0)), "saturation")
    return [r_gauss, r_random, r_hermite, r_vec_bound, r_vec_sat]


def _ladder_checks(cfg: SuiteConfig) -> list[CheckReport]:
    omegas = sorted({0.5, 1.0, 3.0, cfg.omega})
    hbars = sorted({0.5, 1.0, cfg.hbar})
    algebra_reports = []
    ht_reports = []
    for omega in omegas:
        for hbar in hbars:
            system = build(cfg.n_trunc, omega, hbar)
            algebra_reports.append(check_ladder_algebra(system))
            ht_reports.append(ht_commutator_residual(system))
    sweep = {"omegas": omegas, "hbars": hbars, "n_trunc": cfg.n_trunc}
    r_algebra = _fold("ladder_algebra", algebra_reports, extra={
        **sweep, "corner_entries": [r.context["corner_entry"] for r in algebra_reports]})
    r_ht = _fold("ladder_ht_commutator", ht_reports, extra={
        **sweep, "corner_defects": [r.context["corner_defect"] for r in ht_reports]})

    r_overlap = eigenstate_overlap_check(build(cfg.n_trunc, cfg.omega, cfg.hbar))
    r_scaling = scaling_exact_check(cfg.n_trunc, cfg.hbar)
    return [r_algebra, r_ht, r_overlap, r_scaling]


_BUILDERS = {
    "fourier": _fourier_checks,
    "poisson": _poisson_checks,
    "kk": _kk_checks,
    "weyl": _weyl_checks,
    "uncertainty": _uncertainty_checks,
    "ladder": _ladder_checks,
}

SUITE_NAMES = tuple(_BUILDERS) + ("all",)


def _float_error(exc: ArithmeticError) -> str:
    """The operation that left the float range. numpy's message names its
    ufunc; Python's float errors name none, so the function whose frame
    raised one (the innermost of its traceback) is named instead."""
    if isinstance(exc, FloatingPointError):
        return str(exc)
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    what = "float overflow" if isinstance(exc, OverflowError) else str(exc)
    return f"{what} in {tb.tb_frame.f_code.co_name}"


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """The selected suites' reports, sorted by check id, each held to its
    tolerance in `config`. An overflow, invalid operation or division by
    zero in a suite, numpy's or Python's, means the config left the float
    range: one ConfigurationError naming the suite and the operation.
    Underflow stays silent, since Gaussian tails underflow by design."""
    names = tuple(_BUILDERS) if config.suite == "all" else (config.suite,)
    reports: list[CheckReport] = []
    for name in names:
        try:
            with np.errstate(all="raise", under="ignore"):
                reports.extend(_BUILDERS[name](config))
        except ArithmeticError as exc:
            raise ConfigurationError(
                f"{name}: {_float_error(exc)}; the configuration leaves the float range") from exc
    return sorted((CheckReport(r.check_id, r.paper_ref, r.residual, config.tol(r.check_id),
                               r.valid, r.context) for r in reports),
                  key=lambda r: r.check_id)
