"""Named check suites over the verification toolkit.

Each suite builds deterministic scenarios (seeded where random), runs the
relevant identities, and returns CheckReport rows sorted by check id. Grid
defaults differ per suite; explicit sizes apply to every 1D check in the
selected suite. 3D checks keep fixed sizes for runtime predictability.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, ResourceBoundError
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

KNOWN_CHECK_IDS = frozenset(CHECKS)

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
# weyl's oracle evaluates commutators of two draws, each of hbar degree <= 1,
# whose normal ordering adds one hbar per contraction: at most one per pair
# of the 2 * ORACLE_TERM_DEGREE letters of a product
WEYL_HBAR_DEGREE = 2 + ORACLE_TERM_DEGREE
# so the oracle's entries grow as hbar^WEYL_HBAR_DEGREE n_trunc^ORACLE_TERM_DEGREE:
# each contraction trades two letters of size ~sqrt(hbar n_trunc) for one
# hbar. A draw's three terms, each coefficient of modulus <= 6.2 times at most
# hbar, give its matrix row sums below 3 * 6.2 * hbar * (2 hbar n_trunc)^2, so
# every entry of A B - B A stays below WEYL_ENTRY_FACTOR hbar^6 n_trunc^4 (the
# most seen over 43 seeds at n_trunc 64, 96 and 512 is 29). This bound
# also keeps HbarPoly.evaluate's Python float hbar ** 6 finite
WEYL_ENTRY_FACTOR = 2 * (3 * 6.2 * 4) ** 2
# A Python float power raises OverflowError where numpy returns inf, so each
# value a suite raises to a power p in Python floats must keep value ** p
# within the float range: (parameter, exponent p, suites, where it is raised)
_POWER_BOUNDS = (
    ("hbar", 2, ("kk",), "conjugate_gaussian_pair's hbar ** 2"),
    ("hbar", -2, ("kk",), "conjugate_gaussian_pair's division by hbar ** 2"),
    ("hbar", -1.5, ("fourier",),
     "transform_block's (spacing / sqrt(2 pi hbar)) ** 3 on a 3D grid"),
    ("half_extent", 2, ("fourier", "kk", "uncertainty"),
     "the state envelopes' (half_extent / 8) ** 2"),
)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    n_points: int | None = None
    half_extent: float | None = None
    hbar: float = 1.0
    n_trunc: int = 64
    omega: float = 1.0
    seed: int = 0
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigurationError(
                f"unknown suite {self.suite!r}; choose one of {', '.join(SUITE_NAMES)}")
        for name in ("hbar", "omega", "half_extent"):
            value = getattr(self, name)
            if value is not None and not (value > 0 and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        if self.n_trunc < 8:
            raise ConfigurationError("n_trunc below 8 leaves no protected block to check")
        if self.suite in ("weyl", "all") and self.n_trunc < WEYL_MIN_N_TRUNC:
            raise ConfigurationError(f"weyl needs n_trunc >= {WEYL_MIN_N_TRUNC} for its "
                                     f"products of two degree-{ORACLE_TERM_DEGREE} draws")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        log_max = math.log(sys.float_info.max)
        for name, power, suites, site in _POWER_BOUNDS:
            value = getattr(self, name)
            if value is None or self.suite not in suites + ("all",):
                continue
            if power * math.log(value) > log_max:
                side = "below" if power > 0 else "above"
                raise ConfigurationError(
                    f"{name} {value} is out of range for {self.suite}: {site} overflows; "
                    f"{name} must stay {side} about {sys.float_info.max ** (1.0 / power):.3g}")
        growth = (math.log(WEYL_ENTRY_FACTOR) + WEYL_HBAR_DEGREE * math.log(self.hbar)
                  + ORACLE_TERM_DEGREE * math.log(self.n_trunc))
        if self.suite in ("weyl", "all") and growth > log_max:
            limit = math.exp((log_max - growth) / WEYL_HBAR_DEGREE) * self.hbar
            raise ConfigurationError(
                f"hbar {self.hbar} is out of range for {self.suite} at n_trunc {self.n_trunc}: "
                f"the bound {WEYL_ENTRY_FACTOR:.3g} hbar^{WEYL_HBAR_DEGREE} "
                f"n_trunc^{ORACLE_TERM_DEGREE} on weyl_matrix_oracle's entries overflows; "
                f"at this n_trunc hbar must stay below about {limit:.3g}")
        budget = f"the {MEMORY_BUDGET_BYTES // 2**20} MiB memory budget"
        if self.n_trunc > MAX_N_TRUNC:
            raise ResourceBoundError(f"n_trunc {self.n_trunc} exceeds {MAX_N_TRUNC}, "
                                     f"the largest dense matrix within {budget}")
        if self.n_points is not None and self.n_points > MAX_N_POINTS:
            raise ResourceBoundError(f"n_points {self.n_points} exceeds {MAX_N_POINTS}, "
                                     f"the largest grid within {budget}")
        unknown = set(self.tolerances) - KNOWN_CHECK_IDS
        if unknown:
            raise ConfigurationError(
                f"tolerance overrides for unknown checks: {', '.join(sorted(unknown))}")
        for key, value in self.tolerances.items():
            if not (value >= 0 and math.isfinite(value)):
                raise ConfigurationError(
                    f"tolerance for {key} must be nonnegative and finite, got {value}")

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


def _fold(check_id: str, reports: list[CheckReport], tolerance: float,
          extra: dict | None = None) -> CheckReport:
    """Aggregate per-case reports for one check: worst residual wins (a NaN in
    any case makes it NaN, so the fold fails), and one invalid case makes the
    fold invalid, so it fails at any tolerance."""
    context = {"n_cases": len(reports)}
    if extra:
        context.update(extra)
    return make_report(check_id, worst([r.residual for r in reports]), tolerance,
                       context=context, valid=all(r.valid for r in reports))


def _exact(check_id: str, ok: bool, tolerance: float,
           context: dict | None = None) -> CheckReport:
    return make_report(check_id, 0.0 if ok else 1.0, tolerance, context=context)


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
    r_round = make_report(
        "fourier_round_trip", worst(np.concatenate(round_trip_defects)),
        cfg.tol("fourier_round_trip"),
        context={"n_states": N_TRANSFORM_STATES, "n_points": n, "half_extent": half})
    r_parseval = make_report(
        "fourier_parseval", worst(np.concatenate(parseval_residuals)),
        cfg.tol("fourier_parseval"), context={"n_cases": N_TRANSFORM_STATES})

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
    r_scaling = make_report(
        "fourier_hbar_scaling", scaling_defect, cfg.tol("fourier_hbar_scaling"),
        context={"n_points": n, "extent_factor": 2.0, "hbar_factor": 2.0,
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
    r_tensor = make_report(
        "fourier_tensor_factorization", float(np.max(np.abs(transformed.values - factored))),
        cfg.tol("fourier_tensor_factorization"),
        context={"n_points": 32, "half_extent": 8.0})
    return [r_round, r_parseval, r_scaling, r_tensor]


def _poisson_checks(cfg: SuiteConfig) -> list[CheckReport]:
    n, half = cfg.grid_1d("poisson")
    grid = make_uniform_grid(1, n, half, cfg.hbar)
    labels = ["gaussian"] + [f"hermite_{k}" for k in (1, 2, 3, 4)]
    states = [gaussian(grid, sigma=1.0)] + [oscillator_eigenstate(grid, k) for k in (1, 2, 3, 4)]
    spectral = [poisson_residual(s) for s in states]
    r_poisson = _fold("poisson_residual", spectral, cfg.tol("poisson_residual"),
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
        cfg.tol("poisson_fd_convergence"),
        context={"grid_sizes": [n, 2 * n, 4 * n], "residuals": resids,
                 "ratios": ratios, "required_ratio": FD_RATIO_FLOOR})

    images = [to_momentum(states[0]), to_momentum(states[1])]
    corollary = [corollary_residual_momentum(g) for g in images]
    r_corollary = _fold("corollary_residual_momentum", corollary,
                        cfg.tol("corollary_residual_momentum"),
                        extra={"states": ["gaussian image", "hermite_1 image"]})

    n3, half3 = _GRID_3D
    grid3 = make_uniform_grid(3, n3, half3, cfg.hbar)
    psi3 = gaussian_3d(grid3, sigmas=(1.0, 1.25, 0.8))
    matrix, pointwise = kronecker_commutators(psi3)
    matrix_defect = float(np.max(np.abs(matrix - np.eye(3))))
    r_tensor = make_report(
        "tensor_kronecker", worst([matrix_defect, pointwise]), cfg.tol("tensor_kronecker"),
        context={"n_points": n3, "half_extent": half3,
                 "matrix_defect": matrix_defect,
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
    r_oracle = make_report(
        "kk_oracle_agreement", worst(gaps), cfg.tol("kk_oracle_agreement"),
        context={"n_points": n, "half_extent": half,
                 "signals": ["pole a=0.5", "pole a=1", "pole a=2", "zero-mean packet"],
                 "gaps": gaps})

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
    r_refine = make_report(
        "kk_refinement_monotone", growth, cfg.tol("kk_refinement_monotone"),
        context={"scales": [1, 2, 4], "line_kernel_gaps": line_gaps})

    a_values = [0.5, 1.0, 2.0]
    pairs = [AnalyticSignal(grid, periodized_pole(grid, a), "lower") for a in a_values]
    right = [kk_residual(sig) for sig in pairs]
    r_kk = _fold("kk_residual", right, cfg.tol("kk_residual"),
                 extra={"family": "periodized pole, lower half-plane",
                        "a_values": a_values,
                        "residuals": [r.residual for r in right]})

    wrong = [kk_residual(AnalyticSignal(grid, sig.values, "upper")) for sig in pairs]
    wrong_resids = [r.residual for r in wrong]
    r_wrong = make_report(
        "kk_wrong_half_plane", worst([0.0] + [WRONG_PLANE_FLOOR - r for r in wrong_resids]),
        cfg.tol("kk_wrong_half_plane"),
        context={"wrong_declaration_residuals": wrong_resids,
                 "required_floor": WRONG_PLANE_FLOOR})

    psi_p, chi_closed = conjugate_gaussian_pair(grid, sigma=1.0, center=0.7, momentum=1.3)
    chi_transform = to_position(psi_p)
    rep = phase_equivalence(np.abs(chi_closed.values),
                            np.angle(chi_transform.values),
                            np.angle(chi_closed.values))
    r_phase = _fold("phase_equivalence", [rep], cfg.tol("phase_equivalence"),
                    extra={"window_points": rep.context["window_points"]})
    return [r_oracle, r_refine, r_kk, r_wrong, r_phase]


def _oracle_block_pairs(n_trunc: int, deg_a: int, deg_b: int) -> int:
    """Pairs per block of weyl_matrix_oracle's degree class (deg_a, deg_b):
    as many as keep the block's A, B, [A, B], N, A B, B A and A B - B A
    within BLOCK_SAMPLES entries, and at least one."""
    rows = 2 * (2 * deg_a + 1) + (2 * deg_b + 1) + 4 * (2 * (deg_a + deg_b) + 1)
    return max(1, BLOCK_SAMPLES // (rows * n_trunc))


def _oracle_polys(a, b):
    """The four polynomials weyl_matrix_oracle realizes for a pair, in order:
    a, b, [a, b] and a's normal form."""
    return a, b, commutator_poly(a, b), a.normal_form()


def _oracle_stacks(pairs: list, degrees: tuple[int, int], n_trunc: int,
                   hbar: float) -> tuple[np.ndarray, ...]:
    """Each pair's four realizations (_oracle_polys, realized in that order),
    stacked along a leading block axis at the class's half-widths deg a,
    deg b, deg a + deg b and deg a; a lower-degree [a, b] or normal form
    sits zero-padded in the middle rows. A block of one pair is its four 2D
    bands as realized, not copies."""
    if len(pairs) == 1:
        return tuple(matrix_realize(q, n_trunc, hbar) for q in _oracle_polys(*pairs[0]))
    deg_a, deg_b = degrees
    stacks = tuple(np.zeros((len(pairs), 2 * k + 1, n_trunc), dtype=np.complex128)
                   for k in (deg_a, deg_b, deg_a + deg_b, deg_a))
    for row, pair in enumerate(pairs):
        for stack, q in zip(stacks, _oracle_polys(*pair)):
            band = matrix_realize(q, n_trunc, hbar)
            pad = (stack.shape[1] - len(band)) // 2
            stack[row, pad:pad + len(band)] = band
    return stacks


def _oracle_blocks(rng: np.random.Generator, n_trunc: int):
    """weyl_matrix_oracle's draws, as (degree class, pairs) blocks in the
    order they fill; the classes' partial blocks follow the last draw."""
    queues: dict[tuple[int, int], list] = {}
    for _ in range(N_ORACLE_DRAWS):
        a = random_operator_poly(rng, max_degree=ORACLE_TERM_DEGREE, n_terms=3)
        b = random_operator_poly(rng, max_degree=ORACLE_TERM_DEGREE, n_terms=3)
        degrees = (a.total_degree(), b.total_degree())
        queues.setdefault(degrees, []).append((a, b))
        if len(queues[degrees]) == _oracle_block_pairs(n_trunc, *degrees):
            yield degrees, queues.pop(degrees)
    yield from queues.items()


def _weyl_checks(cfg: SuiteConfig) -> list[CheckReport]:
    i_hbar = poly_of("i*hbar")
    x, p = poly_of("X"), poly_of("P")

    ok_poisson = (commutator_poly(x, p) == i_hbar) and (poly_of("[X, P]") == i_hbar)
    r_poisson = _exact("weyl_poisson_exact", ok_poisson, cfg.tol("weyl_poisson_exact"))

    ok_sym = (
        poly_of("S{X P}") == poly_of("1/2 X P + 1/2 P X")
        and poly_of("S{X P}") == poly_of("X P - 1/2*i*hbar")
        and poly_of("S{X^2 P}") == poly_of("X^2 P - i*hbar X")
        and taylor_operator({(1, 1): 1}) == poly_of("S{X P}")
        and taylor_operator({(2, 0): 1, (0, 2): 1}) == poly_of("X^2 + P^2")
    )
    r_sym = _exact("weyl_sxp_normal_form", ok_sym, cfg.tol("weyl_sxp_normal_form"))

    c = commutator_poly(x, p)
    ok_central = (c == i_hbar
                  and commutator_poly(c, x).is_zero()
                  and commutator_poly(c, p).is_zero()
                  and commutator_poly(c, poly_of("S{X^2 P^2}")).is_zero())
    r_central = _exact("weyl_centrality", ok_central, cfg.tol("weyl_centrality"))

    ok_adjoint = True
    for total in range(0, 7):
        for n_x in range(total + 1):
            word = ("X",) * n_x + ("P",) * (total - n_x)
            s = weyl_symmetrize(word)
            ok_adjoint = ok_adjoint and (s.adjoint() == s)
    r_adjoint = _exact("weyl_adjoint_symmetry", ok_adjoint, cfg.tol("weyl_adjoint_symmetry"),
                       context={"max_degree": 6})

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_trunc
    # Each pair waits in the queue of its degree class (deg a, deg b), whose
    # bands all have one shape. A class's block is checked once it holds
    # _oracle_block_pairs pairs: the most whose A, B, [A, B], N, A B, B A and
    # A B - B A fit in BLOCK_SAMPLES entries, and at least one
    residuals = []
    for (deg_a, deg_b), pairs in _oracle_blocks(rng, n):
        m_a, m_b, symbolic, nf = _oracle_stacks(pairs, (deg_a, deg_b), n, cfg.hbar)
        ab = band_product(m_a, m_b)
        direct = ab - band_product(m_b, m_a)
        # commutator entries cancel to ~eps of the products' entries, so the
        # defensible scale is the product magnitude, not the block magnitude
        residuals += [
            worst(protected_defect(symbolic, direct, max(deg_a + deg_b, 1))
                  / (1.0 + np.max(np.abs(ab), axis=(-2, -1)))),
            worst(protected_defect(nf, m_a, max(deg_a, 1))
                  / (1.0 + np.max(np.abs(m_a), axis=(-2, -1)))),
        ]
        # the bands go now, the products when the next block's replace them,
        # as in a per-draw loop: freeing a whole block at once lets the heap
        # shrink and fault back in for the next (three times the minor
        # faults at n_trunc 1024)
        del m_a, m_b, symbolic, nf
    r_oracle = make_report(
        "weyl_matrix_oracle", worst(residuals), cfg.tol("weyl_matrix_oracle"),
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
        "S{H T} - 1/2 H T - 1/2 T H",
        "hbar^2 X^2",
    ]
    ok_parser = True
    for text in canonical:
        ast = parse_expression(text)
        ok_parser = ok_parser and print_expression(ast) == text
        ok_parser = ok_parser and parse_expression(print_expression(ast)) == ast
    ok_parser = ok_parser and poly_of("S{H T} - 1/2 H T - 1/2 T H").is_zero()
    r_parser = _exact("weyl_parser_round_trip", ok_parser, cfg.tol("weyl_parser_round_trip"),
                      context={"n_cases": len(canonical)})
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
                    cfg.tol("uncertainty_gaussian_saturation"),
                    extra={"sigmas": sigmas, "target_product": target})

    rng = np.random.default_rng(cfg.seed)
    residuals, products = [], []
    for rows in _block_sizes(N_BOUND_STATES, grid):
        data = pair_moments_block(random_band_limited(grid, rng, n_states=rows), grid, x_op, p_op)
        residuals.append(np.maximum(0.0, data["half_commutator_magnitude"] - data["product"]))
        products.append(data["product"])
    r_random = make_report(
        "uncertainty_random_bound", worst(np.concatenate(residuals)),
        cfg.tol("uncertainty_random_bound"),
        context={"n_states": N_BOUND_STATES, "min_product": float(np.min(np.concatenate(products))),
                 "bound": target})

    hermites = [1, 2, 3]
    hermite_reports = [
        saturation_check(oscillator_eigenstate(grid, k), x_op, p_op, (k + 0.5) * cfg.hbar,
                         check_id="uncertainty_hermite_product")
        for k in hermites
    ]
    r_hermite = _fold("uncertainty_hermite_product", hermite_reports,
                      cfg.tol("uncertainty_hermite_product"),
                      extra={"levels": hermites,
                             "products": [r.context["product"] for r in hermite_reports]})

    n3, half3 = _GRID_3D
    grid3 = make_uniform_grid(3, n3, half3, cfg.hbar)
    # each 64^3 state is built right before its check, so only one is alive
    r_vec_bound = vector_uncertainty_check(
        gaussian_3d(grid3, sigmas=(1.0, 1.25, 0.8)), mode="bound",
        tolerance=cfg.tol("uncertainty_vector_bound"))
    r_vec_sat = vector_uncertainty_check(
        gaussian_3d(grid3, sigmas=(1.0, 1.0, 1.0)), mode="saturation",
        tolerance=cfg.tol("uncertainty_vector_saturation"))
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
    r_algebra = _fold("ladder_algebra", algebra_reports, cfg.tol("ladder_algebra"), extra={
        **sweep, "corner_entries": [r.context["corner_entry"] for r in algebra_reports]})
    r_ht = _fold("ladder_ht_commutator", ht_reports, cfg.tol("ladder_ht_commutator"), extra={
        **sweep, "corner_defects": [r.context["corner_defect"] for r in ht_reports]})

    r_overlap = eigenstate_overlap_check(build(cfg.n_trunc, cfg.omega, cfg.hbar), m_max=4)
    r_scaling = scaling_exact_check(cfg.n_trunc, cfg.hbar)
    return [r_algebra, r_ht] + [replace(r, tolerance=cfg.tol(r.check_id))
                                for r in (r_overlap, r_scaling)]


_BUILDERS = {
    "fourier": _fourier_checks,
    "poisson": _poisson_checks,
    "kk": _kk_checks,
    "weyl": _weyl_checks,
    "uncertainty": _uncertainty_checks,
    "ladder": _ladder_checks,
}

SUITE_NAMES = tuple(_BUILDERS) + ("all",)


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    builders = _BUILDERS.values() if config.suite == "all" else (_BUILDERS[config.suite],)
    reports: list[CheckReport] = []
    for builder in builders:
        reports.extend(builder(config))
    return sorted(reports, key=lambda r: r.check_id)
