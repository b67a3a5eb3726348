"""Scaling sweep: how the hot layer calls grow with problem size.

`python bench/sweep.py` (with qpb importable) times each call directly, best
of a few repeats, and prints one JSON object: the raw times and, per call,
the least-squares slope of log(time) against log(size) (`exponent`) or the
geometric growth per unit of word degree (`growth_per_degree`).
"""

import json
import math
import time

import numpy as np

from qpb import WaveFunction, make_uniform_grid, pole_family, pv_quadrature_all, to_momentum
from qpb.symbolic import OperatorPoly, matrix_realize, poly_of


def best_of(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def pv_time(n: int) -> float:
    # default kk spacing (128 / 4096) at every size
    grid = make_uniform_grid(1, n, n / 64.0)
    signal = pole_family(grid, 1.0).real
    return best_of(lambda: pv_quadrature_all(signal, grid), 2)


def realize_time(n_trunc: int) -> float:
    poly = poly_of("S{X^2 P^2} + X P X P")
    return best_of(lambda: matrix_realize(poly, n_trunc, 1.0), 3)


def normal_form_time(k: int) -> float:
    word = OperatorPoly.monomial(("P",) * k + ("X",) * k)
    return best_of(word.normal_form, 1 if k >= 6 else 3)


def transform_time(n: int) -> float:
    grid = make_uniform_grid(1, n, 8.0)
    values = np.random.default_rng(0).normal(size=n) + 0j
    psi = WaveFunction(grid=grid, representation="position", values=values)
    return best_of(lambda: to_momentum(psi), 5)


def exponent(sizes, times) -> float:
    return slope([math.log(n) for n in sizes], [math.log(t) for t in times])


def main() -> None:
    pv_n = [1024, 2048, 4096, 8192]
    trunc_n = [64, 128, 256]
    degrees = [3, 4, 5, 6]
    fft_n = [2**k for k in range(12, 19)]
    pv = [pv_time(n) for n in pv_n]
    realize = [realize_time(n) for n in trunc_n]
    nf = [normal_form_time(k) for k in degrees]
    fft = [transform_time(n) for n in fft_n]
    print(json.dumps({
        "sweep.kk.pv_quadrature_all.exponent": exponent(pv_n, pv),
        "sweep.symbolic.matrices.matrix_realize.exponent": exponent(trunc_n, realize),
        "sweep.symbolic.poly.normal_form.growth_per_degree":
            math.exp(slope(degrees, [math.log(t) for t in nf])),
        "sweep.transforms.to_momentum.exponent": exponent(fft_n, fft),
        "raw": {"kk.pv_quadrature_all": dict(zip(pv_n, pv)),
                "symbolic.matrices.matrix_realize": dict(zip(trunc_n, realize)),
                "symbolic.poly.normal_form": dict(zip(degrees, nf)),
                "transforms.to_momentum": dict(zip(fft_n, fft))},
    }))


if __name__ == "__main__":
    main()
