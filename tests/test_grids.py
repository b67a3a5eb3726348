import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpb.errors import ConfigurationError, DegenerateStateError, IncompatibleOperandsError
from qpb.grids import (
    UniformGrid,
    WaveFunction,
    boundary_mass,
    inner_product,
    make_uniform_grid,
    normalize,
    slabs,
)


def test_axis_points_centered_and_half_open():
    grid = make_uniform_grid(1, 16, 4.0)
    pts = grid.axis_points()
    assert pts[0] == -4.0
    assert pts[-1] == 4.0 - grid.spacing
    assert pts[16 // 2] == 0.0
    assert np.allclose(np.diff(pts), grid.spacing)


@given(exp=st.integers(min_value=3, max_value=12), half=st.floats(min_value=0.5, max_value=100.0),
       hbar=st.floats(min_value=0.01, max_value=10.0))
def test_reciprocity_relation(exp, half, hbar):
    # dr * dp = 2 pi hbar / n ties the two conjugate grids together
    n = 2**exp
    grid = make_uniform_grid(1, n, half, hbar)
    dp = 2.0 * math.pi * hbar / (n * grid.spacing)
    assert math.isclose(grid.spacing * dp, 2.0 * math.pi * hbar / n, rel_tol=1e-14)


@pytest.mark.parametrize("bad", [0, 7, 12, 100, -16])
def test_rejects_non_power_of_two(bad):
    with pytest.raises(ConfigurationError):
        make_uniform_grid(1, bad, 4.0)


def test_rejects_bad_dim_and_extent():
    with pytest.raises(ConfigurationError):
        make_uniform_grid(2, 16, 4.0)
    with pytest.raises(ConfigurationError):
        make_uniform_grid(1, 16, -1.0)
    with pytest.raises(ConfigurationError):
        make_uniform_grid(1, 16, 4.0, hbar=0.0)


def test_coordinate_broadcast_shapes():
    grid = make_uniform_grid(3, 8, 2.0)
    assert grid.coordinate(0).shape == (8, 1, 1)
    assert grid.coordinate(2).shape == (1, 1, 8)
    with pytest.raises(ConfigurationError):
        grid.coordinate(3)


def test_wavefunction_values_frozen_and_copied():
    grid = make_uniform_grid(1, 8, 1.0)
    raw = np.ones(8, dtype=complex)
    psi = WaveFunction(grid=grid, representation="position", values=raw)
    raw[0] = 99.0
    assert psi.values[0] == 1.0
    with pytest.raises(ValueError):
        psi.values[0] = 0.0


def test_wavefunction_shape_and_representation_validation():
    grid = make_uniform_grid(1, 8, 1.0)
    with pytest.raises(ConfigurationError):
        WaveFunction(grid=grid, representation="position", values=np.ones(4))
    # the ladder's energy and time operators are matrices, never grid states
    for representation in ("wrong", "energy", "time"):
        with pytest.raises(ConfigurationError):
            WaveFunction(grid=grid, representation=representation, values=np.ones(8))


def test_inner_product_conjugate_symmetry():
    grid = make_uniform_grid(1, 32, 4.0)
    rng = np.random.default_rng(3)
    a = WaveFunction(grid=grid, representation="position",
                     values=rng.normal(size=32) + 1j * rng.normal(size=32))
    b = WaveFunction(grid=grid, representation="position",
                     values=rng.normal(size=32) + 1j * rng.normal(size=32))
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    assert inner_product(a, a).real == pytest.approx(a.norm() ** 2)


def test_inner_product_sesquilinear_in_second_slot():
    grid = make_uniform_grid(1, 32, 4.0)
    rng = np.random.default_rng(11)
    draw = lambda: rng.normal(size=32) + 1j * rng.normal(size=32)
    a_vals, b_vals, c_vals = draw(), draw(), draw()
    alpha = 0.7 - 1.3j
    a = WaveFunction(grid=grid, representation="position", values=a_vals)
    b = WaveFunction(grid=grid, representation="position", values=b_vals)
    c = WaveFunction(grid=grid, representation="position", values=c_vals)
    combo = WaveFunction(grid=grid, representation="position",
                         values=alpha * b_vals + c_vals)
    lhs = inner_product(a, combo)
    rhs = alpha * inner_product(a, b) + inner_product(a, c)
    assert abs(lhs - rhs) < 1e-12


def test_normalize_idempotent():
    grid = make_uniform_grid(1, 64, 8.0)
    rng = np.random.default_rng(12)
    psi = WaveFunction(grid=grid, representation="position",
                       values=rng.normal(size=64) + 1j * rng.normal(size=64))
    once = normalize(psi)
    twice = normalize(once)
    assert np.max(np.abs(twice.values - once.values)) < 1e-13


def test_inner_product_rejects_mismatched_operands():
    a = WaveFunction(grid=make_uniform_grid(1, 8, 1.0), representation="position",
                     values=np.ones(8))
    b = WaveFunction(grid=make_uniform_grid(1, 8, 2.0), representation="position",
                     values=np.ones(8))
    c = WaveFunction(grid=make_uniform_grid(1, 8, 1.0), representation="momentum",
                     values=np.ones(8))
    with pytest.raises(IncompatibleOperandsError):
        inner_product(a, b)
    with pytest.raises(IncompatibleOperandsError):
        inner_product(a, c)


def test_normalize_unit_norm_and_zero_state_rejected():
    grid = make_uniform_grid(1, 16, 2.0)
    psi = WaveFunction(grid=grid, representation="position", values=np.full(16, 2.0))
    assert normalize(psi).norm() == pytest.approx(1.0)
    zero = WaveFunction(grid=grid, representation="position", values=np.zeros(16))
    with pytest.raises(DegenerateStateError):
        normalize(zero)


def test_boundary_mass_localized_vs_edge():
    grid = make_uniform_grid(1, 64, 8.0)
    center = np.zeros(64)
    center[32] = 1.0
    edge = np.zeros(64)
    edge[0] = 1.0
    assert boundary_mass(WaveFunction(grid=grid, representation="position", values=center)) == 0.0
    assert boundary_mass(WaveFunction(grid=grid, representation="position", values=edge)) == 1.0


@pytest.mark.parametrize("n_points,whole,axis,width", [
    (64, (0,), 1, 4), (64, (1,), 0, 4), (64, (2,), 0, 4), (64, (0, 2), 1, 4),
    (32, (1,), 0, 16), (128, (2,), 0, 1), (64, (0, 1), 0, 64),
])
def test_slabs_tile_a_3d_grid_keeping_lines_and_rows_whole(n_points, whole, axis, width):
    grid = make_uniform_grid(3, n_points, 8.0)
    seen = np.zeros(grid.shape, dtype=np.int8)
    for index in slabs(grid, *whole):
        seen[index] += 1
        shape = seen[index].shape
        assert shape[axis] == width
        assert all(shape[a] == n_points for a in range(3) if a != axis)
    assert np.all(seen == 1)


def test_a_1d_grid_is_one_slab():
    assert list(slabs(make_uniform_grid(1, 65536, 8.0))) == [(slice(0, 65536),)]
