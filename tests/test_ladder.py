import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dense_letters import dense_letters
from qpb import ladder
from qpb.errors import (
    ConfigurationError,
    DegenerateStateError,
    PreconditionError,
    ProtectedRangeError,
)
from qpb.ladder import (
    LadderSystem,
    build,
    check_ladder_algebra,
    eigenstate_overlap_check,
    eigenstate_representations,
    energy_time_product,
    ht_commutator_residual,
    scaling_exact_check,
)

N = 64


def test_build_shapes_and_hermiticity():
    system = build(N, omega=2.0, hbar=0.5)
    assert system.energy.shape == (N, N)
    assert np.max(np.abs(system.energy - system.energy.conj().T)) == 0.0
    assert np.max(np.abs(system.time - system.time.conj().T)) < 1e-15
    assert system.omega == 2.0 and system.hbar == 0.5


@pytest.mark.parametrize("n_trunc", [4, 9, 64, 257])
def test_build_is_bit_equal_to_the_dense_letters(n_trunc):
    for hbar, omega in ((1.0, 1.0), (0.3, 2.0), (1e-3, 0.25), (1e5, 7.5)):
        system = build(n_trunc, omega, hbar)
        dense = dense_letters(n_trunc, hbar, omega)
        for field, name in (("lowering", "b"), ("energy", "H"), ("time", "T")):
            got = getattr(system, field)
            # raw bits, so even the signs of zeros agree
            assert got.shape == dense[name].shape, (field, hbar, omega)
            assert got.tobytes() == dense[name].tobytes(), (field, hbar, omega)


def test_build_arrays_frozen():
    system = build(16)
    with pytest.raises(ValueError):
        system.energy[0, 0] = 1.0


def test_build_keeps_its_fresh_matrices_without_a_copy():
    """build hands its four fresh matrices over as they are; the product
    and the sum that form the number operator set the peak at five. Copying
    them doubled the four kept, a peak of eight."""
    build(512)
    tracemalloc.start()
    try:
        system = build(512)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = system.energy.nbytes
    assert kept < 4.1 * matrix and peak < 5.5 * matrix
    # an outside caller's arrays are still copied, and frozen
    lowering = np.array(system.lowering)
    mine = LadderSystem(n_trunc=512, omega=1.0, hbar=1.0, lowering=lowering,
                        energy=system.energy, time=system.time, number=system.number)
    assert not np.shares_memory(mine.lowering, lowering) and lowering.flags.writeable
    assert not mine.lowering.flags.writeable


def test_ladder_algebra_identities():
    report = check_ladder_algebra(build(N))
    assert report.passed
    assert report.residual < 1e-12
    # the corner defect of [b, b+] is recorded, not hidden
    assert report.context["corner_entry"] == pytest.approx(-(N - 1), rel=1e-14)


def test_number_operator_grades_ladder():
    # [K, b] = -b and [K, b+] = +b+ hold on the full truncated matrices
    system = build(32)
    K = system.number
    b = system.lowering
    bd = b.conj().T
    assert np.max(np.abs(K @ b - b @ K + b)) < 1e-13
    assert np.max(np.abs(K @ bd - bd @ K - bd)) < 1e-13


def test_ht_commutator_on_protected_block():
    for omega, hbar in ((1.0, 1.0), (3.0, 0.5), (0.25, 2.0)):
        report = ht_commutator_residual(build(N, omega, hbar))
        assert report.passed, (omega, hbar)
        assert report.residual < 1e-10


@pytest.mark.parametrize("hbar", [1.0, 1e5])
def test_ht_commutator_is_relative_to_hbar(hbar):
    # the absolute defect grows with hbar (3.35e-9 at 1e5); relative to it,
    # it stays at rounding level, while a defect of 1e-9 hbar still fails
    system = build(N, 1.0, hbar)
    report = ht_commutator_residual(system)
    assert report.passed and report.residual < 1e-13
    # D = delta E_11 adds delta * T_1j to row 1 of [H, T], and max |T_1j| = 1
    energy = np.array(system.energy)
    energy[1, 1] += 1e-9 * hbar
    report = ht_commutator_residual(replace(system, energy=energy))
    assert not report.passed
    assert report.residual == pytest.approx(1e-9, rel=1e-3)


def test_eigenstate_overlap_unitary_change_of_basis():
    report = eigenstate_overlap_check(build(N), m_max=4)
    assert report.passed
    assert report.residual < 1e-10


def test_eigenstate_representations_phase_fixed():
    system = build(N)
    rep = eigenstate_representations(system, 0)
    k = np.argmax(np.abs(rep.phi) > 1e-12)
    assert rep.phi[k].real > 0.0
    assert abs(rep.phi[k].imag) < 1e-12
    assert rep.energies.shape == (N - 1,)
    with pytest.raises(ProtectedRangeError):
        eigenstate_representations(system, N - 1)


def test_energy_time_pair_reconstructs_ladder_operator():
    # the defining relations invert to b = (H/(hbar omega) + i omega T)/sqrt(2)
    sys = build(16, omega=3.0, hbar=0.5)
    reconstructed = (sys.energy / (sys.hbar * sys.omega)
                     + 1j * sys.omega * sys.time) / np.sqrt(2.0)
    assert np.max(np.abs(reconstructed - sys.lowering)) < 1e-12


def test_omega_scaling_is_bitwise():
    report = scaling_exact_check(N, 1.0)
    assert report.passed
    assert report.residual == 0.0
    base = build(N, 1.0, 1.0)
    scaled = build(N, 3.0, 1.0)
    assert np.array_equal(scaled.energy, 3.0 * base.energy)
    assert np.array_equal(scaled.time, base.time / 3.0)


def test_energy_time_product_exact_bound():
    system = build(N)
    # ground plus first excited, last coefficient zero: moments are exact
    v = np.zeros(N, dtype=complex)
    v[0] = 1.0
    v[1] = 1.0
    out = energy_time_product(system, v)
    assert out["commutator_expectation"] == pytest.approx(1j, abs=1e-12)
    assert out["product"] >= out["bound"] - 1e-12


def test_energy_time_product_random_truncated_states():
    system = build(N)
    rng = np.random.default_rng(29)
    for _ in range(50):
        v = np.zeros(N, dtype=complex)
        head = rng.normal(size=N // 2) + 1j * rng.normal(size=N // 2)
        v[: N // 2] = head
        out = energy_time_product(system, v)
        assert out["product"] >= out["bound"] - 1e-8


def test_energy_time_product_guards():
    system = build(16)
    touching = np.ones(16, dtype=complex)
    with pytest.raises(PreconditionError):
        energy_time_product(system, touching)
    with pytest.raises(DegenerateStateError):
        energy_time_product(system, np.zeros(16, dtype=complex))
    with pytest.raises(ConfigurationError):
        energy_time_product(system, np.ones(8, dtype=complex))


def test_build_validates_parameters():
    with pytest.raises(ConfigurationError):
        build(3)
    with pytest.raises(ConfigurationError):
        build(N, omega=-1.0)
    with pytest.raises(ConfigurationError):
        build(N, hbar=0.0)


def _with_number(system, number):
    return LadderSystem(n_trunc=system.n_trunc, omega=system.omega, hbar=system.hbar,
                        lowering=system.lowering, energy=system.energy,
                        time=system.time, number=number)


@pytest.mark.parametrize("n_trunc", [192, 512])
def test_ladder_algebra_scale_aware_at_large_truncation(n_trunc):
    # the absolute residual grows like n_trunc^1.5 * eps (1.15e-12 at 192);
    # measured against 1 + |A||B| + |B||A| it stays at a few eps
    report = check_ladder_algebra(build(n_trunc))
    assert report.passed
    assert report.residual < 1e-15


@pytest.mark.parametrize("n_trunc,index", [(64, 0), (64, 63), (192, 0), (512, 0)])
def test_ladder_algebra_detects_a_small_defect_in_number(n_trunc, index):
    system = build(n_trunc)
    number = np.array(system.number)
    number[index, index] += 1e-9
    report = check_ladder_algebra(_with_number(system, number))
    assert not report.passed


def test_ladder_algebra_nan_fails():
    # the NaN reaches the second and third relation, which Python's max dropped
    system = build(N)
    number = np.array(system.number)
    number[N // 2, N // 2] = np.nan
    report = check_ladder_algebra(_with_number(system, number))
    assert np.isnan(report.residual)
    assert not report.passed


def test_eigenstate_overlap_nan_norm_defect_fails(monkeypatch):
    original = ladder._eigenbases

    def spoiled(system, m_max):
        u_t, u_h, reps = original(system, m_max)
        reps[2] = replace(reps[2], chi=reps[2].chi * np.nan)
        return u_t, u_h, reps

    monkeypatch.setattr(ladder, "_eigenbases", spoiled)
    report = eigenstate_overlap_check(build(N), m_max=4)
    assert np.isnan(report.residual)
    assert not report.passed
