import tracemalloc

import numpy as np
import pytest

import dense_ladder
import qpb.ladder
from dense_letters import dense_letters, dense_of_band, same_band_bits
from qpb.errors import ConfigurationError
from qpb.ladder import (
    M_MAX,
    LadderSystem,
    build,
    check_ladder_algebra,
    eigenstate_overlap_check,
    ht_commutator_residual,
    scaling_exact_check,
)

N = 64
# the (hbar, omega) pairs the band and dense forms are compared at
PAIRS = ((1.0, 1.0), (0.3, 2.0), (1e-3, 0.25), (1e5, 7.5))


def _with(system, **fields):
    """A LadderSystem constructed from `system`'s fields, with `fields` in
    place of the named ones."""
    return LadderSystem(**{"n_trunc": system.n_trunc, "omega": system.omega,
                           "hbar": system.hbar, "lowering": system.lowering,
                           "energy": system.energy, "time": system.time,
                           "number": system.number, **fields})


def test_build_shapes_and_hermiticity():
    system = build(N, omega=2.0, hbar=0.5)
    for band in (system.lowering, system.energy, system.time):
        assert band.shape == (3, N)
    assert system.number.shape == (1, N)
    energy, time = dense_of_band(system.energy), dense_of_band(system.time)
    assert np.max(np.abs(energy - energy.conj().T)) == 0.0
    assert np.max(np.abs(time - time.conj().T)) < 1e-15
    assert system.omega == 2.0 and system.hbar == 0.5


@pytest.mark.parametrize("n_trunc", [4, 9, 64, 257])
def test_build_is_bit_equal_to_the_dense_letters(n_trunc):
    for hbar, omega in PAIRS:
        system = build(n_trunc, omega, hbar)
        letters = dense_letters(n_trunc, hbar, omega)
        for field, name in (("lowering", "b"), ("energy", "H"), ("time", "T")):
            # raw bits, so even the signs of zeros agree
            assert same_band_bits(getattr(system, field), letters[name]), (field, hbar, omega)
        b = letters["b"]
        number = b.conj().T @ b + 0.5 * np.eye(n_trunc, dtype=np.complex128)
        assert same_band_bits(system.number, number), (hbar, omega)


def test_build_arrays_frozen():
    system = build(16)
    with pytest.raises(ValueError):
        system.energy[0, 0] = 1.0
    # an outside caller's arrays are copied, and frozen
    lowering = np.array(system.lowering)
    mine = _with(system, lowering=lowering)
    assert not np.shares_memory(mine.lowering, lowering) and lowering.flags.writeable
    assert not mine.lowering.flags.writeable


def test_fields_of_the_wrong_shape_name_the_field():
    """A dense matrix, a band of another truncation or width, or a two-row
    band of the first off-diagonals alone ends in a configuration error that
    names the field, before any check runs."""
    system = build(8)
    for name, bad in (("energy", dense_of_band(system.energy)), ("time", system.time[:, :-1]),
                      ("lowering", system.lowering[0]), ("number", system.lowering),
                      ("energy", system.energy[::2, 1:]), ("number", system.number[0])):
        with pytest.raises(ConfigurationError, match=f"LadderSystem.{name} "):
            _with(system, **{name: bad})
    with pytest.raises(ConfigurationError, match="LadderSystem.lowering "):
        _with(system, n_trunc=9)


def test_band_checks_allocate_no_dense_matrix():
    """build and the three band checks keep O(n_trunc) arrays: at 2048 one
    dense complex matrix is 64 MiB, and all of them together peak below 4 MiB."""
    build(2048)
    tracemalloc.start()
    try:
        system = build(2048)
        check_ladder_algebra(system)
        ht_commutator_residual(system)
        scaling_exact_check(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n_trunc", [4, 9, 64, 257])
def test_band_residuals_match_the_dense_products(n_trunc):
    """Every product entry the algebra check forms has one nonzero term, so
    it keeps the dense bits. [H, T] sums two, in another order than BLAS;
    two such computations of a defect differ by at most 4 eps (|H||T| +
    |T||H|) / hbar (Higham, 2nd ed., §3.5)."""
    eps = np.finfo(np.float64).eps
    for hbar, omega in PAIRS:
        system = build(n_trunc, omega, hbar)
        report = check_ladder_algebra(system)
        assert (report.residual, report.context["corner_entry"]) == \
            dense_ladder.ladder_algebra(system), (hbar, omega)
        report = ht_commutator_residual(system)
        resid, corner, scale = dense_ladder.ht_commutator(system)
        assert abs(report.residual - resid) <= 4 * eps * scale, (hbar, omega)
        assert abs(report.context["corner_defect"] - corner) <= 4 * eps * scale, (hbar, omega)


def test_ladder_algebra_identities():
    report = check_ladder_algebra(build(N))
    assert report.passed
    assert report.residual < 1e-12
    # the corner defect of [b, b+] is recorded, not hidden
    assert report.context["corner_entry"] == pytest.approx(-(N - 1), rel=1e-14)


def test_number_operator_grades_ladder():
    # [K, b] = -b and [K, b+] = +b+ hold on the full truncated matrices
    system = build(32)
    K = dense_of_band(system.number)
    b = dense_of_band(system.lowering)
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
    # D = delta E_01 (superdiagonal entry 0) adds delta * (T_10 E_00 + T_12 E_02
    # - T_10 E_11) to [H, T]; at omega 1, |T_10| = 1/sqrt(2) and |T_12| = 1
    energy = np.array(system.energy)
    energy[2, 1] += 1e-9 * hbar
    report = ht_commutator_residual(_with(system, energy=energy))
    assert not report.passed
    assert report.residual == pytest.approx(1e-9, rel=1e-3)


def test_eigenstate_overlap_unitary_change_of_basis():
    report = eigenstate_overlap_check(build(N))
    assert report.passed
    assert report.residual < 1e-10


def test_eigenstate_overlap_rejects_states_beyond_the_protected_block():
    # the protected block of n_trunc states holds number states 0..n_trunc - 2
    with pytest.raises(ConfigurationError, match=f"m_max {M_MAX} outside the protected block"):
        eigenstate_overlap_check(build(M_MAX + 1))
    assert eigenstate_overlap_check(build(M_MAX + 2)).context["m_max"] == M_MAX


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


def _spoiled_build(spoil):
    """build with spoil(omega, energy, time) applied to writable copies of
    each system's H and T bands."""
    build = qpb.ladder.build

    def spoiled(n_trunc, omega, hbar):
        system = build(n_trunc, omega, hbar)
        energy, time = system.energy.copy(), system.time.copy()
        spoil(omega, energy, time)
        return _with(system, energy=energy, time=time)
    return spoiled


def _one_ulp_in_energy(omega, energy, time):
    # entry (0, 1) and its mirror (1, 0) at omega 2 only: H stays Hermitian,
    # and only the frequency covariance breaks
    if omega == 2.0:
        for row, col in ((2, 1), (0, 0)):
            entry = energy[row, col]
            energy[row, col] = complex(np.nextafter(entry.real, np.inf), entry.imag)


def _unmirrored_time(omega, energy, time):
    # T[1, 0] set to T[0, 1], not to its conjugate, at every omega: the
    # frequency covariance holds, and only the Hermiticity breaks
    time[0, 0] = time[2, 1]


@pytest.mark.parametrize("spoil", [_one_ulp_in_energy, _unmirrored_time])
def test_scaling_exact_fails_on_a_spoiled_letter(monkeypatch, spoil):
    monkeypatch.setattr(qpb.ladder, "build", _spoiled_build(spoil))
    report = scaling_exact_check(N, 1.0)
    assert report.residual == 1.0
    assert report.passed is False


def _energy_time_product(system, v):
    """Delta H * Delta T and <[H, T]> on the number-basis state v, normalized."""
    energy, time = dense_of_band(system.energy), dense_of_band(system.time)
    v = v / np.linalg.norm(v)
    spreads = []
    for op in (energy, time):
        w = op @ v
        mean = np.vdot(v, w).real
        spreads.append(np.sqrt(max(np.vdot(w, w).real - mean * mean, 0.0)))
    comm = energy @ (time @ v) - time @ (energy @ v)
    return spreads[0] * spreads[1], complex(np.vdot(v, comm))


def test_energy_time_product_exact_bound():
    # a state that leaves the last basis state empty never sees the corner,
    # so <[H, T]> = i hbar and Delta H Delta T >= hbar / 2 hold exactly
    system = build(N)
    v = np.zeros(N, dtype=complex)
    v[0] = 1.0
    v[1] = 1.0
    product, comm = _energy_time_product(system, v)
    assert comm == pytest.approx(1j, abs=1e-12)
    assert product >= 0.5 * abs(comm) - 1e-12


def test_energy_time_product_random_truncated_states():
    system = build(N)
    rng = np.random.default_rng(29)
    for _ in range(50):
        v = np.zeros(N, dtype=complex)
        head = rng.normal(size=N // 2) + 1j * rng.normal(size=N // 2)
        v[: N // 2] = head
        product, comm = _energy_time_product(system, v)
        assert product >= 0.5 * abs(comm) - 1e-8


def test_build_validates_parameters():
    with pytest.raises(ConfigurationError):
        build(3)
    with pytest.raises(ConfigurationError):
        build(N, omega=-1.0)
    with pytest.raises(ConfigurationError):
        build(N, hbar=0.0)


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
    number[0, index] += 1e-9
    report = check_ladder_algebra(_with(system, number=number))
    assert not report.passed


def test_ladder_algebra_nan_fails():
    # the NaN reaches the second and third relation, which Python's max dropped
    system = build(N)
    number = np.array(system.number)
    number[0, N // 2] = np.nan
    report = check_ladder_algebra(_with(system, number=number))
    assert np.isnan(report.residual)
    assert not report.passed


def test_eigenstate_overlap_nan_norm_defect_fails(monkeypatch):
    # number state 2 gets a NaN component on one eigenvector of each basis
    eigh = np.linalg.eigh

    def spoiled(block):
        values, vectors = eigh(block)
        vectors[2, 0] = np.nan
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", spoiled)
    report = eigenstate_overlap_check(build(N))
    assert np.isnan(report.residual)
    assert not report.passed
