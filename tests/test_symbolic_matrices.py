import numpy as np
import pytest

from qpb.errors import ConfigurationError
from qpb.symbolic.matrices import _letter_bands, _word_band
from qpb.symbolic import (
    OperatorPoly,
    commutator_poly,
    letter_matrices,
    lowering_matrix,
    matrix_realize,
    poly_of,
    protected_slice,
    random_operator_poly,
)

N = 32


def test_lowering_matrix_entries():
    b = lowering_matrix(5)
    expected = np.zeros((5, 5))
    for m in range(1, 5):
        expected[m - 1, m] = np.sqrt(m)
    assert np.array_equal(b, expected)


def test_lowering_matrix_needs_two_levels():
    with pytest.raises(ConfigurationError):
        lowering_matrix(1)


def test_letter_matrices_hermitian_and_scaled():
    mats = letter_matrices(N, hbar_value=0.7, omega=2.0)
    for name in ("X", "P", "H", "T"):
        m = mats[name]
        assert m.shape == (N, N)
        assert np.max(np.abs(m - m.conj().T)) < 1e-14
    # the energy letter groups its scalars so omega scaling is bitwise exact
    assert np.array_equal(letter_matrices(N, 0.7, omega=3.0)["H"],
                          3.0 * (letter_matrices(N, 0.7, omega=1.0)["H"]))


def test_canonical_commutator_defect_is_confined_to_corner():
    # [b, b+] = I except entry (N-1, N-1) where truncation puts -(N-1);
    # diagonal entries are sqrt(m+1)^2 - sqrt(m)^2, so rounding-level only
    b = lowering_matrix(N)
    comm = b @ b.T - b.T @ b
    assert np.max(np.abs(np.diag(comm)[:-1] - 1.0)) < 1e-13
    assert comm[N - 1, N - 1] == pytest.approx(-(N - 1), rel=1e-14)
    off_diag = comm - np.diag(np.diag(comm))
    assert np.max(np.abs(off_diag)) == 0.0


def test_xp_commutator_on_protected_block():
    mats = letter_matrices(N, hbar_value=0.5)
    comm = mats["X"] @ mats["P"] - mats["P"] @ mats["X"]
    s = protected_slice(N, 2)
    assert np.max(np.abs(comm[s, s] - 1j * 0.5 * np.eye(N)[s, s])) < 1e-14


def test_matrix_realize_linear_in_coefficients():
    x2 = matrix_realize(poly_of("X^2"), N, 1.0)
    three_x2 = matrix_realize(poly_of("3 X^2"), N, 1.0)
    assert np.max(np.abs(three_x2 - 3.0 * x2)) < 1e-14
    ihbar = matrix_realize(poly_of("i*hbar"), N, 0.25)
    assert np.max(np.abs(ihbar - 0.25j * np.eye(N))) == 0.0


def test_matrix_realize_agrees_with_normal_form_on_protected_block():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_operator_poly(rng, max_degree=4, n_terms=3)
        direct = matrix_realize(a, N, 1.0)
        nf = matrix_realize(a.normal_form(), N, 1.0)
        s = protected_slice(N, max(a.total_degree(), 1))
        scale = 1.0 + float(np.max(np.abs(direct)))
        assert np.max(np.abs((direct - nf)[s, s])) / scale < 1e-12


def test_symbolic_commutator_matches_matrix_commutator():
    x, p = OperatorPoly.letter("X"), OperatorPoly.letter("P")
    a = x * x * p
    b = p * x
    m = letter_matrices(N, 1.0)
    m_a = m["X"] @ m["X"] @ m["P"]
    m_b = m["P"] @ m["X"]
    direct = m_a @ m_b - m_b @ m_a
    symbolic = matrix_realize(commutator_poly(a, b), N, 1.0)
    s = protected_slice(N, 5)
    scale = 1.0 + float(np.max(np.abs(m_a @ m_b)))
    assert np.max(np.abs((symbolic - direct)[s, s])) / scale < 1e-13


def test_ht_register_realization():
    mats = letter_matrices(N, hbar_value=1.0, omega=2.0)
    comm = mats["H"] @ mats["T"] - mats["T"] @ mats["H"]
    s = protected_slice(N, 2)
    assert np.max(np.abs(comm[s, s] - 1j * np.eye(N)[s, s])) < 1e-13


def test_protected_slice_validation():
    assert protected_slice(8, 3) == slice(0, 5)
    with pytest.raises(ConfigurationError):
        protected_slice(8, 8)
    with pytest.raises(ConfigurationError):
        protected_slice(8, 20)


def dense_realize(p, n_trunc, hbar_value, omega):
    """Word products as chains of dense matmuls from the identity; also returns
    the entrywise sum of |coeff| |L1|...|Ld| that bounds their rounding."""
    letters = letter_matrices(n_trunc, hbar_value, omega)
    total = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    magnitude = np.zeros((n_trunc, n_trunc))
    for word, coeff in p.terms():
        m = np.eye(n_trunc, dtype=np.complex128)
        mag = np.eye(n_trunc)
        for letter in word:
            m = m @ letters[letter]
            mag = mag @ np.abs(letters[letter])
        c = coeff.evaluate(hbar_value)
        total += c * m
        magnitude += abs(c) * mag
    return total, magnitude


@pytest.mark.parametrize("n_trunc", [9, 64, 96])
@pytest.mark.parametrize("register", ["XP", "HT"])
def test_matrix_realize_matches_dense_word_products(n_trunc, register):
    rng = np.random.default_rng(41)
    eps = np.finfo(np.float64).eps
    for _ in range(25):
        p = random_operator_poly(rng, max_degree=8, n_terms=4, register=register)
        ref, magnitude = dense_realize(p, n_trunc, 0.7, 1.5)
        got = matrix_realize(p, n_trunc, 0.7, omega=1.5)
        bound = 8 * max(p.total_degree(), 1) * eps * (1.0 + float(np.max(magnitude)))
        assert np.max(np.abs(got - ref)) <= bound


def test_letter_bands_follow_hbar_and_are_read_only():
    for hbar_value in (0.5, 2.0, 0.5):
        bands = _letter_bands(16, hbar_value, 1.0)
        for name, m in letter_matrices(16, hbar_value, 1.0).items():
            up, lo = bands[name]
            assert np.array_equal(up, np.diagonal(m, 1))
            assert np.array_equal(lo, np.diagonal(m, -1))
            for arr in (up, lo):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0


def per_word_band_realize(p, n_trunc, hbar_value, omega=1.0):
    """Each word multiplied out from the identity in a (2k+1)-row band, k the
    total degree, and weighted into the total in term order: the loop the
    memoized word bands replaced, kept as a bit-level reference."""
    letters = _letter_bands(n_trunc, hbar_value, omega)
    k = p.total_degree()
    total = np.zeros((2 * k + 1, n_trunc), dtype=np.complex128)
    for word, coeff in p.terms():
        m = np.zeros_like(total)
        m[k] = 1.0
        for letter in word:
            up, lo = letters[letter]
            nxt = np.zeros_like(m)
            nxt[1:, 1:] = m[:-1, :-1] * up
            nxt[:-1, :-1] += m[1:, 1:] * lo
            m = nxt
        total += coeff.evaluate(hbar_value) * m
    cols = np.arange(n_trunc)
    rows = cols - np.arange(-k, k + 1)[:, None]
    inside = (rows >= 0) & (rows < n_trunc)
    dense = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    dense[rows[inside], np.broadcast_to(cols, rows.shape)[inside]] = total[inside]
    return dense


@pytest.mark.parametrize("n_trunc", [9, 64, 96])
@pytest.mark.parametrize("register", ["XP", "HT"])
def test_matrix_realize_bit_equal_to_per_word_band_loop(n_trunc, register):
    rng = np.random.default_rng(43)
    for hbar_value, omega in ((1.0, 1.0), (0.3, 2.5)):
        for _ in range(25):
            a = random_operator_poly(rng, max_degree=4, n_terms=3, register=register)
            b = random_operator_poly(rng, max_degree=4, n_terms=3, register=register)
            for p in (a, commutator_poly(a, b), (a * b).normal_form()):
                got = matrix_realize(p, n_trunc, hbar_value, omega)
                ref = per_word_band_realize(p, n_trunc, hbar_value, omega)
                # raw bits, so even the signs of zeros agree
                assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_matrix_realize_cold_and_warm_calls_agree():
    p = poly_of("3 X P X - 1/2*i*hbar P^2 X + X^4")
    _word_band.cache_clear()
    cold = matrix_realize(p, N, 0.7)
    misses = _word_band.cache_info().misses
    warm = matrix_realize(p, N, 0.7)
    assert _word_band.cache_info().misses == misses
    assert np.array_equal(cold, warm)
    _word_band.cache_clear()


def test_word_bands_follow_hbar_and_omega_and_are_read_only():
    words = [(), ("X",), ("P", "X", "P"), ("X", "X", "P", "P"), ("H", "T", "T"), ("T", "H")]
    for hbar_value, omega in ((0.5, 1.0), (2.0, 3.0), (0.5, 1.0)):
        mats = letter_matrices(16, hbar_value, omega)
        for word in words:
            band = _word_band(word, 16, hbar_value, omega)
            dense = np.eye(16, dtype=np.complex128)
            for letter in word:
                dense = dense @ mats[letter]
            d = len(word)
            assert band.shape == (2 * d + 1, 16)
            for s in range(-d, d + 1):
                # band[d + s, j] = M[j - s, j], zero where j - s is off the matrix
                expected = np.zeros(16, dtype=np.complex128)
                diag = np.diagonal(dense, s)
                if s >= 0:
                    expected[s:] = diag
                else:
                    expected[:s] = diag
                assert np.allclose(band[d + s], expected, rtol=1e-13, atol=1e-13)
            assert not band.flags.writeable
            with pytest.raises(ValueError):
                band[0, 0] = 0.0
