import numpy as np
import pytest

from dense_letters import dense_letters, dense_of_band, dense_realize, on_matrix, same_band_bits
from qpb.errors import ConfigurationError
from qpb.symbolic.matrices import _letter_bands, _word_band
from qpb.symbolic import (
    OperatorPoly,
    band_adjoint,
    band_product,
    commutator_poly,
    letter_matrices,
    matrix_realize,
    poly_of,
    protected_defect,
    protected_slice,
    random_operator_poly,
)

N = 32
EPS = np.finfo(np.float64).eps


def realized(p, n_trunc, hbar_value, omega=1.0):
    """matrix_realize's band scattered to its dense matrix."""
    return dense_of_band(matrix_realize(p, n_trunc, hbar_value, omega))


def realized_letters(n_trunc, hbar_value, omega=1.0):
    return {name: realized(OperatorPoly.letter(name), n_trunc, hbar_value, omega)
            for name in ("X", "P", "H", "T")}


def test_lowering_matrix_entries():
    # the "b" band: b[m-1, m] = sqrt(m) above the diagonal, zeros on and below
    # it, and a zero where the superdiagonal's row -1 lies off the matrix
    lo, diagonal, up = letter_matrices(5, 1.0)["b"]
    assert np.array_equal(up, np.sqrt([0.0, 1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(lo, np.zeros(5)) and np.array_equal(diagonal, np.zeros(5))


def test_lowering_matrix_needs_two_levels():
    with pytest.raises(ConfigurationError):
        letter_matrices(1, 1.0)


def test_letter_matrices_hermitian_and_scaled():
    bands = letter_matrices(N, hbar_value=0.7, omega=2.0)
    assert set(bands) == {"b", "X", "P", "H", "T"}
    for name in ("X", "P", "H", "T"):
        assert bands[name].shape == (3, N)
        # Hermitian: L[j+1, j] = conj(L[j, j+1])
        assert np.max(np.abs(band_adjoint(bands[name]) - bands[name])) < 1e-14
    # the energy letter groups its scalars so omega scaling is bitwise exact
    assert np.array_equal(letter_matrices(N, 0.7, omega=3.0)["H"],
                          3.0 * (letter_matrices(N, 0.7, omega=1.0)["H"]))


def test_canonical_commutator_defect_is_confined_to_corner():
    # [b, b+] = I except entry (N-1, N-1) where truncation puts -(N-1);
    # diagonal entries are sqrt(m+1)^2 - sqrt(m)^2, so rounding-level only
    b = dense_of_band(letter_matrices(N, 1.0)["b"])
    comm = b @ b.T - b.T @ b
    assert np.max(np.abs(np.diag(comm)[:-1] - 1.0)) < 1e-13
    assert comm[N - 1, N - 1] == pytest.approx(-(N - 1), rel=1e-14)
    off_diag = comm - np.diag(np.diag(comm))
    assert np.max(np.abs(off_diag)) == 0.0


def test_xp_commutator_on_protected_block():
    mats = realized_letters(N, hbar_value=0.5)
    comm = mats["X"] @ mats["P"] - mats["P"] @ mats["X"]
    s = protected_slice(N, 2)
    assert np.max(np.abs(comm[s, s] - 1j * 0.5 * np.eye(N)[s, s])) < 1e-14


def test_matrix_realize_returns_the_band():
    # band[k + s, j] = M[j - s, j] for the total degree k, zero off the matrix
    p = poly_of("X^2 + 3 P - i*hbar")
    band = matrix_realize(p, N, 0.7)
    dense, _ = dense_realize(p, N, 0.7)
    assert band.shape == (5, N)
    for s in range(-2, 3):
        cols = np.arange(max(s, 0), N + min(s, 0))
        assert np.max(np.abs(band[2 + s, cols] - dense[cols - s, cols])) < 1e-14
        assert not np.any(band[2 + s, np.setdiff1d(np.arange(N), cols)])
    assert matrix_realize(poly_of("i*hbar"), N, 0.25).shape == (1, N)


def test_matrix_realize_linear_in_coefficients():
    x2 = matrix_realize(poly_of("X^2"), N, 1.0)
    three_x2 = matrix_realize(poly_of("3 X^2"), N, 1.0)
    assert np.max(np.abs(three_x2 - 3.0 * x2)) < 1e-14
    ihbar = realized(poly_of("i*hbar"), N, 0.25)
    assert np.max(np.abs(ihbar - 0.25j * np.eye(N))) == 0.0


def test_matrix_realize_agrees_with_normal_form_on_protected_block():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_operator_poly(rng, max_degree=4, n_terms=3)
        direct = realized(a, N, 1.0)
        nf = realized(a.normal_form(), N, 1.0)
        s = protected_slice(N, max(a.total_degree(), 1))
        scale = 1.0 + float(np.max(np.abs(direct)))
        assert np.max(np.abs((direct - nf)[s, s])) / scale < 1e-12


def test_symbolic_commutator_matches_matrix_commutator():
    x, p = OperatorPoly.letter("X"), OperatorPoly.letter("P")
    a = x * x * p
    b = p * x
    m = dense_letters(N, 1.0)
    m_a = m["X"] @ m["X"] @ m["P"]
    m_b = m["P"] @ m["X"]
    direct = m_a @ m_b - m_b @ m_a
    symbolic = realized(commutator_poly(a, b), N, 1.0)
    s = protected_slice(N, 5)
    scale = 1.0 + float(np.max(np.abs(m_a @ m_b)))
    assert np.max(np.abs((symbolic - direct)[s, s])) / scale < 1e-13


def test_ht_register_realization():
    mats = realized_letters(N, hbar_value=1.0, omega=2.0)
    comm = mats["H"] @ mats["T"] - mats["T"] @ mats["H"]
    s = protected_slice(N, 2)
    assert np.max(np.abs(comm[s, s] - 1j * np.eye(N)[s, s])) < 1e-13


def test_protected_slice_validation():
    assert protected_slice(8, 3) == slice(0, 5)
    with pytest.raises(ConfigurationError):
        protected_slice(8, 8)
    with pytest.raises(ConfigurationError):
        protected_slice(8, 20)


@pytest.mark.parametrize("n_trunc", [9, 64, 96])
@pytest.mark.parametrize("register", ["XP", "HT"])
def test_matrix_realize_matches_dense_word_products(n_trunc, register):
    rng = np.random.default_rng(41)
    eps = np.finfo(np.float64).eps
    for _ in range(25):
        p = random_operator_poly(rng, max_degree=8, n_terms=4, register=register)
        ref, magnitude = dense_realize(p, n_trunc, 0.7, 1.5)
        got = realized(p, n_trunc, 0.7, omega=1.5)
        bound = 8 * max(p.total_degree(), 1) * eps * (1.0 + float(np.max(magnitude)))
        assert np.max(np.abs(got - ref)) <= bound


@pytest.mark.parametrize("register", ["XP", "HT"])
def test_realization_is_exact_unless_row_and_column_both_leave_the_protected_block(register):
    """Against a larger truncation, whose upper-left block holds the exact
    entries: the protected rows and the protected columns agree bit for bit,
    and every entry that differs has i + j >= 2 n_trunc - degree."""
    rng = np.random.default_rng(47)
    for n_trunc in (9, 16, 33):
        for _ in range(20):
            a = random_operator_poly(rng, max_degree=4, n_terms=3, register=register)
            b = random_operator_poly(rng, max_degree=4, n_terms=3, register=register)
            for p in (a, commutator_poly(a, b)):
                k = max(p.total_degree(), 1)
                if k >= n_trunc:
                    continue
                s = protected_slice(n_trunc, k)
                small = realized(p, n_trunc, 0.7, 1.5)
                exact = realized(p, n_trunc + 2 * k, 0.7, 1.5)[:n_trunc, :n_trunc]
                assert np.array_equal(small[s, :], exact[s, :])
                assert np.array_equal(small[:, s], exact[:, s])
                i, j = np.nonzero(small != exact)
                assert np.all(i + j >= 2 * n_trunc - k)


def test_letter_bands_follow_hbar_and_are_read_only():
    for hbar_value in (0.5, 2.0, 0.5):
        bands = _letter_bands(16, hbar_value, 1.0)
        for name, m in dense_letters(16, hbar_value, 1.0).items():
            assert same_band_bits(bands[name], m)
            assert not bands[name].flags.writeable
            with pytest.raises(ValueError):
                bands[name][2, 1] = 0.0


def per_word_band_realize(p, n_trunc, hbar_value, omega=1.0):
    """Each word multiplied out from the identity in a (2k+1)-row band, k the
    total degree, by two shifted slice updates per letter (its superdiagonal
    L[j-1, j] and subdiagonal L[j+1, j]), and weighted into the band total in
    term order: the loop the memoized word bands replaced, kept as a
    bit-level reference."""
    letters = _letter_bands(n_trunc, hbar_value, omega)
    k = p.total_degree()
    total = np.zeros((2 * k + 1, n_trunc), dtype=np.complex128)
    for word, coeff in p.terms():
        m = np.zeros_like(total)
        m[k] = 1.0
        for letter in word:
            up, lo = letters[letter][2, 1:], letters[letter][0, :-1]
            nxt = np.zeros_like(m)
            nxt[1:, 1:] = m[:-1, :-1] * up
            nxt[:-1, :-1] += m[1:, 1:] * lo
            m = nxt
        total += coeff.evaluate(hbar_value) * m
    return total


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
        mats = dense_letters(16, hbar_value, omega)
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


@pytest.mark.parametrize("n_trunc", [3, 9, 64])
@pytest.mark.parametrize("register", ["XP", "HT"])
def test_band_product_matches_the_dense_truncated_product(n_trunc, register):
    """Within the rounding bound of the dense product, and with every entry
    off the matrix exactly zero; n_trunc 3 has products wider than the
    matrix."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        a = random_operator_poly(rng, max_degree=4, n_terms=3, register=register)
        b = random_operator_poly(rng, max_degree=4, n_terms=3, register=register)
        m_a, m_b = matrix_realize(a, n_trunc, 0.7, 1.5), matrix_realize(b, n_trunc, 0.7, 1.5)
        got = band_product(m_a, m_b)
        assert got.shape == (2 * (len(m_a) // 2 + len(m_b) // 2) + 1, n_trunc)
        d_a, d_b = dense_of_band(m_a), dense_of_band(m_b)
        bound = 8 * n_trunc * EPS * (1.0 + np.abs(d_a) @ np.abs(d_b))
        assert np.all(np.abs(dense_of_band(got) - d_a @ d_b) <= bound)
        # the scatter drops entries off the matrix; the band holds zeros there
        assert np.count_nonzero(got) == np.count_nonzero(dense_of_band(got))


def test_protected_defect_is_the_dense_block_maximum():
    rng = np.random.default_rng(59)
    for n_trunc in (9, 33):
        for _ in range(20):
            a = random_operator_poly(rng, max_degree=4, n_terms=3)
            b = random_operator_poly(rng, max_degree=4, n_terms=3)
            x, y = matrix_realize(a, n_trunc, 1.0), matrix_realize(b, n_trunc, 1.0)
            degree = max(a.total_degree(), b.total_degree(), 1)
            s = protected_slice(n_trunc, degree)
            ref = float(np.max(np.abs(dense_of_band(x) - dense_of_band(y))[s, s]))
            assert protected_defect(x, y, degree) == ref
            assert protected_defect(y, x, degree) == ref


def test_protected_defect_sees_every_block_entry_and_nothing_else():
    n_trunc, degree = 12, 3
    keep = protected_slice(n_trunc, degree).stop
    zero = np.zeros((2 * degree + 1, n_trunc), dtype=np.complex128)
    for i in range(n_trunc):
        for j in range(max(i - degree, 0), min(i + degree, n_trunc - 1) + 1):
            x = zero.copy()
            x[degree + j - i, j] = np.nan
            got = protected_defect(x, zero, degree)
            assert np.isnan(got) if i < keep and j < keep else got == 0.0


@pytest.mark.parametrize("n_trunc", [1, 3, 9, 64])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_band_adjoint_is_the_dense_conjugate_transpose(n_trunc, k):
    """Raw bits against the scattered band's conjugate transpose, for bands
    as wide as the matrix and wider; a second adjoint gives the band back on
    every entry on the matrix."""
    rng = np.random.default_rng(61 + n_trunc + k)
    band = rng.normal(size=(2 * k + 1, n_trunc)) + 1j * rng.normal(size=(2 * k + 1, n_trunc))
    band[~on_matrix(band)] = 0.0
    band[k, 0] = complex(-0.0, 0.0)  # a signed zero on the diagonal keeps its bits
    got = band_adjoint(band)
    assert same_band_bits(got, dense_of_band(band).conj().T)
    on = on_matrix(band)
    assert band_adjoint(got)[on].tobytes() == band[on].tobytes()
