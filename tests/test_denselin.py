import numpy as np
import pytest

from freecert.denselin import (
    PartialBlockMatrix,
    complete_block,
    eig_floor,
    eigh,
    hermitian,
    pinv_psd,
    psd_floor,
)


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (A + A.conj().T)


def random_psd(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A @ A.conj().T


def test_eigh_examples():
    w, _ = eigh(np.eye(3))
    assert np.allclose(w, 1.0)
    w, _ = eigh(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    w, _ = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_eigh_residual_contract():
    rng = np.random.default_rng(51)
    for n in (2, 5, 12):
        M = random_hermitian(rng, n)
        w, U = eigh(M)
        norm = max(1.0, np.max(np.abs(w)))
        assert np.max(np.abs(M @ U - U * w)) <= 1e-10 * norm
        assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-12
        assert np.all(np.diff(w) >= 0)


def test_eigh_nonfinite_rejected():
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_psd_floor_example():
    assert psd_floor(np.array([[1.0, 2.0], [2.0, 1.0]])) == pytest.approx(-1.0)


def test_pinv_examples_and_cutoff():
    assert np.allclose(pinv_psd(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    # eigenvalues at or below max(EIG_CUTOFF * top, tol) count as zero
    assert np.allclose(pinv_psd(np.diag([1.0, 1e-9])), np.diag([1.0, 0.0]))
    assert np.allclose(pinv_psd(np.diag([1.0, 1e-9]), tol=1e-11),
                       np.diag([1.0, 1e9]))
    assert np.allclose(pinv_psd(np.diag([1e6, 1e-7]), tol=1e-11),
                       np.diag([1e-6, 0.0]))


def test_pinv_defining_identity():
    rng = np.random.default_rng(52)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        M = random_psd(rng, n)
        scale = max(1.0, np.max(np.abs(M)))
        P = pinv_psd(M)
        assert np.max(np.abs(M @ P @ M - M)) <= 1e-8 * scale


def test_pinv_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        pinv_psd(np.diag([1.0, -1.0]))
    # a negative eigenvalue within tol of the scale is forgiven
    assert np.allclose(pinv_psd(np.diag([1.0, -1e-9])), np.diag([1.0, 0.0]))


def test_hermitian_constructor():
    M = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
    H = hermitian(M)
    assert np.allclose(H, H.conj().T)
    with pytest.raises(ValueError):
        hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_complete_block_examples():
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    Z, full = complete_block(PartialBlockMatrix(one, zero, one, zero, one))
    assert np.allclose(Z, 0.0)
    assert np.allclose(full, np.eye(3))

    Z, full = complete_block(PartialBlockMatrix(one, one, one, one, one))
    assert np.allclose(Z, 1.0)
    assert np.allclose(full, np.ones((3, 3)))
    assert psd_floor(full) >= -1e-12

    half = np.array([[0.5]])
    Z, full = complete_block(PartialBlockMatrix(one, half, one, half, one))
    assert np.allclose(Z, 0.25)
    expected = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    assert np.allclose(full, expected)
    assert psd_floor(full) >= 0.0


def test_complete_block_diagonal_inputs_give_zero():
    rng = np.random.default_rng(53)
    A, B, C = (random_psd(rng, k) for k in (2, 3, 2))
    P = PartialBlockMatrix(A, np.zeros((2, 3)), B, np.zeros((3, 2)), C)
    Z, full = complete_block(P)
    assert np.allclose(Z, 0.0)
    assert psd_floor(full) >= -1e-7 * P.scale()


def test_complete_block_random_compressions():
    # compress a random PSD matrix to the 3-block pattern, so a positive
    # completion is guaranteed to exist
    rng = np.random.default_rng(54)
    for _ in range(500):
        n0, n1, n2 = (int(rng.integers(0, 7)) for _ in range(3))
        n = n0 + n1 + n2
        if n == 0:
            continue
        M = random_psd(rng, n)
        lam = float(np.max(np.linalg.eigvalsh(M))) if n else 1.0
        A = M[:n0, :n0]
        X = M[:n0, n0:n0 + n1]
        B = M[n0:n0 + n1, n0:n0 + n1]
        Y = M[n0:n0 + n1, n0 + n1:]
        C = M[n0 + n1:, n0 + n1:]
        Z, full = complete_block(PartialBlockMatrix(A, X, B, Y, C))
        assert psd_floor(full) >= -1e-7 * max(lam, 1.0)


def test_complete_block_empty_middle():
    one = np.array([[1.0]])
    P = PartialBlockMatrix(one, np.zeros((1, 0)), np.zeros((0, 0)),
                           np.zeros((0, 1)), one)
    Z, full = complete_block(P)
    assert Z.shape == (1, 1)
    assert np.allclose(Z, 0.0)
    assert np.allclose(full, np.eye(2))


def test_complete_block_rejects_bad_compression():
    one = np.array([[1.0]])
    two = np.array([[2.0]])
    zero = np.array([[0.0]])
    with pytest.raises(ValueError, match="^upper compression is not PSD"):
        complete_block(PartialBlockMatrix(one, two, one, one, one))
    with pytest.raises(ValueError, match="^lower compression is not PSD"):
        complete_block(PartialBlockMatrix(one, zero, one, two, one))


@pytest.mark.parametrize("block", [0, 1, 2])
def test_partial_block_matrix_checks_each_diagonal_block(block):
    # the message of hermitian's own check, for A, B and C alike
    diag = [np.eye(1, dtype=complex) for _ in range(3)]
    diag[block] += 1e-3j
    with pytest.raises(ValueError, match="^matrix is not hermitian"):
        PartialBlockMatrix(diag[0], np.zeros((1, 1)), diag[1],
                           np.zeros((1, 1)), diag[2])
    with pytest.raises(ValueError, match="^matrix is not hermitian"):
        hermitian(diag[block])


def _complete_block_by_np_block(P):
    # complete_block as it was assembled with np.block
    upper = np.block([[P.A, P.X], [P.X.conj().T, P.B]])
    lower = np.block([[P.B, P.Y], [P.Y.conj().T, P.C]])
    if P.B.size == 0:
        Z = np.zeros((P.A.shape[0], P.C.shape[0]), dtype=complex)
    else:
        Z = P.X @ pinv_psd(P.B, tol=1e-8 * P.scale()) @ P.Y
    full = np.block([[P.A, P.X, Z],
                     [P.X.conj().T, P.B, P.Y],
                     [Z.conj().T, P.Y.conj().T, P.C]])
    return upper, lower, Z, 0.5 * (full + full.conj().T)


def test_complete_block_matches_np_block(monkeypatch):
    # slice assignment copies the same entries: the same bits, for every
    # block size down to empty, and the same compressions are checked (by
    # complete_block's eigenvalue-only floor, empty ones included)
    import freecert.denselin as denselin

    checked = []

    def floor(M):
        checked.append(np.array(M))
        return eig_floor(M)

    monkeypatch.setattr(denselin, "eig_floor", floor)
    rng = np.random.default_rng(55)
    for n0, n1, n2 in [(0, 0, 1), (1, 0, 0), (0, 2, 0), (2, 0, 3),
                       (0, 1, 2), (3, 2, 0), (1, 1, 1), (2, 3, 4)]:
        M = random_psd(rng, n0 + n1 + n2)
        m1 = n0 + n1
        P = PartialBlockMatrix(M[:n0, :n0], M[:n0, n0:m1], M[n0:m1, n0:m1],
                               M[n0:m1, m1:], M[m1:, m1:])
        checked.clear()
        Z, full = complete_block(P)
        upper, lower, Z0, full0 = _complete_block_by_np_block(P)
        assert Z.tobytes() == Z0.tobytes() and Z.shape == Z0.shape
        assert full.tobytes() == full0.tobytes() and full.shape == full0.shape
        assert len(checked) == 2
        for got, want in zip(checked, (upper, lower)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
