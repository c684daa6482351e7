"""Dense hermitian linear algebra: eigendecomposition, PSD utilities, and the
three-block positive completion.

`pinv_psd` checks that its matrix is PSD, then inverts it by `pinv_cut`.
`pinv_cut` inverts from an eigendecomposition already made and counts
every eigenvalue at or below its cut as zero, negative ones included, so
it cannot fail: extendpt calls it on middle blocks whose floors the one
check of its output bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "adjoint",
    "hermitian",
    "eigh",
    "psd_floor",
    "eig_floor",
    "pinv_psd",
    "pinv_cut",
    "PartialBlockMatrix",
    "complete_block",
]

# how far M - M* (or a unit value's imaginary part) may reach, relative to
# 1 + max |M|, and still count as hermitian: rounding leaves a few ulps
HERMITIAN_TOL = 1e-12
# relative eigenvalue cutoff of the pseudo-inverse
EIG_CUTOFF = 1e-12
# relative eigenvalue cutoff for the rank of GNS Gram matrices
RANK_CUTOFF = 1e-10
# how far below zero, relative to the input's scale, the spectrum of an input
# matrix may reach and still count as PSD
PSD_INPUT_TOL = 1e-8


def adjoint(M: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of every matrix in a stack."""
    return np.swapaxes(M, -1, -2).conj()


def hermitian(M: np.ndarray,
              what: str = "matrix is not hermitian within tolerance"
              ) -> np.ndarray:
    """Symmetrize to (M + M*)/2 after checking that M is hermitian within
    HERMITIAN_TOL of its scale (raising ValueError(what) if not)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if M.size and np.abs(M - M.conj().T).max() > \
            HERMITIAN_TOL * (1.0 + float(np.abs(M).max())):
        raise ValueError(what)
    return 0.5 * (M + M.conj().T)


def eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = U diag(w) U* with w ascending, of the
    hermitian part of M or of each matrix in a stack of them."""
    M = np.asarray(M, dtype=complex)
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    w, U = np.linalg.eigh(0.5 * (M + adjoint(M)))
    return w, U


def psd_floor(M: np.ndarray) -> float:
    """Minimum eigenvalue of the hermitian part."""
    if np.asarray(M).size == 0:
        return 0.0
    w, _ = eigh(M)
    return float(w[0])


def eig_floor(M: np.ndarray) -> float:
    """psd_floor of an exactly hermitian M by an eigenvalue-only solve."""
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.eigvalsh(M)[0]) if M.size else 0.0


def pinv_psd(M: np.ndarray, tol: float = PSD_INPUT_TOL) -> np.ndarray:
    """Pseudo-inverse of a PSD matrix by pinv_cut; ValueError if an
    eigenvalue lies below -tol * (1 + the top one)."""
    w, U = eigh(M)
    if w.size and w[0] < -tol * (1.0 + max(float(w[-1]), 0.0)):
        raise ValueError(f"matrix is not PSD within tolerance (min eig {w[0]:g})")
    return pinv_cut(w, U, tol)


def pinv_cut(w: np.ndarray, U: np.ndarray, tol: float) -> np.ndarray:
    """U diag(1/w) U* over the ascending eigenvalues w above
    max(EIG_CUTOFF * top, tol) only: the others, negative ones included,
    count as zero, so a near-singular direction that the PSD check would
    forgive is never inverted."""
    top = float(w.max(initial=0.0))
    keep = w > max(EIG_CUTOFF * top, tol)
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (U * inv) @ U.conj().T


@dataclass(frozen=True)
class PartialBlockMatrix:
    """Three-block partial hermitian matrix with the corner block unspecified:

        [ A  X  ? ]
        [ X* B  Y ]
        [ ?* Y* C ]
    """

    A: np.ndarray
    X: np.ndarray
    B: np.ndarray
    Y: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = hermitian(self.A)
        B = hermitian(self.B)
        C = hermitian(self.C)
        X = np.asarray(self.X, dtype=complex)
        Y = np.asarray(self.Y, dtype=complex)
        n0, n1, n2 = A.shape[0], B.shape[0], C.shape[0]
        if X.shape != (n0, n1) or Y.shape != (n1, n2):
            raise ValueError("block dimensions are inconsistent")
        for name, val in (("A", A), ("X", X), ("B", B), ("Y", Y), ("C", C)):
            object.__setattr__(self, name, val)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.A.shape[0], self.B.shape[0], self.C.shape[0]

    def scale(self) -> float:
        mx = 0.0
        for blk in (self.A, self.X, self.B, self.Y, self.C):
            if blk.size:
                mx = max(mx, float(np.max(np.abs(blk))))
        return 1.0 + mx


def complete_block(P: PartialBlockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Fill the unspecified corner with Z = X B^+ Y and assemble the full
    hermitian matrix.

    Requires the two specified compressions [[A,X],[X*,B]] and [[B,Y],[Y*,C]]
    to be PSD within 1e-8 * scale (eigenvalue-only floors); the assembled
    matrix is then PSD within 1e-7 * scale.
    """
    n0, n1, n2 = P.sizes
    m1 = n0 + n1
    M = np.zeros((m1 + n2, m1 + n2), dtype=complex)
    M[:n0, :n0], M[n0:m1, n0:m1], M[m1:, m1:] = P.A, P.B, P.C
    M[:n0, n0:m1], M[n0:m1, :n0] = P.X, P.X.conj().T
    M[n0:m1, m1:], M[m1:, n0:m1] = P.Y, P.Y.conj().T
    tol = PSD_INPUT_TOL * P.scale()
    for name, comp in (("upper", M[:m1, :m1]), ("lower", M[n0:, n0:])):
        if eig_floor(comp) < -tol:
            raise ValueError(f"{name} compression is not PSD within tolerance")
    Z = P.X @ pinv_psd(P.B, tol=tol) @ P.Y
    M[:n0, m1:], M[m1:, :n0] = Z, Z.conj().T
    return Z, 0.5 * (M + M.conj().T)
