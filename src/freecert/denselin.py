"""Dense hermitian linear algebra: eigendecomposition, PSD utilities, and the
three-block positive completion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "hermitian",
    "eigh",
    "psd_floor",
    "eig_floor",
    "pinv_psd",
    "PartialBlockMatrix",
    "complete_block",
    "complete_gathered",
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


def hermitian(M: np.ndarray,
              what: str = "matrix is not hermitian within tolerance"
              ) -> np.ndarray:
    """Symmetrize to (M + M*)/2 after checking that M is hermitian within
    HERMITIAN_TOL of its scale (raising ValueError(what) if not)."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    _check_hermitian(M, np.abs(M - M.conj().T), what)
    return 0.5 * (M + M.conj().T)


def _check_hermitian(M: np.ndarray, dev: np.ndarray,
                     what: str = "matrix is not hermitian within tolerance"):
    """Raise ValueError(what) unless dev = |M - M*| stays within
    HERMITIAN_TOL of 1 + max |M|."""
    if M.size and dev.max() > HERMITIAN_TOL * (1.0 + float(np.abs(M).max())):
        raise ValueError(what)


def eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = U diag(w) U* with w ascending, of the
    hermitian part of M or of each matrix in a stack of them."""
    M = np.asarray(M, dtype=complex)
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    w, U = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2).conj()))
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
    """Pseudo-inverse of a PSD matrix; eigenvalues at or below
    max(EIG_CUTOFF * top, tol) count as zero, so a near-singular direction
    that the PSD check would forgive is never inverted."""
    w, U = eigh(M)
    if w.size == 0:
        return np.zeros_like(np.asarray(M, dtype=complex))
    top = float(w[-1])
    scale = 1.0 + max(top, 0.0)
    if w[0] < -tol * scale:
        raise ValueError(f"matrix is not PSD within tolerance (min eig {w[0]:g})")
    cut = max(EIG_CUTOFF * max(top, 0.0), tol)
    keep = w > cut
    vals = np.zeros_like(w)
    vals[keep] = 1.0 / w[keep]
    return (U * vals) @ U.conj().T


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
    hermitian matrix (by complete_gathered).

    Requires the two specified compressions [[A,X],[X*,B]] and [[B,Y],[Y*,C]]
    to be PSD within 1e-8 * scale; the assembled matrix is then PSD within
    1e-7 * scale.
    """
    n0, n1, n2 = P.sizes
    m1 = n0 + n1
    M = np.zeros((m1 + n2, m1 + n2), dtype=complex)
    M[:n0, :n0] = P.A
    M[:n0, n0:m1] = P.X
    M[n0:m1, n0:m1] = P.B
    M[n0:m1, m1:] = P.Y
    M[m1:, m1:] = P.C
    return complete_gathered(M, n0, n1)


def complete_gathered(M: np.ndarray, n0: int,
                      n1: int) -> tuple[np.ndarray, np.ndarray]:
    """complete_block on the blocks of M, gathered in the order (A, B, C) of
    sizes (n0, n1, rest), its two unknown corner blocks zero. Reads the
    diagonal blocks, X and Y, and overwrites the other blocks of M. The
    checks are those of PartialBlockMatrix and complete_block, in that
    order; the compressions' floors are eigenvalue-only."""
    m1 = n0 + n1
    X, Y = M[:n0, n0:m1], M[n0:m1, m1:]
    M[n0:m1, :n0] = X.conj().T
    M[m1:, n0:m1] = Y.conj().T
    dev = np.abs(M - M.conj().T)
    for b in (slice(0, n0), slice(n0, m1), slice(m1, None)):
        _check_hermitian(M[b, b], dev[b, b])
    H = 0.5 * (M + M.conj().T)
    scale = 1.0 + (float(np.max(np.abs(H))) if H.size else 0.0)
    for name, comp in (("upper", H[:m1, :m1]), ("lower", H[n0:, n0:])):
        if eig_floor(comp) < -PSD_INPUT_TOL * scale:
            raise ValueError(f"{name} compression is not PSD within tolerance")
    if n1 == 0:
        Z = np.zeros((n0, len(M) - m1), dtype=complex)
    else:
        Z = X @ pinv_psd(H[n0:m1, n0:m1], tol=PSD_INPUT_TOL * scale) @ Y
    M[:n0, m1:] = Z
    M[m1:, :n0] = Z.conj().T
    return Z, 0.5 * (M + M.conj().T)
