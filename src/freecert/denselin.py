"""Dense hermitian linear algebra: eigendecomposition, PSD utilities, and the
three-block positive completion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "hermitian",
    "eigh",
    "psd_floor",
    "pinv_psd",
    "PartialBlockMatrix",
    "complete_block",
]

# relative eigenvalue cutoff of the pseudo-inverse
EIG_CUTOFF = 1e-12
# relative eigenvalue cutoff for the rank of GNS Gram matrices
RANK_CUTOFF = 1e-10
# how far below zero, relative to the input's scale, the spectrum of an input
# matrix may reach and still count as PSD
PSD_INPUT_TOL = 1e-8


def hermitian(M: np.ndarray) -> np.ndarray:
    """Symmetrize to (M + M*)/2 after checking M is nearly hermitian."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if M.size:
        scale = 1.0 + float(np.max(np.abs(M)))
        if np.max(np.abs(M - M.conj().T)) > 1e-12 * scale:
            raise ValueError("matrix is not hermitian within tolerance")
    return 0.5 * (M + M.conj().T)


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
    vals = np.array([1.0 / x if x > cut else 0.0 for x in w])
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
    hermitian matrix.

    Requires the two specified compressions [[A,X],[X*,B]] and [[B,Y],[Y*,C]]
    to be PSD within 1e-8 * scale; the assembled matrix is then PSD within
    1e-7 * scale.
    """
    n0, n1, n2 = P.sizes
    scale = P.scale()
    # the blocks by slice assignment; the compressions are views of full
    m1 = n0 + n1
    full = np.empty((m1 + n2, m1 + n2), dtype=complex)
    full[:n0, :n0] = P.A
    full[:n0, n0:m1] = P.X
    full[n0:m1, :n0] = P.X.conj().T
    full[n0:m1, n0:m1] = P.B
    full[n0:m1, m1:] = P.Y
    full[m1:, n0:m1] = P.Y.conj().T
    full[m1:, m1:] = P.C
    upper, lower = full[:m1, :m1], full[n0:, n0:]
    for name, comp in (("upper", upper), ("lower", lower)):
        if comp.size and psd_floor(comp) < -PSD_INPUT_TOL * scale:
            raise ValueError(f"{name} compression is not PSD within tolerance")
    if n1 == 0:
        Z = np.zeros((n0, n2), dtype=complex)
    else:
        Z = P.X @ pinv_psd(P.B, tol=PSD_INPUT_TOL * scale) @ P.Y
    full[:n0, m1:] = Z
    full[m1:, :n0] = Z.conj().T
    return Z, 0.5 * (full + full.conj().T)
