"""Truncated GNS construction: Hilbert-space data and partial generator
actions from a positive-type function on a grounded set.

The space is spanned by the classes of the basis words t-hat for t in E, with
inner product <s-hat, t-hat> = g(t^-1 s). Left multiplication by a generator
letter is only defined on columns t with s_i t still in E; the definedness
mask keeps that truncation explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denselin import PSD_INPUT_TOL, RANK_CUTOFF
from .extendpt import PartialPositiveType
from .grounded import GroundedSet
from .words import Word, generator, multiply

__all__ = ["GnsData", "gns"]


@dataclass
class GnsData:
    E: GroundedSet
    gram: np.ndarray
    rank: int
    basis: np.ndarray            # |E| x r; columns orthonormal in the gram metric
    coords: np.ndarray           # r x |E|; column t = quotient coordinates of t-hat
    gens: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    # (generator, sign) -> (r x |E| matrix of images, boolean column mask)

    def vector(self, t: Word) -> np.ndarray:
        """Quotient coordinates of t-hat for t in E."""
        if t not in self.E:
            raise ValueError(f"{t} is not in E")
        return self.coords[:, self.E.positions[t]]


def gns(g: PartialPositiveType) -> GnsData:
    """Build the truncated GNS data of a partial positive-type function."""
    E = g.E
    elements = list(E)
    index = E.positions
    M = g.gram()
    w, U = g.spectrum  # cached: partial_positive_type's PSD check reads it
    lam_max = float(w[-1]) if w.size else 0.0
    scale = 1.0 + max(lam_max, 0.0)
    if w.size and w[0] < -PSD_INPUT_TOL * scale:
        raise ValueError(f"gram matrix is not PSD (floor {w[0]:g})")
    keep = [k for k in range(len(w)) if w[k] > RANK_CUTOFF * max(lam_max, 0.0)]
    r = len(keep)
    # columns q_k = u_k / sqrt(lam_k) satisfy Q* M Q = I_r
    Q = U[:, keep] / np.sqrt(w[keep])
    coords = Q.conj().T @ M  # column t = coordinates of t-hat

    gens: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    d = E.spec.d
    for i in range(1, d + 1):
        for sign in (1, -1):
            L = np.zeros((r, len(elements)), dtype=complex)
            mask = np.zeros(len(elements), dtype=bool)
            step = generator(E.spec, i, sign)
            for t, col in index.items():
                st = multiply(step, t)
                if st in index:
                    mask[col] = True
                    L[:, col] = coords[:, index[st]]
            gens[(i, sign)] = (L, mask)
    return GnsData(E, M, r, Q, coords, gens)
