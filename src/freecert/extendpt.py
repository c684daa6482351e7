"""Positive-type extension of partially defined functions on grounded subsets
of a free group via iterated tree completion.

A partial positive-type function lives on E^{-1}E for a grounded E. Extending
it to a larger grounded set proceeds one word at a time: adjoining t0 = s^{a}
t0'' splits E into the words whose quotient against t0 is already known (E1)
and the rest (E0), and the unknown entries are read off the canonical
three-block completion with block order (E0, E1, {t0}).

`extend_to` forms the |F|^2 word products s^-1 t over the target set F once,
as a table of indices into one value vector. It checks its input once, by
the rule of `partial_positive_type`, and its output once: every set of the
chain is a subset of F, so its Toeplitz matrix is a principal submatrix of
F's, whose least eigenvalue bounds its own from below (Cauchy interlacing).
A step between them gathers the values of E u {t0} in block order
(E0, E1, t0) and makes one eigendecomposition, of the E1 block, for
X B^+ Y. `extend_one` is the one-step case.

The construction needs the Cayley graph to be a tree, which is why only free
groups are accepted: on groups with relations (already on the Z x Z lattice)
partially defined positive-type functions exist that admit no positive-type
extension, so no analogous completion step is possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    hermitian_toeplitz,
    random_rep,
    rep_matrix,
    toeplitz_matrix,
)
from .denselin import HERMITIAN_TOL, PSD_INPUT_TOL, eig_floor, eigh, pinv_cut
from .grounded import GroundedSet, double_set, extension_chain, grounded_set
from .words import (
    FREE,
    Word,
    drop_first,
    first_letter,
    generator,
    inverse,
    multiply,
    sort_key,
    unit,
)

__all__ = [
    "PartialPositiveType",
    "partial_positive_type",
    "extend_one",
    "extend_to",
    "random_positive_type",
]


@dataclass(frozen=True)
class PartialPositiveType:
    """Values on E^{-1}E whose Toeplitz compression over E is PSD."""

    E: GroundedSet
    values: dict[Word, complex]

    @property
    def spec(self):
        return self.E.spec

    def scale(self) -> float:
        return 1.0 + max((abs(v) for v in self.values.values()), default=0.0)

    def gram(self) -> np.ndarray:
        return self._gram.copy()

    @cached_property
    def _gram(self) -> np.ndarray:
        return toeplitz_matrix(self.values, self.E.quotients)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of the Gram matrix, read by the PSD check and by gns."""
        return eigh(self._gram)


def partial_positive_type(E: GroundedSet,
                          values: dict[Word, complex]) -> PartialPositiveType:
    """Validate a partial positive-type function: domain exactly E^{-1}E,
    real at the unit, hermitian symmetry (checked on every pair of E^-1E
    when the Toeplitz compression is formed), PSD Toeplitz compression."""
    if E.spec.kind != FREE:
        raise ValueError("positive-type extension requires a free group")
    dom_set = E.quotients.index.keys()
    extra = set(values) - dom_set
    if extra:
        raise ValueError(f"values outside E^-1E: {sorted(map(str, extra))}")
    missing = dom_set - set(values)
    if missing:
        raise ValueError(f"values missing on E^-1E: {sorted(map(str, missing))}")
    vals = {w: complex(v) for w, v in values.items()}
    scale = 1.0 + max((abs(v) for v in vals.values()), default=0.0)
    u = unit(E.spec)
    if abs(vals[u].imag) > HERMITIAN_TOL * scale:
        raise ValueError("value at the unit must be real")
    vals[u] = complex(vals[u].real, 0.0)
    g = PartialPositiveType(E, vals)
    _check_toeplitz(g)
    return g


def _check_toeplitz(g: PartialPositiveType) -> None:
    """The Toeplitz compression of g over E is hermitian (checked when it
    is formed) and PSD within PSD_INPUT_TOL of g's scale."""
    floor = float(g.spectrum[0][0])
    if floor < -PSD_INPUT_TOL * g.scale():
        raise ValueError(f"Toeplitz compression is not PSD (floor {floor:g})")


def extend_one(g: PartialPositiveType, t0: Word) -> PartialPositiveType:
    """Extend g to the grounded set E u {t0}, filling the genuinely new
    quotients from the three-block completion."""
    if t0 in g.E:
        raise ValueError("t0 already belongs to E")
    F = grounded_set(g.spec, g.E.as_set() | {t0})  # raises if not grounded
    return extend_to(g, F)


def _not_grounded():
    return ValueError("set is not grounded (unit missing or suffix gap)")


def extend_to(g: PartialPositiveType, F: GroundedSet) -> PartialPositiveType:
    """Extend g along the canonical chain from E to the grounded superset F.

    g is checked by the rule of partial_positive_type (free when its
    spectrum is cached), and every step keeps the integer checks of a single
    extension: the grown set stays grounded, the split-set rule agrees with
    the known quotients, and no quotient is left undefined. The Toeplitz
    matrix of F is then checked once: hermitian, and PSD within
    PSD_INPUT_TOL of g's scale, so that the output reads back as valid
    input. By interlacing its floor is at most that of every set of the
    chain; if it fails, the first set E u {t1..tk} that fails is named."""
    chain = extension_chain(g.E, F)
    if not chain:
        return g
    spec = g.spec
    elements = tuple(sorted(F, key=sort_key))
    if elements != F.elements:
        F = GroundedSet(spec, elements)
    pos = F.positions
    n = len(elements)

    # Q[i, j] indexes s_i^-1 s_j in `words`; conj[k] indexes words[k]^-1
    table = F.quotients
    Q, conj = table.labels, table.inverse
    # values off F^-1 F (only in unvalidated input) ride along unchanged
    qindex = dict(table.index)
    given = [qindex.setdefault(w, len(qindex)) for w in g.values]
    words = list(qindex)
    vals = np.zeros(len(words), dtype=complex)
    vals[given] = list(g.values.values())
    known = np.zeros(len(words), dtype=bool)
    known[given] = True

    # tree parent (first letter dropped) of every non-unit element
    parent = np.full(n, -1, dtype=np.intp)
    for j in range(1, n):
        parent[j] = pos.get(drop_first(elements[j]), -1)
    in_E = np.zeros(n, dtype=bool)
    in_E[[pos[s] for s in g.E]] = True
    E_idx = np.flatnonzero(in_E)
    above = parent[E_idx[1:]]  # the unit sorts first
    if not (elements[0].is_unit and in_E[0]) or np.any(above < 0) \
            or not np.all(in_E[above]):
        raise _not_grounded()
    if not known[Q[np.ix_(E_idx, E_idx)]].all():
        raise ValueError("values missing on E^-1E")
    _check_toeplitz(g)

    # left[letter][j] = index of letter^-1 s_j in F, or -1
    left: dict[tuple[int, int], np.ndarray] = {}
    written = []  # new quotients and their inverses, in the order filled
    for t0 in chain:
        p = pos[t0]
        if parent[p] < 0 or not in_E[parent[p]]:
            raise _not_grounded()
        letter = first_letter(t0)
        if letter not in left:
            step_inv = generator(spec, letter[0], -letter[1])
            left[letter] = np.array(
                [pos.get(multiply(step_inv, s), -1) for s in elements],
                dtype=np.intp)
        # split by the first-letter rule: s in E1 iff letter^-1 s in E
        shifted = left[letter][E_idx]
        in_E1 = (shifted >= 0) & in_E[shifted]
        E1, E0 = E_idx[in_E1], E_idx[~in_E1]
        n0 = len(E0)

        # the quotients of E u {t0} in block order (E0, E1, t0)
        order = np.concatenate((E0, E1, [p]))
        Qo = Q[order[:, None], order]
        if not known[Qo[n0:-1, -1]].all():
            raise AssertionError("split-set rule produced an unknown quotient")
        new_q = Qo[:n0, -1]
        if known[new_q].any():
            raise AssertionError("quotient for an E0 word is already known")
        z = np.zeros(n0, dtype=complex)
        if len(E1):
            # the E0 x t0 corners are unknown quotients: zero; X and Y are
            # mirrored, so H and its scale are those of complete_block's
            # assembled matrix, and the cut is that of pinv_psd
            M = vals[Qo]
            X, Y = M[:n0, n0:-1], M[n0:-1, -1:]
            M[n0:-1, :n0], M[-1, n0:-1] = X.conj().T, Y[:, 0].conj()
            H = 0.5 * (M + M.conj().T)
            tol = PSD_INPUT_TOL * (1.0 + float(np.abs(H).max()))
            z = (X @ pinv_cut(*eigh(H[n0:-1, n0:-1]), tol) @ Y)[:, 0]
        pair = np.array((new_q, conj[new_q])).T.ravel()
        vals[pair] = np.array((z, z.conj())).T.ravel()
        known[pair] = True
        written.append(pair)

        in_E[p] = True
        E_idx = np.flatnonzero(in_E)
        if not known[Qo].all():
            missing = {words[k] for k in Qo.ravel() if not known[k]}
            raise AssertionError(
                f"extension left undefined quotients: {missing}")

    T = hermitian_toeplitz(vals[Q])
    limit = -PSD_INPUT_TOL * g.scale()
    if eig_floor(T) < limit:
        # name the first set of the chain that fails: the last set is F,
        # whose floor failed, so the loop raises
        in_E[:] = False
        in_E[[pos[s] for s in g.E]] = True
        for t0 in chain:
            in_E[pos[t0]] = True
            floor = eig_floor(T[np.ix_(in_E, in_E)])
            if floor < limit:
                raise ValueError(
                    f"completion failed to stay PSD (floor {floor:g}); "
                    "input likely violated the PSD tolerance")
    out_vals = dict(g.values)
    ks = np.concatenate(written)
    for k, v in zip(ks.tolist(), vals[ks].tolist()):
        out_vals[words[k]] = v
    return PartialPositiveType(F, out_vals)


def random_positive_type(E: GroundedSet, dim: int, seed) -> PartialPositiveType:
    """g(t) = <pi(t) xi, xi> for a random dim-dimensional unitary rep pi and a
    random unit vector xi, restricted to E^-1E. Deterministic given seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    rep = random_rep(E.spec, dim, rng)
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xi /= np.linalg.norm(xi)
    dom = double_set(E)
    raw = {w: complex(np.vdot(xi, rep_matrix(rep, w) @ xi)) for w in dom}
    # enforce exact hermitian symmetry against floating point drift; the unit
    # value is <xi, xi> = 1 up to rounding and is pinned exactly
    vals = {w: 0.5 * (raw[w] + raw[inverse(w)].conjugate()) for w in dom}
    vals[unit(E.spec)] = complex(1.0, 0.0)
    return partial_positive_type(E, vals)
