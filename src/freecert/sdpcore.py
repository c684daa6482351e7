"""Small dense semidefinite feasibility and linear optimization over affine
sections of the PSD cone, for instances given as a class partition of the
entries of a hermitian matrix.

Every entry b[i, j] belongs to one class. The entries of a sum class add up
to its right-hand side (the Gram constraints of certify.gram_instance); the
entries of a tie class are equal, and equal to its right-hand side when it
has one (the moment form, which moment_form builds from a term map and the
quotient table of a word list for bell's outer bound). Both builders find
the class of each term through class_sums. Distinct classes constrain
distinct entries, so the orthogonal projection onto the affine set is a
per-class mean correction: one scatter-add of the class sums and one gather
(_Partition). The directions of the affine set, the fixed-trace test and
the multipliers of the dual certificates are closed forms of the same
projection.

Feasibility (solve_feasibility) is one Douglas-Rachford projection
splitting loop on hermitian n x n matrices, between the PSD cone
(eigenvalue clipping) and the affine set; the affine projection of the
cone shadow is the reported iterate. Plain Dykstra-corrected alternating
projections only reach O(1/k) PSD floors on near-tangent moment instances,
which is why the reflected update is used. Every CHECK_EVERY iterations
the loop scores the affine projection by its PSD floor and, when the
constraints fix the trace, scores the gap between the cone point and its
affine projection as a dual certificate (the infeasibility certificate of
operator splitting, see _DualGap). The solve ends "converged" when the
floor reaches its tolerance, "infeasible" as soon as a certificate
excludes every PSD point whose affine residual is within the tolerance,
"stalled" when the floor stops improving, or at "max_iter".

Optimization (maximize) is one primal-dual interior-point solve over the
directions of the affine set, the image of the same projection. It reports
a dual bound, not the value of a feasible point, so a change that moves the
iterates in their last bits moves the bound in its last bits only. The
solve runs along a leading stack axis (maximize_many): instances that
share the partition and differ in objective and tolerance, such as the
POVM updates of one see-saw step, take their iterations together, one
batched factorization and eigendecomposition for the whole stack, and
maximize is the stack of one. Small solves are bound by the cost of each
numpy call rather than by arithmetic, so a stack of B costs far less than
B solves. An
instance with exactly real data (SdpInstance.real: every two-outcome moment
instance, whose Fourier weights come from bell's table of roots of unity)
is solved over real symmetric matrices. Conjugation keeps its feasible set
and objective, so (b + conj(b))/2 is a real feasible point as good as b,
and a real symmetric dual has no part along the directions i (E_ij - E_ji),
so it certifies the complex relaxation too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .denselin import adjoint as _adjoint
from .quotients import label_pairs

__all__ = [
    "SdpInstance",
    "FeasibilityResult",
    "MaximizeResult",
    "SdpError",
    "InconsistentConstraintsError",
    "InfeasibleError",
    "UnboundedError",
    "solve_feasibility",
    "maximize",
    "maximize_many",
    "class_sums",
    "moment_form",
    "instance_to_json",
]

DEFAULT_FEAS_TOL = 1e-9
DEFAULT_OPT_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000

class SdpError(Exception):
    pass


class InconsistentConstraintsError(SdpError):
    """The affine system alone has no solution."""


class InfeasibleError(SdpError):
    pass


class UnboundedError(SdpError):
    pass


@dataclass
class SdpInstance:
    """A class partition of the entries of a hermitian n x n matrix b.

    `labels[i, j]` is the class of b[i, j], numbered 0, 1, ... A sum class
    (`sums[k]`, one flag for every class or one per class) asks that its
    entries add up to `rhs[k]`. A tie class asks that its entries be equal,
    and equal to `rhs[k]` unless that is None. The transposed entries of a
    class must form one class of the same kind, whose right-hand side is
    the conjugate. `objective` lists (row, col, coef) for the objective
    Re sum coef * b[row, col]. moment_form builds the tie-class instance of
    a term map, certify.gram_instance the sum-class one.
    """

    labels: np.ndarray
    rhs: Sequence[complex | None]
    sums: bool | Sequence[bool] = True
    objective: tuple[tuple[int, int, complex], ...] = ()

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        self.rhs = tuple(None if r is None else complex(r) for r in self.rhs)
        k = len(self.rhs)
        self.sums = tuple(bool(s) for s in np.broadcast_to(self.sums, (k,)))
        shape = self.labels.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("labels must be a square matrix")
        if self.labels.size and not (0 <= self.labels.min()
                                     and self.labels.max() < k):
            raise ValueError(f"labels must lie in 0..{k - 1}")
        if any(s and r is None for s, r in zip(self.sums, self.rhs)):
            raise ValueError("a sum class needs a right-hand side")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def real(self) -> bool:
        """Whether every right-hand side and objective coefficient is
        exactly real (no tolerance)."""
        return (all(r is None or r.imag == 0.0 for r in self.rhs)
                and all(np.imag(coef) == 0.0
                        for _, _, coef in self.objective))


@dataclass
class FeasibilityResult:
    """`status` says why the solve stopped: "converged" (exactly when b
    is within tol of the PSD cone and of the rows), "infeasible" (a
    dual certificate excludes every PSD point whose affine residual is
    within tol), "stalled" or "max_iter". `certified_gap` is the largest
    affine residual that the best certificate formed excludes (None without
    one), and `dual` is that certificate, the hermitian matrix Y of
    _DualGap."""

    b: np.ndarray | None
    psd_residual: float
    affine_residual: float
    iterations: int
    status: str = "converged"
    certified_gap: float | None = None
    dual: np.ndarray | None = None


@dataclass
class MaximizeResult:
    """`value` is the dual bound on the objective, `b` the last primal
    iterate (positive definite, on the affine set within tol), `gap` the
    bound minus the objective at b, and `iterations` the interior-point
    iterations spent. `dual` is the certificate of the bound: a hermitian
    Z >= 0 (up to rounding) such that Z + C has no part along the
    directions of the affine set, so that <C, b> = <C + Z, x0> - <Z, b>
    <= <C + Z, x0> = value for every feasible b."""

    value: float
    b: np.ndarray
    iterations: int
    gap: float
    dual: np.ndarray


def _hermitian(X: np.ndarray) -> np.ndarray:
    return 0.5 * (X + _adjoint(X))


def _lmin(X: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(X)[0])


class _Index(NamedTuple):
    """Index arrays over one raveled matrix (rows = 1), or over a raveled
    stack of `rows` matrices, where row b holds those of one matrix offset
    by b times their range. One bincount or one gather over a stack so
    treats each matrix alone, and in the order of its own."""

    rows: int
    real: np.ndarray  # the class of each entry, for bincount
    cplx: np.ndarray  # 2 class, 2 class + 1 for the float view's parts
    labels: np.ndarray  # the class of each entry, shaped as the matrices
    beta: np.ndarray  # _Partition._beta, and _offset, once per matrix
    offset: np.ndarray
    sums: np.ndarray  # the sum classes
    pinned: np.ndarray  # the entries of pinned classes
    free: np.ndarray  # the entries of free tie classes
    first: np.ndarray  # the first entry of the class of each of those


class _Partition:
    """The affine set of an instance and the orthogonal projection onto it,
    over hermitian matrices with <A, B> = Re tr(A^* B).

    With S_k(X) the sum of the entries of class k and |P_k| their number,
    the projection adds (r_k - S_k)/|P_k| to every entry of a sum class,
    and writes the mean S_k/|P_k|, or r_k when the tie class is pinned, to
    every entry of a tie class. A class and its transpose carry conjugate
    sums, and a self-transposed class a real one, so the image of a
    hermitian X is hermitian up to rounding. Hence

        apply(X) = X keep + (beta S(X) + x0)[labels],

    keep = 1 on sum classes and 0 on tie classes, and null(X), the same
    without x0, projects onto the directions of the affine set. S(X) is one
    np.bincount: over the labels for a real X, and over the float view of a
    complex X with labels 2k (real parts) and 2k + 1 (imaginary parts), so
    every complex matrix passed in is C-contiguous. apply, null and
    residual also take a (B, n, n) stack, with one bincount and one gather
    for all of it (_Index). With dtype float (for a real instance)
    x0 and the directions are real symmetric.
    """

    def __init__(self, inst: SdpInstance, dtype=complex):
        labels = inst.labels
        k = len(inst.rhs)
        self.n, self.labels = inst.n, labels
        size = np.bincount(labels.ravel(), minlength=k)
        sums = np.array(inst.sums, dtype=bool)
        pinned = np.array([not s and r is not None
                           for s, r in zip(inst.sums, inst.rhs)], dtype=bool)
        rhs = np.array([0j if r is None else r for r in inst.rhs],
                       dtype=complex)
        transpose = np.zeros(k, dtype=np.intp)
        transpose[labels] = labels.T
        if (np.any(size == 0) or np.any(transpose[labels] != labels.T)
                or np.any(sums[transpose] != sums)
                or np.any(pinned[transpose] != pinned)):
            raise ValueError("every class must be nonempty, and the "
                             "transposed entries of a class one class of "
                             "the same kind")
        fixed = sums | pinned
        rhs_max = float(np.max(np.abs(rhs[fixed].view(np.float64)),
                               initial=0.0))
        mismatch = float(np.max(np.abs(rhs[transpose] - rhs.conj())[fixed],
                                initial=0.0))
        if mismatch > 1e-8 * (1.0 + rhs_max):
            raise InconsistentConstraintsError(
                f"affine system is inconsistent: a class and its transpose "
                f"carry values that are not conjugate (residual "
                f"{mismatch:g})")
        mean = 0.5 * (rhs + rhs[transpose].conj())
        self._beta = np.where(sums, -1.0 / size, np.where(pinned, 0.0,
                                                           1.0 / size))
        self._offset = np.where(sums, mean / size,
                                np.where(pinned, mean, 0j))
        self.dtype = np.dtype(dtype)
        if self.dtype == float:
            # exact: the right-hand sides of a real instance are real
            self._offset = self._offset.real
        self.x0 = self._offset[labels]
        self._keep = sums[labels].astype(float) if sums.any() else None
        flat = labels.ravel()
        self._k = k
        self._size, self._sums, self._pinned = size, sums, pinned
        self._transpose = transpose
        _, first = np.unique(flat, return_index=True)
        # the rows of residual: sum classes, pinned entries, and the
        # entries of free tie classes against the first of their class
        rhs = rhs.real if self.dtype == float else rhs
        pinned_at, free_at = (np.flatnonzero(pinned[flat]),
                              np.flatnonzero(~fixed[flat]))
        self._sum_rhs = rhs[sums]
        self._pinned_rhs = rhs[flat[pinned_at]]
        self._one = _Index(1, flat,
                           (2 * labels.reshape(-1, 1) + np.arange(2)).ravel(),
                           labels, self._beta, self._offset,
                           np.flatnonzero(sums), pinned_at, free_at,
                           first[flat[free_at]])
        self._stacks: dict[int, _Index] = {}
        # the multipliers of a tie class live on its entries but the first
        # (instance_to_json writes no row for it)
        self._lam_weight = np.where(sums[flat], 0.0, 1.0)
        self._lam_weight[first[~sums & ~pinned]] = 0.0
        self._tie_mean = np.where(sums | pinned, 0.0, 1.0 / size)

    def _index(self, X: np.ndarray) -> _Index:
        """The _Index of one matrix, or of a stack of len(X)."""
        if X.ndim == 2:
            return self._one
        one, B = self._one, len(X)
        ix = self._stacks.get(B)
        if ix is None:
            k, nn, b = self._k, self.n * self.n, np.arange(B)[:, None]
            ix = self._stacks[B] = _Index(
                B, (one.real + k * b).ravel(), (one.cplx + 2 * k * b).ravel(),
                (one.real + k * b).reshape(X.shape),
                one.beta[None].repeat(B, 0).ravel(),
                one.offset[None].repeat(B, 0).ravel(), one.sums + k * b,
                one.pinned + nn * b, one.free + nn * b, one.first + nn * b)
        return ix

    def _sums_of(self, X: np.ndarray, ix: _Index) -> np.ndarray:
        """The class sums of every matrix of X, raveled."""
        if X.dtype == float:
            return np.bincount(ix.real, X.ravel(), ix.rows * self._k)
        return np.bincount(ix.cplx, X.view(np.float64).ravel(),
                           2 * ix.rows * self._k).view(complex)

    def _corrected(self, X: np.ndarray, offset: bool) -> np.ndarray:
        ix = self._index(X)
        out = ix.beta * self._sums_of(X, ix)
        if offset:
            out = out + ix.offset
        out = out[ix.labels]
        if self._keep is not None:
            out += X * self._keep
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self._corrected(X, True)

    def null(self, X: np.ndarray) -> np.ndarray:
        return self._corrected(X, False)

    def residual(self, X: np.ndarray) -> np.ndarray:
        """The largest real or imaginary part of a row residual, for the
        rows of instance_to_json: S_k - r_k for a sum class, an entry minus
        r_k for a pinned class, and an entry minus the first entry of its
        class for the other tie classes. One per matrix of a stack."""
        ix, flat = self._index(X), X.ravel()
        dev = np.concatenate(
            [self._sums_of(X, ix)[ix.sums] - self._sum_rhs,
             flat[ix.pinned] - self._pinned_rhs,
             flat[ix.free] - flat[ix.first]], axis=-1)
        return np.abs(dev.view(np.float64)).max(axis=-1, initial=0.0)

    def multiplier_l1(self, w: np.ndarray) -> float:
        """|lam|_1 for real multipliers lam of the real and imaginary parts
        of the rows of instance_to_json with sum_r lam_r A_r equal to the
        projection of w onto their span (A_r the hermitian matrix of row
        r): S_k(w)/|P_k| on the rows of a sum class (the least-norm choice),
        the deviation of w from the class mean on the rows of a tie class,
        and w itself on the rows of a pinned class."""
        S = self._sums_of(w, self._one)
        dev = w.ravel() - (self._tie_mean * S)[self.labels.ravel()]
        entries = np.abs(dev.view(np.float64)).reshape(-1, 2).sum(axis=1)
        classes = np.abs(S.view(np.float64)).reshape(-1, 2).sum(axis=1)
        return float(entries @ self._lam_weight
                     + np.sum(classes[self._sums] / self._size[self._sums]))

    def fixed_trace(self) -> float | None:
        """tau when the rows fix tr b = tau (the identity has no part along
        the directions, up to FIXED_TRACE_REL), else None."""
        eye = np.eye(self.n, dtype=complex)
        if np.linalg.norm(self.null(eye)) > FIXED_TRACE_REL * np.sqrt(self.n):
            return None
        return float(np.trace(self.x0).real)

    def directions(self) -> np.ndarray:
        """A basis D_1, ..., D_m of the image of null, stacked as (m, n, n):
        the hermitian matrices that the affine set may move along, each
        with a real coefficient.

        The units of a class k with transpose t are the matrices
        z E_ij + conj(z) E_ji for its entries (i, j), with z = 1, and also
        z = i off the diagonal; when t = k one entry of each transposed
        pair stands for both. The weight w = Re(conj(z) S_k(unit)) of a
        unit is 1, except for a pair within one class: 2 for z = 1 and 0
        for z = i. A free tie class gives, for each z, the sum of its units
        with w != 0 (its indicator, and i times the indicator of k minus
        that of t); a sum class gives its units with w = 0 and the
        differences u/w - u0/w0 of the others. Pinned classes give none.
        A real partition keeps the z = 1 directions, a basis of the real
        symmetric matrices of that image, in the dtype of the partition.
        """
        out = []  # the (i, j, value) cells of each direction
        zs = (1.0,) if self.dtype == float else (1.0, 1j)
        for k, pairs in enumerate(label_pairs(self.labels)):
            t = self._transpose[k]
            if t < k or self._pinned[k]:
                continue
            for z in zs:
                live, dead = [], []
                for i, j in pairs:
                    if (i > j and t == k) or (i == j and z == 1j):
                        continue
                    unit = ([(i, j, z), (j, i, np.conj(z))] if i != j
                            else [(i, i, 1.0)])
                    w = 1.0 if t != k or i == j else 2.0 if z == 1.0 else 0.0
                    (live if w else dead).append((unit, w))
                if not self._sums[k]:
                    out += [[c for u, _ in live for c in u]] if live else []
                else:
                    out += [u for u, _ in dead]
                    if live:
                        (u0, w0), rest = live[0], live[1:]
                        out += [[(i, j, v / w) for i, j, v in u]
                                + [(i, j, -v / w0) for i, j, v in u0]
                                for u, w in rest]
        D = np.zeros((len(out), self.n, self.n), dtype=self.dtype)
        for d, cells in enumerate(out):
            for i, j, v in cells:
                D[d, i, j] += v
        return D


# stall detection: every CHECK_EVERY iterations the PSD floor of the
# affine-exact iterate is measured; if the best floor improves by less than
# STALL_REL over STALL_WINDOW consecutive checks the solve is abandoned
CHECK_EVERY = 25
STALL_WINDOW = 40
STALL_REL = 1e-3
MIN_ITER_BEFORE_STALL = 2000
# the trace counts as fixed by the rows below this relative norm of the
# identity's part along the directions
FIXED_TRACE_REL = 1e-9
# maximize: iteration cap, and the share of the distance to the cone
# boundary that one step may cover
IPM_MAX_ITER = 60
STEP_FRACTION = 0.95
# the matrix entries of one instance's block of directions when forming the
# interior-point system. The cap is per instance, so a stack of B holds B
# times as many: the rounding of K depends on the block size, and a cap
# over the stack would give an instance other bits in a larger stack.
BLOCK_ENTRIES = 1 << 17


class _DualGap:
    """Dual certificates of {b >= 0 : Lb = r} (the infeasibility
    certificate of operator splitting), L the rows of the partition. They
    exist when the rows fix the trace tr b = tau; `trace` is tau, or None
    when they do not.

    Take Y, the gap between a cone point and its affine projection, which
    lies in the row space of L up to rounding, e = null(Y). Every b >= 0
    with Lb = r has <Y, b> >= tau min(0, lmin(Y)) and
    <Y, b> <= <Y, x0> + tau |e|. Hence g = <Y, x0> + tau slack >= 0 with
    slack = |e| - min(0, lmin(Y)), and g < 0 proves the set empty.
    """

    def __init__(self, base: _Partition):
        self.base = base
        self.trace = base.fixed_trace()
        # tr b = nu^T Lb, so tr b <= tau + |nu|_1 delta when |Lb - r| <= delta
        self._nu_l1 = (0.0 if self.trace is None else
                       base.multiplier_l1(np.eye(base.n, dtype=complex)))

    def excluded(self, Y: np.ndarray) -> float:
        """The largest delta such that no b >= 0 has |Lb - r| < delta,
        as certified by Y (<= 0 when Y certifies nothing).

        With Y - e = L^T lam, such a b has <Y - e, b> <= lam^T r
        + |lam|_1 delta and tr b <= tau + |nu|_1 delta, so the bound on g
        above becomes 0 <= g + delta (|lam|_1 + slack |nu|_1).
        """
        slack = float(np.linalg.norm(self.base.null(Y))) - min(0.0, _lmin(Y))
        g = float(np.vdot(Y, self.base.x0).real) + self.trace * slack
        if g >= 0.0:
            return 0.0
        return -g / (self.base.multiplier_l1(Y) + slack * self._nu_l1)


def solve_feasibility(inst: SdpInstance, tol: float = DEFAULT_FEAS_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> FeasibilityResult:
    """Find b >= 0 satisfying every affine constraint within tol, or report
    the best residuals reached and why the solve stopped.

    Douglas-Rachford splitting from z = x0: each step maps z to the cone
    point y = clip(eigh(z)) and then updates z <- z + apply(2y - z) - y.
    Every CHECK_EVERY iterations the affine projection x = apply(y) is
    scored by its PSD floor, and the best x so far is the reported b. At
    the same check, when the rows fix the trace, Y = y - x is scored as a
    dual certificate (_DualGap), and the best one is kept. The solve ends

    - "converged" when the best floor reaches -tol ("stalled" instead when
      b then misses the rows by more than tol);
    - "infeasible" when Y excludes every PSD point whose affine residual
      is within tol;
    - "stalled" when, after MIN_ITER_BEFORE_STALL iterations, the best
      floor improved by less than STALL_REL over STALL_WINDOW checks;
    - "max_iter" when the iterations run out (the last one is checked).

    Raises InconsistentConstraintsError when the affine system alone is
    unsolvable (distinct from PSD infeasibility, which yields a non-feasible
    result).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    base = _Partition(inst)
    gap = _DualGap(base)
    apply, eigh, maximum = base.apply, np.linalg.eigh, np.maximum

    def cone(Z):
        w, U = eigh(Z)
        return (U * maximum(w, 0.0)) @ U.conj().T

    z = base.x0.copy()
    y = cone(z)
    best_floor, best_x = -np.inf, apply(y)
    best_delta, best_Y = 0.0, None
    window: list[float] = []
    status = "max_iter"
    it = 0
    while it < max_iter:
        it += 1
        z = z + apply(2.0 * y - z) - y
        if it % CHECK_EVERY == 0 or it == max_iter:
            x = apply(y)
            floor = _lmin(x)
            if floor > best_floor:
                best_floor, best_x = floor, x
            if best_floor >= -tol:
                status = "converged"
                break
            if gap.trace is not None:
                Y = y - x
                delta = gap.excluded(Y)
                if delta > best_delta:
                    best_delta, best_Y = delta, Y
                if delta > tol:
                    status = "infeasible"
                    break
            window.append(best_floor)
            if len(window) > STALL_WINDOW:
                window.pop(0)
                if (it >= MIN_ITER_BEFORE_STALL
                        and window[-1] - window[0]
                        < STALL_REL * abs(window[0])):
                    status = "stalled"
                    break
        y = cone(z)
    b = _hermitian(best_x)
    psd_res = max(0.0, -best_floor)
    aff_res = float(base.residual(b))
    if status == "converged" and not aff_res <= tol:
        # the floor was reached but the affine residual was not (or is NaN)
        status = "stalled"
    return FeasibilityResult(
        b, psd_res, aff_res, it, status,
        float(best_delta) if best_Y is not None else None,
        _hermitian(best_Y) if best_Y is not None else None)


def _objective_matrix(inst: SdpInstance, dtype=complex) -> np.ndarray:
    """The hermitian C with <C, b> = Re sum coef * b[row, col], in dtype:
    float only for an instance whose coefficients are real."""
    C = np.zeros((inst.n, inst.n), dtype=complex)
    for r, c, coef in inst.objective:
        C[r, c] += np.conj(coef)
    C = _hermitian(C)
    return np.ascontiguousarray(C.real) if dtype == float else C


def _steps(lo: np.ndarray) -> np.ndarray:
    """The largest a with X + a dX PSD, for lo = lmin(L^-1 dX L^-*) and
    X = L L^*: 1 / -lo, inf when dX keeps X PSD."""
    return np.divide(-1.0, lo, out=np.full(lo.shape, np.inf), where=lo < 0.0)


class _Ascent(Exception):
    """A predictor step from a feasible S is a PSD direction along which
    the objective grows."""


def maximize(inst: SdpInstance,
             tol: float = DEFAULT_OPT_TOL) -> MaximizeResult:
    """Maximize <C, b> = Re sum coef * b[row, col] over the PSD points b of
    the affine set, and return a dual bound on it: maximize_many over a
    stack of one, which describes the method, the bound and the
    exceptions."""
    return maximize_many([inst], [tol])[0]


def maximize_many(instances: Sequence[SdpInstance],
                  tols: Sequence[float]) -> list[MaximizeResult]:
    """maximize for each instance of a stack that shares labels, rhs and
    sums (ValueError otherwise), each to its own tolerance. One
    interior-point iteration steps every instance of the stack, and an
    instance leaves it when it is done. Every array operation acts on each
    instance alone, so an instance takes the same steps, and gets the same
    result, in a stack of any size.

    The affine set is b = x0 + sum_d y_d D_d over the directions of
    _Partition.directions. A primal-dual interior-point method (Helmberg,
    Rendl, Vanderbei and Wolkowicz 1996, with Mehrotra's predictor-
    corrector) follows S = x0 + sum_d y_d D_d > 0 and the dual X > 0 with
    <X + C, D_d> = 0 for every d, from S = x0 when x0 is positive definite
    (otherwise S is shifted by a multiple of the identity, and the shift
    decays with the steps). The HKM direction leaves one real m x m system
    for dy, M[d, e] = <D_d, X D_e S^-1>. The solve runs in float when
    SdpInstance.real holds for every instance (see the module docstring)
    and in complex otherwise; `b` and `dual` are complex arrays either way.

    `value` is the dual bound. With X' = X - null(X + C), the part of X + C
    along the directions removed, every feasible b has

        <C, b> = <C + X', x0> - <X', b>
              <= <C + X', x0> + max(0, -lmin(X')) tr b,

    and tr b = tr x0 when the rows fix the trace, where the identity has
    no part along the directions and Z = X' + max(0, -lmin(X')) I is the
    `dual` of the result; when it is free, only a PSD X' gives a bound,
    and Z = X'. When C has no part along the directions the objective is
    constant on the affine set, and X = 0 gives the bound <C, x0> exactly.
    An iterate that gives no bound keeps the last one formed. An instance
    is done when its bound exceeds <C, S> by at most its tol (absolute) at
    an S whose row residuals are within tol.

    An instance fails with UnboundedError when a predictor step from a
    feasible S is a PSD direction along which the objective grows, or when
    no bound was formed; with InfeasibleError when no iterate met the rows
    within tol; and with SdpError when IPM_MAX_ITER iterations, or the
    numerics, end first. The call raises the failure of the first instance
    that fails, as a loop over the instances would, and drops the instances
    after it from the stack.
    """
    instances = list(instances)
    tol = np.array(tols, dtype=float)
    if tol.shape != (len(instances),):
        raise ValueError("need one tolerance per instance")
    if not (tol > 0).all():
        raise ValueError("tol must be positive")
    if not instances:
        return []
    first = instances[0]
    if any(inst.rhs != first.rhs or inst.sums != first.sums
           or not np.array_equal(inst.labels, first.labels)
           for inst in instances[1:]):
        raise ValueError("the instances of a stack must share labels, rhs "
                         "and sums")
    dtype = float if all(inst.real for inst in instances) else complex
    part = _Partition(first, dtype)
    D = part.directions()
    m, n = len(D), first.n
    # the directions as float rows: n^2 entries, or 2 n^2 real and
    # imaginary parts
    Dr = D.reshape(m, n * n).view(np.float64)
    DrT = Dr.T
    block = max(1, BLOCK_ENTRIES // (n * n))

    # y, c and the steps dy are (B, m, 1) columns, and every per-matrix
    # product below is one BLAS call per matrix of the stack
    def adjoint(A):
        """<D_d, A_b> for every d and every matrix A_b of a C-contiguous
        stack of dtype."""
        return Dr @ A.view(np.float64).reshape(len(A), -1, 1)

    def along(dy):
        return (DrT @ dy).reshape(-1, n, Dr.shape[1] // n).view(dtype)

    def inner(A, B):
        """<A_b, B_b> for every b, B a stack or one matrix: one dot
        product per row."""
        a = A.reshape(-1, 1, n * n).conj()
        b = B.reshape(-1, 1, n * n)
        return (a @ b.swapaxes(1, 2))[:, 0, 0].real

    x0, eye = part.x0, np.eye(n, dtype=dtype)
    trace = part.fixed_trace()
    C = np.array([_objective_matrix(inst, dtype) for inst in instances])
    c = adjoint(C)
    C_x0 = inner(C, x0)
    lo = _lmin(x0)
    S = (x0 + (0.0 if lo > 0.0 else 1.0 - lo) * eye)[None].repeat(len(C), 0)
    X = (1.0 + np.abs(C).max(axis=(1, 2), initial=0.0))[:, None, None] * eye
    y = np.zeros_like(c)
    # with c = 0 the objective is constant on the affine set, and X = 0 is
    # an exact dual point: keep is 0 on such rows (None when there is none)
    keep = c.any(axis=(1, 2))
    keep = None if keep.all() else keep.astype(float)[:, None, None]
    bound = np.full(len(C), np.inf)  # inf until an iterate forms one
    # the dual of the bound is X' + shift I
    dual_X, dual_shift = np.zeros_like(C), np.zeros(len(C))
    rows = np.arange(len(C))  # the instance on each row of the stack
    results: list[MaximizeResult] = [None] * len(C)
    errors: dict[int, SdpError] = {}

    def step(S, X, R, c, tol):
        """The predictor-corrector step (dy, dS, dX) and the step lengths
        (ap, ad) of every row; _Ascent when a predictor step of a row whose
        S meets the rows within tol is a PSD direction along which its
        objective grows. The factorizations of (S, X), and the step bounds
        of each half-step, are one call over the stack."""
        B = len(S)
        L = np.linalg.inv(np.linalg.cholesky(np.concatenate((S, X))))
        LH = _adjoint(L)
        Si = LH[:B] @ L[:B]
        mu = inner(X, S) / n
        XRS = X @ R @ Si
        # K[e, d] = <X D_e S^-1, D_d>, a symmetric matrix, formed in
        # blocks of directions to bound the temporaries (BLOCK_ENTRIES)
        K = np.empty((B, m, m))
        for a in range(0, m, block):
            T = (X[:, None] @ D[a:a + block] @ Si[:, None]).view(np.float64)
            K[:, a:a + block] = T.reshape(B, -1, Dr.shape[1]) @ DrT

        def direction(target, extra):
            """The HKM direction to the target t: (t Si - X R Si - extra)
            on the right-hand side, and dX = t Si - X - X dS Si - extra;
            the predictor's t and extra are None (zero)."""
            if target is None:
                G, H = -XRS, -X
            else:
                tSi = target * Si
                G, H = tSi - XRS - extra, tSi - X
            dy = np.linalg.solve(K, c + adjoint(G))
            dS = R + along(dy)
            dX = H - X @ dS @ Si
            return dy, dS, _hermitian(dX if extra is None else dX - extra)

        dy, dS, dX = direction(None, None)
        # lmin of the predictor's S-step along the directions alone (is it
        # PSD?), and of dS and dX in the metric of their factors (the step
        # bounds): one call
        lo = np.linalg.eigvalsh(np.concatenate(
            (along(dy), L @ np.concatenate((dS, dX)) @ LH)))[:, 0]
        psd = lo[:B] >= 0.0
        if psd.any() and (psd & ((c.swapaxes(1, 2) @ dy)[:, 0, 0] > 0.0)
                          & (part.residual(S) <= tol)).any():
            raise _Ascent
        ap, ad = np.minimum(1.0, _steps(lo[B:])).reshape(2, B, 1, 1)
        mu_aff = inner(X + ad * dX, S + ap * dS) / n
        sigma = np.minimum(1.0, (mu_aff / mu) ** 3)
        dy, dS, dX = direction((sigma * mu)[:, None, None], dX @ dS @ Si)
        lo = np.linalg.eigvalsh(L @ np.concatenate((dS, dX)) @ LH)[:, 0]
        ap, ad = np.minimum(1.0, STEP_FRACTION * _steps(lo)).reshape(
            2, B, 1, 1)
        return dy, dS, dX, ap, ad

    def failure(b, it):
        """Why row b ends unsolved at iteration it."""
        if not part.residual(S[b:b + 1])[0] <= tol[b]:
            return InfeasibleError("no iterate met the constraints within "
                                   "tol")
        if bound[b] == np.inf:
            return UnboundedError("no dual bound was formed; the objective "
                                  "may be unbounded")
        return SdpError(f"stopped at duality gap {gap[b]:.3g} after {it} "
                        f"iterations (tolerance {tol[b]:g})")

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for it in range(IPM_MAX_ITER + 1):
            R = x0 + along(y) - S
            W = X if keep is None else keep * X
            Xp = W - part.null(W + C)
            floor = np.linalg.eigvalsh(Xp)[:, 0]
            shift = np.maximum(0.0, -floor)
            formed = C_x0 + inner(Xp, x0) + shift * (trace or 0.0)
            if trace is None:
                # only a PSD X' gives a bound: keep the last one formed
                ok = floor >= 0.0
                bound = np.where(ok, formed, bound)
                dual_X = np.where(ok[:, None, None], Xp, dual_X)
                dual_shift = np.where(ok, shift, dual_shift)
            else:
                bound, dual_X, dual_shift = formed, Xp, shift
            gap = bound - inner(C, S)
            # the row residuals matter only where the gap is met
            done = gap <= tol
            if done.any():
                done &= part.residual(S) <= tol
            if errors:
                # the instances after the first that failed would not run
                done |= rows >= min(errors)
            if done.any():
                for b in done.nonzero()[0]:
                    dual = dual_X[b] + dual_shift[b] * eye
                    results[rows[b]] = MaximizeResult(
                        float(bound[b]), np.asarray(_hermitian(S[b]), complex),
                        it, float(gap[b]),
                        np.asarray(_hermitian(dual), complex))
                if done.all():
                    break
                live = ~done
                (rows, S, X, y, R, C, c, C_x0, tol, bound, dual_X, dual_shift,
                 gap) = (v[live] for v in (
                     rows, S, X, y, R, C, c, C_x0, tol, bound, dual_X,
                     dual_shift, gap))
                keep = None if keep is None else keep[live]
            if it == IPM_MAX_ITER:
                errors.update((rows[b], failure(b, it))
                              for b in range(rows.size))
                break
            try:
                dy, dS, dX, ap, ad = step(S, X, R, c, tol)
            except (np.linalg.LinAlgError, FloatingPointError, _Ascent):
                # find the rows at fault: alone, a row takes the step that
                # it takes in the stack. A row that fails stays put, and
                # leaves the stack at the next iteration.
                stay = (np.zeros((1, m, 1)), np.zeros((1, n, n), dtype),
                        np.zeros((1, n, n), dtype), np.zeros((1, 1, 1)),
                        np.zeros((1, 1, 1)))
                parts = []
                for b in range(rows.size):
                    one = slice(b, b + 1)
                    try:
                        parts.append(step(S[one], X[one], R[one], c[one],
                                          tol[one]))
                        continue
                    except _Ascent:
                        errors[rows[b]] = UnboundedError(
                            "the objective grows without bound along a "
                            "PSD direction")
                    except (np.linalg.LinAlgError, FloatingPointError):
                        errors[rows[b]] = failure(b, it)
                    parts.append(stay)
                dy, dS, dX, ap, ad = (np.concatenate(v) for v in zip(*parts))
            y, S, X = y + ap * dy, S + ap * dS, X + ad * dX
    if errors:
        raise errors[min(errors)]
    return results


def class_sums(terms, index, what: str) -> dict[int, complex]:
    """{label: 0j plus its words' coefficients, in the order of terms} for
    a term map {word: coefficient} and index, {word: class label}, labels
    in order of first touch. ValueError "what: [words]" for the words that
    index lacks."""
    outside = [w for w in terms if w not in index]
    if outside:
        raise ValueError(f"{what}: {sorted(map(str, outside))}")
    sums: dict[int, complex] = {}
    for w, c in terms.items():
        k = index[w]
        sums[k] = sums.get(k, 0j) + c
    return sums


def moment_form(terms, table) -> SdpInstance:
    """The moment SDP b[s, t] = h(s^-1 t) over the words of the
    QuotientTable table, for the term map {word: coefficient}: one tie class
    per quotient, h(1) = 1 pinned (class 0, at (0, 0)), and the objective
    Re sum terms[w] h(w), each class's sum (class_sums) on the class's
    first entry in row-major order, which is the order of the labels.
    ValueError for a word that is no quotient of the table."""
    sums = class_sums(terms, table.index, "support not contained in E^-1E")
    first = np.unique(table.labels, return_index=True)[1].tolist()
    objective = tuple((*divmod(first[k], len(table.words)), c)
                      for k, c in sorted(sums.items()))
    return SdpInstance(table.labels, [1.0] + [None] * (len(table) - 1),
                       False, objective)


def instance_to_json(inst: SdpInstance) -> dict:
    """The rows of the partition: one per sum class with its entries in
    row-major order, one per entry of a pinned class, and one per entry
    but the first of any other tie class, against that first entry."""
    rows = []
    for pairs, r, is_sum in zip(label_pairs(inst.labels), inst.rhs,
                                inst.sums):
        cells = [[i, j, 1.0, 0.0] for i, j in pairs]
        if is_sum:
            rows.append({"entries": cells, "rhs": [r.real, r.imag]})
        elif r is not None:
            rows += [{"entries": [cell], "rhs": [r.real, r.imag]}
                     for cell in cells]
        else:
            first = [*pairs[0], -1.0, 0.0]
            rows += [{"entries": [first, cell], "rhs": [0.0, 0.0]}
                     for cell in cells[1:]]
    return {
        "n": inst.n,
        "constraints": rows,
        "objective": [[r, c, coef.real, coef.imag]
                      for r, c, coef in inst.objective],
    }
