"""Small dense semidefinite feasibility and linear optimization over affine
sections of the PSD cone, for instances given as a class partition of the
entries of a hermitian matrix.

Every entry b[i, j] belongs to one class. The entries of a sum class add up
to its right-hand side (the Gram constraints of certify); the entries of a
tie class are equal, and equal to its right-hand side when it has one (the
moment constraints of bell). Distinct classes constrain distinct entries,
so the orthogonal projection onto the affine set is a per-class mean
correction: one scatter-add of the class sums and one gather (_Partition).
The directions of the affine set, the fixed-trace test and the multipliers
of the dual certificates are closed forms of the same projection.

Feasibility runs Douglas-Rachford projection splitting on hermitian n x n
matrices, between the PSD cone (eigenvalue clipping) and the affine set;
the affine projection of the cone shadow is the reported iterate. Plain
Dykstra-corrected alternating projections only reach O(1/k) PSD floors on
near-tangent moment instances, which is why the reflected update is used.

When the constraints fix the trace, the gap between the cone point and its
affine projection is a dual certificate (the infeasibility certificate of
operator splitting, see _DualGap). A feasibility solve ends as "infeasible"
as soon as one excludes every PSD point whose affine residual is within its
tolerance; otherwise it ends "converged", "stalled" (the PSD floor stopped
improving) or at "max_iter".

Optimization (maximize) is one primal-dual interior-point solve over the
directions of the affine set, the image of the same projection. It reports
a dual bound, not the value of a feasible point, so a change that moves the
iterates in their last bits moves the bound in its last bits only. An
instance with exactly real data (SdpInstance.real: every two-outcome moment
instance, whose Fourier weights come from bell's table of roots of unity)
is solved over real symmetric matrices. Conjugation keeps its feasible set
and objective, so (b + conj(b))/2 is a real feasible point as good as b,
and a real symmetric dual has no part along the directions i (E_ij - E_ji),
so it certifies the complex relaxation too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    Re sum coef * b[row, col].
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
    """`status` says why the solve stopped: "converged", "infeasible" (a
    dual certificate excludes every PSD point whose affine residual is
    within tol), "stalled" or "max_iter". `certified_gap` is the largest
    affine residual that the best certificate formed excludes (None without
    one), and `dual` is that certificate, the hermitian matrix Y of
    _DualGap."""

    feasible: bool
    b: np.ndarray | None
    psd_residual: float
    affine_residual: float
    iterations: int
    message: str = ""
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
    return 0.5 * (X + X.conj().T)


def _inner(A: np.ndarray, B: np.ndarray) -> float:
    """<A, B> = Re tr(A^* B), the real inner product of hermitian
    matrices."""
    return float(np.vdot(A, B).real)


def _lmin(X: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(X)[0])


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
    every complex matrix passed in is C-contiguous. With dtype float (for
    a real instance) x0 and the directions are real symmetric.
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
        self._flat = flat = labels.ravel()
        self._lab2 = (2 * labels.reshape(-1, 1) + np.arange(2)).ravel()
        self._k = k
        self._size, self._sums, self._pinned, self._rhs = (
            size, sums, pinned, rhs)
        self._transpose = transpose
        _, first = np.unique(flat, return_index=True)
        self._ties = np.flatnonzero(~sums[flat])
        self._tie_labels = flat[self._ties]
        self._ref = first[self._tie_labels]
        # the multipliers of a tie class live on its entries but the first
        # (instance_to_json writes no row for it)
        self._lam_weight = np.where(sums[flat], 0.0, 1.0)
        self._lam_weight[first[~sums & ~pinned]] = 0.0
        self._tie_mean = np.where(sums | pinned, 0.0, 1.0 / size)

    def class_sums(self, X: np.ndarray) -> np.ndarray:
        if X.dtype == float:
            return np.bincount(self._flat, X.ravel(), self._k)
        return np.bincount(self._lab2, X.view(np.float64).ravel(),
                           2 * self._k).view(complex)

    def _corrected(self, X: np.ndarray, offset) -> np.ndarray:
        out = (self._beta * self.class_sums(X) + offset)[self.labels]
        if self._keep is not None:
            out += X * self._keep
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self._corrected(X, self._offset)

    def null(self, X: np.ndarray) -> np.ndarray:
        return self._corrected(X, 0.0)

    def residual(self, X: np.ndarray) -> float:
        """The largest real or imaginary part of a row residual, for the
        rows of instance_to_json: S_k - r_k for a sum class, an entry minus
        r_k for a pinned class, and an entry minus the first entry of its
        class for the other tie classes."""
        flat = X.ravel()
        S = self.class_sums(X)
        lab = self._tie_labels
        ref = np.where(self._pinned[lab], self._rhs[lab], flat[self._ref])
        dev = np.concatenate([(S - self._rhs)[self._sums],
                              flat[self._ties] - ref])
        return float(np.max(np.abs(dev.view(np.float64)), initial=0.0))

    def multiplier_l1(self, w: np.ndarray) -> float:
        """|lam|_1 for real multipliers lam of the real and imaginary parts
        of the rows of instance_to_json with sum_r lam_r A_r equal to the
        projection of w onto their span (A_r the hermitian matrix of row
        r): S_k(w)/|P_k| on the rows of a sum class (the least-norm choice),
        the deviation of w from the class mean on the rows of a tie class,
        and w itself on the rows of a pinned class."""
        S = self.class_sums(w)
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
# directions per block when forming the interior-point system
BLOCK = 16


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
        g = _inner(Y, self.base.x0) + self.trace * slack
        if g >= 0.0:
            return 0.0
        return -g / (self.base.multiplier_l1(Y) + slack * self._nu_l1)


def _splitting(affine, start, tol, max_iter, reject=None):
    """Douglas-Rachford splitting between the PSD cone and the affine set
    that `affine` projects onto, started from the affine point `start`.

    Each step maps z to the cone point y = clip(eigh(z)) and then updates
    z <- z + affine(2y - z) - y. Every CHECK_EVERY iterations the affine
    projection x of the cone point y is scored by its PSD floor; the solve
    ends "converged" when the floor reaches -tol, "infeasible" when
    `reject(y, x)` reports that the affine set misses the cone, "stalled"
    when the floor stalls, and "max_iter" when the iterations run out.
    Returns (best x, its floor, iterations, status).
    """
    eigh, maximum = np.linalg.eigh, np.maximum

    def cone(Z):
        w, U = eigh(Z)
        return (U * maximum(w, 0.0)) @ U.conj().T

    z = start.copy()
    y = cone(z)
    best_floor = -np.inf
    best_x = affine(y)
    window: list[float] = []
    status = "max_iter"
    it = 0
    while it < max_iter:
        it += 1
        z = z + affine(2.0 * y - z) - y
        if it % CHECK_EVERY == 0 or it == max_iter:
            x = affine(y)
            floor = _lmin(x)
            if floor > best_floor:
                best_floor = floor
                best_x = x
            if best_floor >= -tol:
                status = "converged"
                break
            if reject is not None and reject(y, x):
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
    return _hermitian(best_x), best_floor, it, status


def _solve(base: _Partition, tol, max_iter) -> FeasibilityResult:
    gap = _DualGap(base)
    best = [0.0, None]
    reject = None
    if gap.trace is not None:
        def reject(y, x):
            Y = y - x
            delta = gap.excluded(Y)
            if delta > best[0]:
                best[:] = delta, Y
            return delta > tol

    x, floor, it, status = _splitting(base.apply, base.x0, tol, max_iter,
                                      reject)
    psd_res = max(0.0, -floor)
    aff_res = base.residual(x)
    ok = psd_res <= tol and aff_res <= tol
    if not ok and status == "converged":
        # the floor was reached but the affine residual was not
        status = "stalled"
    delta, Y = best
    return FeasibilityResult(
        ok, x, psd_res, aff_res, it,
        "" if ok else "no PSD point found within tolerance", status,
        float(delta) if Y is not None else None,
        _hermitian(Y) if Y is not None else None)


def solve_feasibility(inst: SdpInstance, tol: float = DEFAULT_FEAS_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> FeasibilityResult:
    """Find b >= 0 satisfying every affine constraint within tol, or report
    the best residuals reached and why the solve stopped.

    Raises InconsistentConstraintsError when the affine system alone is
    unsolvable (distinct from PSD infeasibility, which yields a non-feasible
    result).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _solve(_Partition(inst), tol, max_iter)


def _objective_matrix(inst: SdpInstance, dtype=complex) -> np.ndarray:
    """The hermitian C with <C, b> = Re sum coef * b[row, col], in dtype:
    float only for an instance whose coefficients are real."""
    C = np.zeros((inst.n, inst.n), dtype=complex)
    for r, c, coef in inst.objective:
        C[r, c] += np.conj(coef)
    C = _hermitian(C)
    return np.ascontiguousarray(C.real) if dtype == float else C


def _inv_chol(X: np.ndarray) -> np.ndarray:
    """The inverse of the Cholesky factor L of X = L L^*."""
    return np.linalg.inv(np.linalg.cholesky(X))


def _step(Li: np.ndarray, dX: np.ndarray) -> float:
    """The largest a with X + a dX PSD, for X = L L^* and Li = L^-1:
    1 / -lmin(L^-1 dX L^-*), inf when dX keeps X PSD."""
    lo = _lmin(Li @ dX @ Li.conj().T)
    return np.inf if lo >= 0.0 else -1.0 / lo


def maximize(inst: SdpInstance,
             tol: float = DEFAULT_OPT_TOL) -> MaximizeResult:
    """Maximize <C, b> = Re sum coef * b[row, col] over the PSD points b of
    the affine set, and return a dual bound on it.

    The affine set is b = x0 + sum_d y_d D_d over the directions of
    _Partition.directions. A primal-dual interior-point method (Helmberg,
    Rendl, Vanderbei and Wolkowicz 1996, with Mehrotra's predictor-
    corrector) follows S = x0 + sum_d y_d D_d > 0 and the dual X > 0 with
    <X + C, D_d> = 0 for every d, from S = x0 when x0 is positive definite
    (otherwise S is shifted by a multiple of the identity, and the shift
    decays with the steps). The HKM direction leaves one real m x m system
    for dy, M[d, e] = <D_d, X D_e S^-1>. The solve runs in float when
    SdpInstance.real holds (see the module docstring) and in complex
    otherwise; `b` and `dual` are complex arrays either way.

    `value` is the dual bound. With X' = X - null(X + C), the part of X + C
    along the directions removed, every feasible b has

        <C, b> = <C + X', x0> - <X', b>
              <= <C + X', x0> + max(0, -lmin(X')) tr b,

    and tr b = tr x0 when the rows fix the trace, where the identity has
    no part along the directions and Z = X' + max(0, -lmin(X')) I is the
    `dual` of the result; when it is free, only a PSD X' gives a bound,
    and Z = X'. When C has no part along the directions the objective is
    constant on the affine set, and X = 0 gives the bound <C, x0> exactly.
    An iterate that gives no bound keeps the last one formed. The solve
    stops when the bound exceeds <C, S> by at most tol (absolute) at an S
    whose row residuals are within tol.

    Raises UnboundedError when a predictor step from a feasible S is a PSD
    direction along which the objective grows, or when no bound was
    formed; InfeasibleError when no iterate met the rows within tol; and
    SdpError when IPM_MAX_ITER iterations, or the numerics, end first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    dtype = float if inst.real else complex
    part = _Partition(inst, dtype)
    C = _objective_matrix(inst, dtype)
    D = part.directions()
    m, n = len(D), inst.n
    # the directions as float rows: n^2 entries, or 2 n^2 real and
    # imaginary parts
    Dr = D.reshape(m, n * n).view(np.float64)

    def adjoint(A):
        """<D_d, A> for every d, A a C-contiguous n x n array of dtype."""
        return Dr @ A.view(np.float64).ravel()

    def along(dy):
        return (dy @ Dr).view(dtype).reshape(n, n)

    x0, eye = part.x0, np.eye(n)
    trace = part.fixed_trace()
    c, C_x0 = adjoint(C), _inner(C, x0)
    lo = _lmin(x0)
    S = x0 + (0.0 if lo > 0.0 else 1.0 - lo) * eye
    X = (1.0 + float(np.max(np.abs(C), initial=0.0))) * eye
    y = np.zeros(m)
    bound, dual, gap, feasible = None, None, np.inf, False
    # with c = 0 the objective is constant on the affine set, and X = 0 is
    # an exact dual point
    keep = 1.0 if c.any() else 0.0
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for it in range(IPM_MAX_ITER + 1):
            R = x0 + along(y) - S
            Xp = keep * X - part.null(keep * X + C)
            floor = _lmin(Xp)
            if trace is not None or floor >= 0.0:
                shift = max(0.0, -floor)
                bound = C_x0 + _inner(Xp, x0) + shift * (trace or 0.0)
                dual = Xp + shift * eye
            if bound is not None:
                gap = bound - _inner(C, S)
            feasible = part.residual(S) <= tol
            if bound is not None and feasible and gap <= tol:
                return MaximizeResult(
                    bound, np.asarray(_hermitian(S), dtype=complex), it,
                    gap, np.asarray(_hermitian(dual), dtype=complex))
            if it == IPM_MAX_ITER:
                break
            try:
                LS, LX = _inv_chol(S), _inv_chol(X)
                Si = LS.conj().T @ LS
                mu = _inner(X, S) / n
                XRS = X @ R @ Si
                # K[e, d] = <X D_e S^-1, D_d>, a symmetric matrix, formed
                # in blocks of directions to keep the temporaries small
                K = np.empty((m, m))
                for a in range(0, m, BLOCK):
                    T = (X @ D[a:a + BLOCK] @ Si).view(np.float64)
                    K[a:a + BLOCK] = T.reshape(-1, Dr.shape[1]) @ Dr.T

                def direction(target, extra):
                    dy = np.linalg.solve(
                        K, c + adjoint(target * Si - XRS - extra))
                    dS = R + along(dy)
                    dX = _hermitian(target * Si - X - X @ dS @ Si - extra)
                    return dy, dS, dX

                dy, dS, dX = direction(0.0, 0.0)
                if (feasible and c @ dy > 0.0
                        and _step(LS, along(dy)) == np.inf):
                    raise UnboundedError("the objective grows without bound "
                                         "along a PSD direction")
                ap, ad = min(1.0, _step(LS, dS)), min(1.0, _step(LX, dX))
                mu_aff = _inner(X + ad * dX, S + ap * dS) / n
                sigma = min(1.0, (mu_aff / mu) ** 3)
                dy, dS, dX = direction(sigma * mu, dX @ dS @ Si)
                ap = min(1.0, STEP_FRACTION * _step(LS, dS))
                ad = min(1.0, STEP_FRACTION * _step(LX, dX))
            except (np.linalg.LinAlgError, FloatingPointError):
                break
            y, S, X = y + ap * dy, S + ap * dS, X + ad * dX
    if not feasible:
        raise InfeasibleError("no iterate met the constraints within tol")
    if bound is None:
        raise UnboundedError("no dual bound was formed; the objective may "
                             "be unbounded")
    raise SdpError(f"stopped at duality gap {gap:.3g} after {it} "
                   f"iterations (tolerance {tol:g})")


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
