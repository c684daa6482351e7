"""Small dense semidefinite feasibility and linear optimization over affine
sections of the PSD cone, for instances given as a class partition of the
entries of a hermitian matrix.

Every entry b[i, j] belongs to one class. The entries of a sum class add up
to its right-hand side (the Gram constraints of certify); the entries of a
tie class are equal, and equal to its right-hand side when it has one (the
moment constraints of bell). Distinct classes constrain distinct entries,
so the orthogonal projection onto the affine set is a per-class mean
correction: one scatter-add of the class sums and one gather (_Partition).
The level row, the fixed-trace test and the multipliers of the dual
certificates are closed forms of the same projection.

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

Optimization bisects on the objective level set. Every level reuses the one
base projection: the level row is a closed-form rank-one correction. The
same dual gap bounds the objective, and a level ends as soon as that bound
falls below it. Levels without such a bound end when the PSD floor stalls.
Every level ends with one of LEVEL_STATUSES, and maximize counts them.

The Bell see-saw solves its POVM updates with its own interior-point step
(bell._povm_step), so a change that moves splitting iterates in their last
bits moves reported values in their last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# why a bisection level ended. "converged": feasible, the level is kept;
# "rejected_by_bound": the dual bound fell below the level; "stalled" and
# "max_iter": the splitting stopped without a feasible point;
# "inconsistent": the level row depends on the base rows and contradicts
# them; "affine_residual": the PSD floor was reached but the affine residual
# stayed above tol. Every status but "converged" rejects the level.
LEVEL_STATUSES = ("converged", "rejected_by_bound", "stalled", "max_iter",
                  "inconsistent", "affine_residual")


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
    """`value` and `b` are the best feasible level and its point; the
    bracket top is the lowest rejected level. `certified_upper` is the
    smallest dual bound formed (None without one), `levels` counts the
    level solves and `level_status` counts them by LEVEL_STATUSES."""

    value: float
    b: np.ndarray
    iterations: int
    bracket: tuple[float, float]
    certified_upper: float | None = None
    levels: int = 0
    level_status: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(LEVEL_STATUSES, 0))


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
    np.bincount over the float view of X, with labels 2k (real parts) and
    2k + 1 (imaginary parts), so every matrix passed in is a C-contiguous
    complex array.
    """

    def __init__(self, inst: SdpInstance):
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
        self.rhs_max = float(np.max(np.abs(rhs[fixed].view(np.float64)),
                                     initial=0.0))
        mismatch = float(np.max(np.abs(rhs[transpose] - rhs.conj())[fixed],
                                initial=0.0))
        if mismatch > 1e-8 * (1.0 + self.rhs_max):
            raise InconsistentConstraintsError(
                f"affine system is inconsistent: a class and its transpose "
                f"carry values that are not conjugate (residual "
                f"{mismatch:g})")
        mean = 0.5 * (rhs + rhs[transpose].conj())
        self._beta = np.where(sums, -1.0 / size, np.where(pinned, 0.0,
                                                           1.0 / size))
        self._offset = np.where(sums, mean / size,
                                np.where(pinned, mean, 0j))
        self.x0 = self._offset[labels]
        self._keep = sums[labels].astype(float) if sums.any() else None
        self._lab2 = (2 * labels.reshape(-1, 1) + np.arange(2)).ravel()
        self._k2 = 2 * k
        self._size, self._sums, self._pinned, self._rhs = (
            size, sums, pinned, rhs)
        flat = labels.ravel()
        _, first = np.unique(flat, return_index=True)
        self._ties = np.flatnonzero(~sums[flat])
        self._tie_labels = flat[self._ties]
        self._ref = first[self._tie_labels]
        # the multipliers of a tie class live on its entries but the first
        # (instance_to_json writes no row for it)
        self._lam_weight = np.where(sums[flat], 0.0, 1.0)
        self._lam_weight[first[~sums & ~pinned]] = 0.0
        self._tie_mean = np.where(sums | pinned, 0.0, 1.0 / size)
        # the largest l1 norm of a residual's coefficients in the entries
        self.row_l1 = float(max(np.max(size[sums], initial=0),
                                 2 if np.any(~fixed & (size > 1)) else 0,
                                 1 if pinned.any() else 0))

    def class_sums(self, X: np.ndarray) -> np.ndarray:
        return np.bincount(self._lab2, X.view(np.float64).ravel(),
                           self._k2).view(complex)

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


# stall detection: every CHECK_EVERY iterations the PSD floor of the
# affine-exact iterate is measured; if the best floor improves by less than
# STALL_REL over STALL_WINDOW consecutive checks the solve is abandoned
CHECK_EVERY = 25
STALL_WINDOW = 40
STALL_REL = 1e-3
MIN_ITER_BEFORE_STALL = 2000
# the level row counts as a combination of the base rows below this norm of
# its part orthogonal to them (relative to the row), and the trace counts as
# fixed by the base rows below this relative norm of its orthogonal part
DEPENDENT_ROW_REL = 1e-10
FIXED_TRACE_REL = 1e-9
# an affine residual within this many ulps of the magnitudes it is computed
# from is rounding, which no tol can ask to beat (_LevelSets.meets)
ROUNDING_ULPS = 4


class _DualGap:
    """Dual certificates of {b >= 0 : Lb = r} (the infeasibility
    certificate of operator splitting), L the rows of the partition. They
    exist when the rows fix the trace tr b = tau; `trace` is tau, or None
    when they do not.

    Take Y, the gap between a cone point and its affine projection, and w,
    a matrix in the row space of L (up to rounding). Every b >= 0 with
    Lb = r has <Y, b> >= tau min(0, lmin(Y)) and, with e = null(w) the part
    of w outside the row space, <w, b> <= <w, x0> + tau |e|. Hence

        <Y - w, b> >= -g,   g = <w, x0> + tau slack,
        slack = |e| - min(0, lmin(Y)).

    With w = Y, g < 0 proves the set empty (`excluded`); with w = Y - mu c,
    it bounds the objective <c, b> (_LevelSets.bound). The |e| charge
    matters there: dividing g by a small -mu amplifies the rounding that
    leaves w outside the row space.
    """

    def __init__(self, base: _Partition):
        self.base = base
        eye = np.eye(base.n, dtype=complex)
        fixed = (np.linalg.norm(base.null(eye))
                 <= FIXED_TRACE_REL * np.sqrt(base.n))
        self.trace = float(np.trace(base.x0).real) if fixed else None
        # tr b = nu^T Lb, so tr b <= tau + |nu|_1 delta when |Lb - r| <= delta
        self._nu_l1 = base.multiplier_l1(eye) if fixed else 0.0

    def __call__(self, w: np.ndarray, Y: np.ndarray):
        """(g, slack) for the pair (w, Y)."""
        slack = float(np.linalg.norm(self.base.null(w))) - min(0.0, _lmin(Y))
        return _inner(w, self.base.x0) + self.trace * slack, slack

    def excluded(self, Y: np.ndarray) -> float:
        """The largest delta such that no b >= 0 has |Lb - r| < delta,
        as certified by Y (<= 0 when Y certifies nothing).

        With Y - e = L^T lam, such a b has <Y - e, b> <= lam^T r
        + |lam|_1 delta and tr b <= tau + |nu|_1 delta, so the bound on g
        above becomes 0 <= g + delta (|lam|_1 + slack |nu|_1).
        """
        g, slack = self(Y, Y)
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


def _solve(base: _Partition, tol, max_iter, start=None) -> FeasibilityResult:
    start = base.apply(start) if start is not None else base.x0.copy()
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

    x, floor, it, status = _splitting(base.apply, start, tol, max_iter,
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
                      max_iter: int = DEFAULT_MAX_ITER,
                      start: np.ndarray | None = None) -> FeasibilityResult:
    """Find b >= 0 satisfying every affine constraint within tol, or report
    the best residuals reached and why the solve stopped.

    Raises InconsistentConstraintsError when the affine system alone is
    unsolvable (distinct from PSD infeasibility, which yields a non-feasible
    result).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if start is not None:
        start = _hermitian(np.asarray(start, dtype=complex))
    return _solve(_Partition(inst), tol, max_iter, start)


class _LevelSets:
    """Feasibility of the level sets {Lx = r, <c,x> = t} of one instance,
    all projected with the base projection P_A onto {Lx = r}.

    On {Lx = r} the objective reads <c,x> = <c~,x> + <c,x0> with
    c~ = null(c), so the level projection is the base projection plus
    the rank-one step P_t(x) = P_A(x) - ((<c,P_A(x)> - t)/|c~|^2) c~.

    When the base rows fix the trace, each check of a level whose PSD floor
    is still negative also yields a dual bound. With y the cone point,
    Y = y - P_t(y) and mu = <c~,Y>/|c~|^2, the matrix w = Y - mu c lies in
    the row space of L, so _DualGap gives mu <c,b> >= -g for every feasible
    b: level t is empty once g + mu t < 0, and whenever mu < 0

        <c,b> <= U = g / (-mu).

    `upper` keeps the smallest U seen; a level t is rejected as soon as
    upper < t.
    """

    def __init__(self, base: _Partition, c: np.ndarray):
        self.base = base
        self.c = c
        self.c_perp = base.null(c)
        self.c_perp_sq = _inner(self.c_perp, self.c_perp)
        self.c_x0 = _inner(c, base.x0)
        self.dependent = (np.sqrt(self.c_perp_sq)
                          <= DEPENDENT_ROW_REL * float(np.linalg.norm(c)))
        self.gap = _DualGap(base)
        self.trace = self.gap.trace
        self.upper = np.inf
        self._c_l1 = float(np.sum(np.abs(c.view(np.float64))))

    @property
    def certified_upper(self) -> float | None:
        return float(self.upper) if np.isfinite(self.upper) else None

    def project(self, x: np.ndarray, t: float) -> np.ndarray:
        xa = self.base.apply(x)
        return xa - ((np.vdot(self.c, xa).real - t) / self.c_perp_sq
                     ) * self.c_perp

    def meets(self, x: np.ndarray, t: float, tol: float) -> bool:
        """Whether x satisfies the base rows and the level row, each within
        tol or within ROUNDING_ULPS of the magnitudes its residual is
        computed from (1 + |rhs| + |row|_1 |x|_max)."""
        ulp = ROUNDING_ULPS * np.finfo(float).eps
        x_max = float(np.max(np.abs(x)))
        base_tol = max(tol, ulp * (1.0 + self.base.rhs_max
                                   + self.base.row_l1 * x_max))
        row_tol = max(tol, ulp * (1.0 + abs(t) + self._c_l1 * x_max))
        return (self.base.residual(x) <= base_tol
                and abs(_inner(self.c, x) - t) <= row_tol)

    def bound(self, Y: np.ndarray) -> float | None:
        """The dual bound U from Y = y - P_t(y), or None when mu >= 0."""
        mu = _inner(self.c_perp, Y) / self.c_perp_sq
        if mu >= 0.0:
            return None
        g, _ = self.gap(Y - mu * self.c, Y)
        return g / -mu

    def _reject(self, y: np.ndarray, x: np.ndarray, t: float) -> bool:
        U = self.bound(y - x)
        if U is not None:
            self.upper = min(self.upper, U)
        return self.upper < t

    def solve(self, t: float, tol: float, max_iter: int, warm: np.ndarray):
        """(x, iterations, status) with x feasible at level t within tol, or
        None when the level is rejected; status is one of LEVEL_STATUSES."""
        if self.dependent:
            # <c,x> = <c,x0> on the whole affine set
            scale = 1.0 + max(abs(t), self.base.rhs_max)
            if abs(self.c_x0 - t) > 1e-8 * scale:
                return None, 0, "inconsistent"
            affine, reject = self.base.apply, None
        else:
            def affine(v):
                return self.project(v, t)

            reject = None
            if self.trace is not None:
                def reject(y, x):
                    return self._reject(y, x, t)
        x, _, it, status = _splitting(affine, affine(warm), tol, max_iter,
                                      reject)
        if status == "infeasible":
            return None, it, "rejected_by_bound"
        if status != "converged":
            return None, it, status
        if not self.meets(x, t, tol):
            return None, it, "affine_residual"
        return x, it, "converged"


def _objective_matrix(inst: SdpInstance) -> np.ndarray:
    """The hermitian C with <C, b> = Re sum coef * b[row, col]."""
    C = np.zeros((inst.n, inst.n), dtype=complex)
    for r, c, coef in inst.objective:
        C[r, c] += np.conj(coef)
    return _hermitian(C)


def maximize(inst: SdpInstance, tol: float = DEFAULT_OPT_TOL,
             feas_tol: float | None = None,
             max_iter: int = 60_000) -> MaximizeResult:
    """Maximize Re sum coef * b[row, col] over the feasible region by
    bisection on the objective level set.

    A level is rejected once the dual bound of _LevelSets drops below it,
    and otherwise when its splitting stalls. The feasible region must be
    nonempty and bounded in the objective direction; unboundedness is
    reported once the level exceeds 1/tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if feas_tol is None:
        feas_tol = min(DEFAULT_FEAS_TOL, tol * 1e-3)
    partition = _Partition(inst)
    C = _objective_matrix(inst)

    base = _solve(partition, feas_tol, max_iter)
    total_iter = base.iterations
    if not base.feasible:
        raise InfeasibleError("no feasible point found for the base instance")
    x_lo = base.b
    t_lo = _inner(C, x_lo)

    if np.max(np.abs(C), initial=0.0) < 1e-15:
        return MaximizeResult(0.0, base.b, total_iter, (0.0, 0.0))

    # a rejected level t caps the bracket at min(t, upper), never below the
    # best feasible level
    levels = _LevelSets(partition, C)
    status = dict.fromkeys(LEVEL_STATUSES, 0)
    # expand upward from the feasible value until a level is rejected
    step = max(1.0, abs(t_lo))
    t_hi = None
    while t_hi is None:
        cand = t_lo + step
        x, it, why = levels.solve(cand, feas_tol, max_iter, x_lo)
        total_iter += it
        status[why] += 1
        if x is not None:
            t_lo, x_lo = cand, x
            step *= 2.0
            if t_lo > 1.0 / tol:
                raise UnboundedError("objective exceeds 1/tol; unbounded?")
        else:
            t_hi = max(t_lo, min(cand, levels.upper))

    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        x, it, why = levels.solve(mid, feas_tol, max_iter, x_lo)
        total_iter += it
        status[why] += 1
        if x is not None:
            t_lo, x_lo = mid, x
        else:
            t_hi = max(t_lo, min(mid, levels.upper))

    return MaximizeResult(t_lo, x_lo, total_iter, (t_lo, t_hi),
                          levels.certified_upper, sum(status.values()), status)


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
