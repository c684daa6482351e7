"""Small dense semidefinite feasibility and linear optimization over affine
sections of the PSD cone.

Feasibility runs Douglas-Rachford projection splitting between the PSD cone
(eigenvalue clipping) and the affine subspace (orthogonal projection via a
precomputed SVD of the constraint system); the affine projection of the cone
shadow is the reported iterate. Plain Dykstra-corrected alternating
projections only reach O(1/k) PSD floors on near-tangent moment instances,
which is why the reflected update is used.

When the constraints fix the trace, the gap between the cone point and its
affine projection is a dual certificate (the infeasibility certificate of
operator splitting, see _DualGap). A feasibility solve ends as "infeasible"
as soon as one excludes every PSD point whose affine residual is within its
tolerance; otherwise it ends "converged", "stalled" (the PSD floor stopped
improving) or at "max_iter".

Optimization bisects on the objective level set. Every level reuses the one
base projector: the level row is a closed-form rank-one correction. The
same dual gap bounds the objective, and a level ends as soon as that bound
falls below it. Levels without such a bound end when the PSD floor stalls.
Every level ends with one of LEVEL_STATUSES, and maximize counts them.

The splitting loop works on the real parametrization of _HermitianVec,
whose vec and unvec are one gather each through precomputed index maps:
at these sizes a step's cost is numpy call overhead. The maps repeat the
float operations of the plain formulas, so every iterate is bit-identical
to them. The Bell see-saw solves its POVM updates with its own
interior-point step (bell._povm_step), so a change that moves iterates in
their last bits moves reported values in their last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AffineConstraint",
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


@dataclass(frozen=True)
class AffineConstraint:
    """sum over (row, col, coeff) of coeff * b[row, col] == rhs."""

    entries: tuple[tuple[int, int, complex], ...]
    rhs: complex

    def __post_init__(self):
        merged: dict[tuple[int, int], complex] = {}
        for r, c, coef in self.entries:
            merged[(r, c)] = merged.get((r, c), 0j) + complex(coef)
        object.__setattr__(
            self, "entries",
            tuple((r, c, coef) for (r, c), coef in sorted(merged.items())))
        object.__setattr__(self, "rhs", complex(self.rhs))


@dataclass
class SdpInstance:
    n: int
    constraints: list[AffineConstraint] = field(default_factory=list)
    objective: tuple[tuple[int, int, complex], ...] = ()


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


class _HermitianVec:
    """Isometric real parametrization of hermitian n x n matrices:
    [diag; sqrt2*Re upper; sqrt2*Im upper].

    vec and unvec are one gather each through index maps formed here, over
    the float view of a C-ordered complex matrix (Re and Im of each entry
    in turn). vec multiplies the gathered entries by 1 (diagonal) or sqrt2;
    unvec gathers from [v + pad, 0] and multiplies by 1 (diagonal) or
    1/sqrt2, negated for the imaginary parts below the diagonal.

    These are the float operations of the plain formulas, so splitting
    iterates stay bit-identical to them: the plain unvec's
    (re + 1j*im) / sqrt2 is a numpy complex division, which multiplies by
    1/sqrt2. Adding pad (+0.0 off the diagonal, -0.0 on it) signs zeros as
    that complex sum did, except that an off-diagonal -0.0 real part beside
    a negative imaginary part now comes out +0.0. unvec refills a buffer
    of the instance, so an instance serves one thread.
    """

    def __init__(self, n: int):
        self.n = n
        self.iu = np.triu_indices(n, 1)
        self.k = k = len(self.iu[0])
        self.dim = n + 2 * k
        self.pos = {(int(i), int(j)): p
                    for p, (i, j) in enumerate(zip(*self.iu))}
        self._s2 = s2 = np.sqrt(2.0)
        diag = np.arange(n) * (n + 1)
        upper = self.iu[0] * n + self.iu[1]
        lower = self.iu[1] * n + self.iu[0]
        self._vec_src = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
        self._vec_weight = np.repeat([1.0, s2], [n, 2 * k])
        re, im = np.arange(n, n + k), np.arange(n + k, self.dim)
        src = np.full(2 * n * n, self.dim)
        weight = np.ones(2 * n * n)
        src[2 * diag] = np.arange(n)
        for flat, sign in ((upper, 1.0), (lower, -1.0)):
            src[2 * flat], src[2 * flat + 1] = re, im
            weight[2 * flat], weight[2 * flat + 1] = 1.0 / s2, sign / s2
        self._unvec_src, self._unvec_weight = src, weight
        self._pad = np.repeat([-0.0, 0.0], [n, 2 * k])
        self._buf = np.zeros(self.dim + 1)
        self._head = self._buf[:self.dim]

    def vec(self, M: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(M, dtype=complex).reshape(-1)
        return flat.view(np.float64)[self._vec_src] * self._vec_weight

    def unvec(self, v: np.ndarray) -> np.ndarray:
        np.add(v, self._pad, out=self._head)
        M = self._buf[self._unvec_src] * self._unvec_weight
        return M.view(complex).reshape(self.n, self.n)

    def constraint_rows(self, con: AffineConstraint):
        """Realify one complex constraint into up to two real rows."""
        row_re = np.zeros(self.dim)
        row_im = np.zeros(self.dim)
        for r, c, coef in con.entries:
            if not (0 <= r < self.n and 0 <= c < self.n):
                raise ValueError("constraint index out of range")
            if r == c:
                row_re[r] += coef.real
                row_im[r] += coef.imag
            else:
                i, j = (r, c) if r < c else (c, r)
                s = 1.0 if r < c else -1.0
                px = self.n + self.pos[(i, j)]
                py = self.n + self.k + self.pos[(i, j)]
                row_re[px] += coef.real / self._s2
                row_re[py] += -s * coef.imag / self._s2
                row_im[px] += coef.imag / self._s2
                row_im[py] += s * coef.real / self._s2
        rows, rhs = [], []
        for row, val in ((row_re, con.rhs.real), (row_im, con.rhs.imag)):
            if np.max(np.abs(row)) > 1e-14 or abs(val) > 1e-14:
                rows.append(row)
                rhs.append(val)
        return rows, rhs

    def objective_vec(self, objective) -> np.ndarray:
        """Realified gradient of b -> Re sum coef * b[row, col] (the same
        entrywise reading as AffineConstraint)."""
        C = np.zeros((self.n, self.n), dtype=complex)
        for r, c, coef in objective:
            C[r, c] += np.conj(coef)
        C = 0.5 * (C + C.conj().T)
        return self.vec(C)


class _AffineProjector:
    """Orthogonal projection onto {x : Lx = r} with a rank-revealing SVD."""

    def __init__(self, L: np.ndarray, rhs: np.ndarray):
        self.L = L
        self.rhs = rhs
        if L.shape[0] == 0:
            self.rank = 0
            self.Q = np.zeros((L.shape[1], 0))
            self._U = np.zeros((0, 0))
            self._S = np.zeros(0)
            self.x0 = np.zeros(L.shape[1])
            return
        U, S, Vt = np.linalg.svd(L, full_matrices=False)
        cut = (S[0] * 1e-12) if S.size and S[0] > 0 else 0.0
        self.rank = int(np.sum(S > cut))
        self.Q = Vt[:self.rank].T
        self._U = U[:, :self.rank]
        self._S = S[:self.rank]
        self.x0 = self.Q @ ((self._U.T @ rhs) / self._S)
        resid = float(np.max(np.abs(L @ self.x0 - rhs)))
        if resid > 1e-8 * (1.0 + float(np.max(np.abs(rhs)))):
            raise InconsistentConstraintsError(
                f"affine system is inconsistent (residual {resid:g})")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.rank == 0:
            return x
        return x - self.Q @ (self.Q.T @ x) + self.x0

    def multipliers(self, Qx: np.ndarray) -> np.ndarray:
        """lam with L^T lam = QQ^T x, from Qx = Q^T x."""
        return self._U @ (Qx / self._S)

    def residual(self, x: np.ndarray) -> float:
        if self.L.shape[0] == 0:
            return 0.0
        return float(np.max(np.abs(self.L @ x - self.rhs)))


def _build_system(hv: _HermitianVec, constraints):
    rows, rhs = [], []
    for con in constraints:
        r, v = hv.constraint_rows(con)
        rows.extend(r)
        rhs.extend(v)
    if rows:
        return np.array(rows), np.array(rhs)
    return np.zeros((0, hv.dim)), np.zeros(0)


def _min_eig_vec(hv: _HermitianVec, v: np.ndarray) -> float:
    M = hv.unvec(v)
    return float(np.linalg.eigvalsh(M)[0])


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
    certificate of operator splitting). They exist when the rows of `base`
    fix the trace tr b = tau; `trace` is tau, or None when they do not.

    Take Y, the gap between a cone point and its affine projection, and w,
    a vector in the row space of L (up to rounding). Every b >= 0 with
    Lb = r has <Y, b> >= tau min(0, lmin(Y)) and, with e the part of w
    outside the row space, <w, b> <= <w, x0> + tau |e|. Hence

        <Y - w, b> >= -g,   g = <w, x0> + tau slack,
        slack = |e| - min(0, lmin(Y)).

    With w = Y, g < 0 proves the set empty (`excluded`); with w = Y - mu c,
    it bounds the objective <c, b> (_LevelSets.bound). The |e| charge
    matters there: dividing g by a small -mu amplifies the rounding that
    leaves w outside the row space.
    """

    def __init__(self, hv: _HermitianVec, base: _AffineProjector):
        self.hv = hv
        self.base = base
        eye = hv.vec(np.eye(hv.n, dtype=complex))
        Qe = base.Q.T @ eye
        fixed = (np.linalg.norm(eye - base.Q @ Qe)
                 <= FIXED_TRACE_REL * np.linalg.norm(eye))
        self.trace = float(eye @ base.x0) if fixed else None
        # tr b = nu^T Lb, so tr b <= tau + |nu|_1 delta when |Lb - r| <= delta
        self._nu_l1 = (float(np.sum(np.abs(base.multipliers(Qe))))
                       if fixed else 0.0)

    def __call__(self, w: np.ndarray, Y: np.ndarray):
        """(g, slack, Q^T w) for the pair (w, Y)."""
        Qw = self.base.Q.T @ w
        e = w - self.base.Q @ Qw
        slack = float(np.linalg.norm(e)) - min(0.0, _min_eig_vec(self.hv, Y))
        return float(w @ self.base.x0) + self.trace * slack, slack, Qw

    def excluded(self, Y: np.ndarray) -> float:
        """The largest delta such that no b >= 0 has |Lb - r| < delta,
        as certified by Y (<= 0 when Y certifies nothing).

        With Y - e = L^T lam, such a b has <Y - e, b> <= lam^T r
        + |lam|_1 delta and tr b <= tau + |nu|_1 delta, so the bound on g
        above becomes 0 <= g + delta (|lam|_1 + slack |nu|_1).
        """
        g, slack, QY = self(Y, Y)
        if g >= 0.0:
            return 0.0
        lam_l1 = float(np.sum(np.abs(self.base.multipliers(QY))))
        return -g / (lam_l1 + slack * self._nu_l1)


def _splitting(hv, affine, start, tol, max_iter, reject=None):
    """Douglas-Rachford splitting between the PSD cone and the affine set
    that `affine` projects onto, started from the affine point `start`.

    Each step maps z to the cone point y = vec(clip(eigh(unvec(z)))) and
    then updates z <- z + affine(2y - z) - y. Every CHECK_EVERY iterations
    the affine projection x of the cone point y is scored by its PSD floor;
    the solve ends "converged" when the floor reaches -tol, "infeasible"
    when `reject(y, x)` reports that the affine set misses the cone,
    "stalled" when the floor stalls, and "max_iter" when the iterations run
    out. Returns (best x, its floor, iterations, status).
    """
    unvec, vec, eigh, maximum = hv.unvec, hv.vec, np.linalg.eigh, np.maximum

    def cone(v):
        w, U = eigh(unvec(v))
        return vec((U * maximum(w, 0.0)) @ U.conj().T)

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
            floor = _min_eig_vec(hv, x)
            if floor > best_floor:
                best_floor = floor
                best_x = x.copy()
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
    return best_x, best_floor, it, status


def _solve(hv, projector, tol, max_iter, start_vec=None) -> FeasibilityResult:
    start = (projector.apply(start_vec) if start_vec is not None
             else projector.x0.copy())
    gap = _DualGap(hv, projector)
    best = [0.0, None]
    reject = None
    if gap.trace is not None:
        def reject(y, x):
            Y = y - x
            delta = gap.excluded(Y)
            if delta > best[0]:
                best[:] = delta, Y
            return delta > tol

    x, floor, it, status = _splitting(hv, projector.apply, start, tol,
                                      max_iter, reject)
    psd_res = max(0.0, -floor)
    aff_res = projector.residual(x)
    ok = psd_res <= tol and aff_res <= tol
    if not ok and status == "converged":
        # the floor was reached but the affine residual was not
        status = "stalled"
    delta, Y = best
    return FeasibilityResult(
        ok, hv.unvec(x), psd_res, aff_res, it,
        "" if ok else "no PSD point found within tolerance", status,
        float(delta) if Y is not None else None,
        hv.unvec(Y) if Y is not None else None)


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
    hv = _HermitianVec(inst.n)
    projector = _AffineProjector(*_build_system(hv, inst.constraints))
    start_vec = hv.vec(start) if start is not None else None
    return _solve(hv, projector, tol, max_iter, start_vec)


class _LevelSets:
    """Feasibility of the level sets {Lx = r, <c,x> = t} of one instance,
    all projected with the base projector of {Lx = r}.

    On {Lx = r} the objective reads <c,x> = <c~,x> + <c,x0> with
    c~ = c - QQ^T c, so the level projection is the base projection plus
    the rank-one step P_t(x) = P_A(x) - ((<c,P_A(x)> - t)/|c~|^2) c~.

    When the base rows fix the trace, each check of a level whose PSD floor
    is still negative also yields a dual bound. With y the cone point,
    Y = y - P_t(y) and mu = <c~,Y>/|c~|^2, the vector w = Y - mu c lies in
    the row space of L, so _DualGap gives mu <c,b> >= -g for every feasible
    b: level t is empty once g + mu t < 0, and whenever mu < 0

        <c,b> <= U = g / (-mu).

    `upper` keeps the smallest U seen; a level t is rejected as soon as
    upper < t.
    """

    def __init__(self, hv: _HermitianVec, base: _AffineProjector,
                 c: np.ndarray):
        self.hv = hv
        self.base = base
        self.c = c
        self.c_perp = c - base.Q @ (base.Q.T @ c)
        self.c_perp_sq = float(self.c_perp @ self.c_perp)
        self.c_x0 = float(c @ base.x0)
        self.dependent = (np.sqrt(self.c_perp_sq)
                          <= DEPENDENT_ROW_REL * float(np.linalg.norm(c)))
        self.gap = _DualGap(hv, base)
        self.trace = self.gap.trace
        self.upper = np.inf
        # the magnitudes that bound the rounding of each residual
        self._row_l1 = float(np.max(np.sum(np.abs(base.L), axis=1),
                                    initial=0.0))
        self._rhs_max = float(np.max(np.abs(base.rhs), initial=0.0))
        self._c_l1 = float(np.sum(np.abs(c)))

    @property
    def certified_upper(self) -> float | None:
        return float(self.upper) if np.isfinite(self.upper) else None

    def project(self, x: np.ndarray, t: float) -> np.ndarray:
        xa = self.base.apply(x)
        return xa - ((self.c @ xa - t) / self.c_perp_sq) * self.c_perp

    def meets(self, x: np.ndarray, t: float, tol: float) -> bool:
        """Whether x satisfies the base rows and the level row, each within
        tol or within ROUNDING_ULPS of the magnitudes its residual is
        computed from (1 + |rhs| + |row|_1 |x|_max)."""
        ulp = ROUNDING_ULPS * np.finfo(float).eps
        x_max = float(np.max(np.abs(x)))
        base_tol = max(tol, ulp * (1.0 + self._rhs_max + self._row_l1 * x_max))
        row_tol = max(tol, ulp * (1.0 + abs(t) + self._c_l1 * x_max))
        return (self.base.residual(x) <= base_tol
                and abs(float(self.c @ x) - t) <= row_tol)

    def bound(self, Y: np.ndarray) -> float | None:
        """The dual bound U from Y = y - P_t(y), or None when mu >= 0."""
        mu = float(self.c_perp @ Y) / self.c_perp_sq
        if mu >= 0.0:
            return None
        g, _, _ = self.gap(Y - mu * self.c, Y)
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
            scale = 1.0 + max(abs(t), self._rhs_max)
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
        x, _, it, status = _splitting(self.hv, affine, affine(warm), tol,
                                      max_iter, reject)
        if status == "infeasible":
            return None, it, "rejected_by_bound"
        if status != "converged":
            return None, it, status
        if not self.meets(x, t, tol):
            return None, it, "affine_residual"
        return x, it, "converged"


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
    hv = _HermitianVec(inst.n)
    projector = _AffineProjector(*_build_system(hv, inst.constraints))
    obj_vec = hv.objective_vec(inst.objective)

    base = _solve(hv, projector, feas_tol, max_iter)
    total_iter = base.iterations
    if not base.feasible:
        raise InfeasibleError("no feasible point found for the base instance")
    x_lo = hv.vec(base.b)
    t_lo = float(obj_vec @ x_lo)

    if np.max(np.abs(obj_vec)) < 1e-15:
        return MaximizeResult(0.0, base.b, total_iter, (0.0, 0.0))

    # a rejected level t caps the bracket at min(t, upper), never below the
    # best feasible level
    levels = _LevelSets(hv, projector, obj_vec)
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

    return MaximizeResult(t_lo, hv.unvec(x_lo), total_iter, (t_lo, t_hi),
                          levels.certified_upper, sum(status.values()), status)


def instance_to_json(inst: SdpInstance) -> dict:
    return {
        "n": inst.n,
        "constraints": [
            {"entries": [[r, c, coef.real, coef.imag]
                         for r, c, coef in con.entries],
             "rhs": [con.rhs.real, con.rhs.imag]}
            for con in inst.constraints
        ],
        "objective": [[r, c, coef.real, coef.imag]
                      for r, c, coef in inst.objective],
    }
