"""Quantum correlation sets for two parties with d settings and m outcomes:
exact tensor-model points from explicit PVMs, see-saw inner bounds, and outer
bounds from the positive-type moment hierarchy over Z_m^{*d} x Z_m^{*d}.

The outer bound and the correlation tensor are tied together by the Fourier
correspondence between the minimal projections of l_inf^m and the cyclic
generator: p_i = (1/m) sum_v omega^{-iv} s^v, so

    gamma[k,l,i,j] = (1/m^2) sum_{v,w=1..m} omega^(-iv-jw) h(s_k^v t_l^w)

for the state h of the moment matrix. The weights omega^k come from the
table BellScenario.roots, exact at 1, -1 and +-i, so a two-outcome
functional gives an exactly real instance.

The outer bound is the dual bound of sdpcore.maximize on the moment form
(sdpcore.moment_form) of these terms, solved over real symmetric matrices
when the instance is real.

The see-saw (inner_bound) holds each party's measurements as one
(d, m, dim, dim) stack of effects (PvmFamily), and runs all its restarts as
one stack along a leading axis: (R, d, m, dim, dim) effects, (R, N, N) Bell
operators with N = dim^2, and the restarts still improving as the active
rows. It alternates the state, the top eigenvector of the Bell operator
(one stacked eigh), with measurement updates of one party at a time against
its effect multipliers G (one einsum over the other party's stack). Every
new family and every correlation is checked at every step, one check over
the stack. Two outcomes have a closed-form update: the spectral projectors
of G_1 - G_2, one stacked eigh over the R d settings. For m >= 3 outcomes
each (restart, setting) update is a small SDP over POVMs,
max sum_i tr(G_i M_i) with M_i >= 0 and sum_i M_i = I (povm_instance),
to a duality gap that scales with G. The R d updates of a step share
their constraints, so they are one sdpcore.maximize_many call
(_solve_povms), whose stacked interior point gives each the result of its
own solve. Each update's effects are checked as a POVM within PVM_TOL and
rounded back to a PVM of the same dimension (_round_to_pvm), which settles
weights and scores within TIE_TOL of a tie by a fixed rule, so a last-bit
change in the solve does not change the path.

Each restart r draws its start from default_rng([seed, r]), is compared
with ACCEPT_MARGIN against its own value and stops on its own, so the
result is bit for bit that of running the restarts one after another. The
Bell operators of a step come from tables of R T N^2 complex entries for
the T <= d^2 m^2 nonzero coefficients. When several restarts fail a check
in the same step, the error raised is that of the stack, which need not be
the one the first failing restart alone would raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .denselin import adjoint, eigh
from .quotients import QuotientTable
from .sdpcore import (MaximizeResult, SdpInstance, maximize, maximize_many,
                      moment_form)
from .words import (
    GroupSpec,
    Word,
    cyclic_free_product,
    direct_product,
    generator,
    multiply,
    pair_word,
    sort_key,
    unit,
)

__all__ = [
    "BellScenario",
    "PvmFamily",
    "Correlation",
    "BellFunctional",
    "correlation_of",
    "outer_bound",
    "inner_bound",
    "parse_level",
    "hierarchy_words",
    "moment_instance",
    "povm_instance",
]

PVM_TOL = 1e-9
OUTER_DEFAULT_TOL = 2e-7
# effect weights and scores closer than this count as tied when rounding
TIE_TOL = 1e-6
# a see-saw update, or a later restart, replaces the current strategy only
# when it raises the value by more than this, so the strategy kept does not
# depend on the last bits of the value
ACCEPT_MARGIN = 1e-12


@dataclass(frozen=True)
class BellScenario:
    """d settings per party, m outcomes per setting."""

    d: int
    m: int

    def __post_init__(self):
        if self.d < 1 or self.m < 2:
            raise ValueError("need d >= 1 and m >= 2")

    @property
    def roots(self) -> tuple[complex, ...]:
        """omega^k = exp(2 pi i k / m) for k = 0..m-1, exact at 1, -1 and
        +-i (4k a multiple of m)."""
        m = self.m
        return tuple((1.0 + 0j, 1j, -1.0 + 0j, -1j)[4 * k // m]
                     if 4 * k % m == 0 else complex(np.exp(2j * np.pi * k / m))
                     for k in range(m))


def _check_pvms(P: np.ndarray, dim: int, ndim: int = 4) -> None:
    """Raise ValueError unless P, an ndim-dimensional stack (..., d, m, dim,
    dim) of effects, holds one PVM per setting within PVM_TOL: hermitian,
    idempotent effects that sum to the identity."""
    if P.ndim != ndim or P.shape[-2:] != (dim, dim):
        raise ValueError("projection dimension mismatch")
    if np.max(np.abs(P - adjoint(P))) > PVM_TOL:
        raise ValueError("effect is not hermitian")
    if np.max(np.abs(P @ P - P)) > PVM_TOL:
        raise ValueError("effect is not idempotent")
    if np.max(np.abs(P.sum(axis=-3) - np.eye(dim))) > PVM_TOL:
        raise ValueError("effects do not sum to the identity")


@dataclass
class PvmFamily:
    """One m-outcome projective measurement per setting on a common space:
    settings[k, i] is effect i of setting k, a complex (d, m, dim, dim)
    array."""

    dim: int
    settings: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.settings, dtype=complex)
        _check_pvms(P, self.dim)
        self.settings = P


def _check_correlations(g: np.ndarray, ndim: int = 4) -> None:
    """Raise ValueError unless g, an ndim-dimensional stack (..., d, d, m,
    m) of joint outcome probabilities, holds nonnegative, normalized
    distributions whose marginals do not depend on the other party's
    setting."""
    if (g.ndim != ndim or g.shape[-4] != g.shape[-3]
            or g.shape[-2] != g.shape[-1]):
        raise ValueError("correlation tensor must be d x d x m x m")
    if np.min(g) < -1e-10:
        raise ValueError("negative probability entry")
    sums = g.sum(axis=(-2, -1))
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ValueError("outcome distributions do not normalize")
    margA = g.sum(axis=-1)  # [..., k, l, i]
    if np.max(np.abs(margA - margA[..., :, :1, :])) > 1e-9:
        raise ValueError("A-marginals depend on B's setting")
    margB = g.sum(axis=-2)  # [..., k, l, j]
    if np.max(np.abs(margB - margB[..., :1, :, :])) > 1e-9:
        raise ValueError("B-marginals depend on A's setting")


@dataclass
class Correlation:
    """gamma[k][l][i][j] = joint outcome probabilities, one row per setting
    pair."""

    data: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.data, dtype=float)
        _check_correlations(g)
        object.__setattr__(self, "data", g)


@dataclass(frozen=True)
class BellFunctional:
    """Linear functional sum c[k][l][i][j] * gamma[k][l][i][j]."""

    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=float)
        if c.ndim != 4 or c.shape[0] != c.shape[1] or c.shape[2] != c.shape[3]:
            raise ValueError("coefficient tensor must be d x d x m x m")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeff", c)

    @property
    def scenario(self) -> BellScenario:
        return BellScenario(self.coeff.shape[0], self.coeff.shape[2])

    def value(self, corr: Correlation) -> float:
        return float(np.sum(self.coeff * corr.data))

    @staticmethod
    def from_correlators(w) -> "BellFunctional":
        """Two-outcome correlator functional sum w[k][l] <A_k B_l> with
        outcomes valued (-1, +1)."""
        w = np.asarray(w, dtype=float)
        sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
        return BellFunctional(w[:, :, None, None] * sign)


def correlation_of(A: PvmFamily, B: PvmFamily, xi: np.ndarray) -> Correlation:
    """gamma[k][l][i][j] = <(P_i^k (x) Q_j^l) xi, xi> for a unit vector xi on
    the tensor product space."""
    xi = np.asarray(xi, dtype=complex).reshape(1, -1)
    return Correlation(_correlations(A.settings[None], B.settings[None],
                                     xi)[0])


def _correlations(A: np.ndarray, B: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The (R, d, d, m, m) correlation tensors of a stack of strategies:
    effect stacks A (R, d, m, dim_A, dim_A) and B (R, d, m, dim_B, dim_B)
    and states xi (R, dim_A dim_B), each checked to be a unit vector. The
    caller checks the tensors: Correlation, or _check_correlations on the
    stack."""
    dim_a, dim_b = A.shape[-1], B.shape[-1]
    if xi.shape[-1] != dim_a * dim_b:
        raise ValueError("state dimension does not match the PVM spaces")
    if np.any(np.abs(np.linalg.norm(xi, axis=-1) - 1.0) > 1e-12):
        raise ValueError("state vector is not normalized")
    K = _transfer(xi.reshape(-1, dim_a, dim_b), B)
    return np.einsum("rkiab,rljba->rklij", A, K).real


def _transfer(Xi: np.ndarray, settings: np.ndarray) -> np.ndarray:
    """K[..., l, j] = Xi Q_j^(l)T Xi* for a stack of states Xi (each as a
    dim_A x dim_B matrix) and party B's effect stacks Q, so that
    <(P (x) Q_j^(l)) xi, xi> = tr(P K[l, j]) for every operator P of
    party A."""
    Xi = Xi[..., None, None, :, :]
    return Xi @ np.swapaxes(settings, -1, -2) @ adjoint(Xi)


def _product_spec(s: BellScenario) -> GroupSpec:
    cyc = cyclic_free_product(s.d, s.m)
    return direct_product(cyc, cyc)


def parse_level(level) -> str | int:
    """A hierarchy level, or its text: "1ab" ("1+ab" reads the same), or
    an integer >= 1. ValueError for anything else."""
    lvl = str(level).lower().replace("+", "")
    if lvl == "1ab":
        return lvl
    try:
        n = int(lvl)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"level must be 1ab or an integer >= 1, got "
                         f"{level!r}")
    return n


def hierarchy_words(s: BellScenario, level) -> list[Word]:
    """The index set E_n of the moment matrix.

    Level 1: unit, (s_k^v, 1), (1, t_l^w). Level "1ab" adds (s_k^v, t_l^w).
    Integer level n: all pairs with total syllable count at most n.
    """
    spec = _product_spec(s)
    cyc, lvl = spec.left, parse_level(level)
    one_each = lvl == "1ab"
    # the reduced words of Z_m^{*d} with at most 1 (level 1ab) or n syllables
    base = frontier = [unit(cyc)]
    for _ in range(1 if one_each else lvl):
        frontier = [multiply(w, generator(cyc, gen, e)) for w in frontier
                    for gen in range(1, cyc.d + 1)
                    if not w.letters or gen != w.letters[-1][0]
                    for e in range(1, cyc.m)]
        base = base + frontier
    return sorted((pair_word(spec, x, y) for x in base for y in base
                   if one_each or len(x.letters) + len(y.letters) <= lvl),
                  key=sort_key)


def moment_instance(s: BellScenario, functional: BellFunctional, level):
    """The hierarchy SDP and its index set, (SdpInstance, E_n): the moment
    form (sdpcore.moment_form) over E_n of the functional's Fourier terms,
    c[k,l,i,j] / m^2 omega^(-iv-jw) at s_k^v t_l^w for v, w = 1..m, added
    up in (k, l, i, j, v, w) order."""
    spec = _product_spec(s)
    cyc, m, roots = spec.left, s.m, s.roots
    slot: dict[Word, int] = {}
    sums: dict[int, complex] = {}
    for k in range(s.d):
        for l in range(s.d):
            # the words s_k^v t_l^w as int slots, looked up once per (k, l):
            # the loop below adds by slot, not by Word key
            grid = [[slot.setdefault(pair_word(
                        spec, generator(cyc, k + 1, v % m),
                        generator(cyc, l + 1, w % m)), len(slot))
                     for w in range(1, m + 1)] for v in range(1, m + 1)]
            for (i, j), coef in np.ndenumerate(functional.coeff[k, l]):
                if coef == 0.0:
                    continue
                for v, w in product(range(1, m + 1), repeat=2):
                    at = grid[v - 1][w - 1]
                    sums[at] = sums.get(at, 0j) + (
                        coef / m ** 2
                        * roots[(-(i + 1) * v - (j + 1) * w) % m])
    words = list(slot)
    E = hierarchy_words(s, level)
    return moment_form({words[at]: value for at, value in sums.items()},
                       QuotientTable(E)), E


def outer_bound(s: BellScenario, functional: BellFunctional, level,
                tol: float = OUTER_DEFAULT_TOL,
                instance: SdpInstance | None = None) -> MaximizeResult:
    """Upper bound on the functional over commuting-model correlations via
    the level-indexed moment relaxation: the sdpcore.maximize result of
    its moment instance, whose `value` is the dual bound, within tol of the
    relaxation's optimum, `b` the moment matrix, `gap` the bound minus the
    moment matrix's value and `dual` the bound's certificate. `instance`
    is moment_instance(s, functional, level)[0] when the caller has built
    it already."""
    inst = (moment_instance(s, functional, level)[0] if instance is None
            else instance)
    return maximize(inst, tol=tol)


def _check_povm(povm: np.ndarray) -> None:
    """Raise ValueError unless the (m, n, n) stack is a finite POVM within
    PVM_TOL: every effect's hermitian part has eigenvalues >= -PVM_TOL, and
    the effects sum to I within PVM_TOL."""
    if not np.all(np.isfinite(povm)):
        raise ValueError("effect has non-finite entries")
    if np.linalg.eigvalsh(0.5 * (povm + adjoint(povm))).min() < -PVM_TOL:
        raise ValueError("effect is not PSD within tolerance")
    if np.max(np.abs(povm.sum(axis=0) - np.eye(povm.shape[-1]))) > PVM_TOL:
        raise ValueError("effects do not sum to the identity")


def _round_to_pvm(povm) -> np.ndarray:
    """Eigen-rounding: collect each effect's eigenvectors above 1/2 + TIE_TOL,
    orthogonalize them in order, and hand leftover directions to the
    best-scoring effect, the lowest index among scores within TIE_TOL of the
    best. A direction an optimal POVM splits evenly between effects thus goes
    to the same effect whatever the last bits of the solve. Takes and returns
    an (m, n, n) stack."""
    povm = np.asarray(povm, dtype=complex)
    m, n = povm.shape[:2]
    basis: list[np.ndarray] = []
    owner: list[int] = []

    def orthogonalize(v):
        for u in basis:
            v = v - u * np.vdot(u, v)
        return v

    for i, (w, U) in enumerate(zip(*eigh(povm))):
        for k in range(n - 1, -1, -1):
            if w[k] <= 0.5 + TIE_TOL:
                break
            v = orthogonalize(U[:, k])
            norm = np.linalg.norm(v)
            if norm >= 0.5:
                basis.append(v / norm)
                owner.append(i)
    if len(basis) < n:
        # orthonormal complement of the accepted vectors
        acc = np.zeros((n, n), dtype=complex)
        for u in basis:
            acc += np.outer(u, u.conj())
        w, U = eigh(np.eye(n) - acc)
        for k in range(len(w) - 1, -1, -1):
            if len(basis) == n or w[k] < 0.5:
                break
            v = orthogonalize(U[:, k])
            norm = np.linalg.norm(v)
            if norm < 1e-8:
                continue
            v = v / norm
            scores = np.array([np.vdot(v, M @ v).real for M in povm])
            basis.append(v)
            owner.append(int(np.flatnonzero(
                scores >= scores.max() - TIE_TOL)[0]))
    out = np.zeros((m, n, n), dtype=complex)
    V = np.array(basis).reshape(-1, n)
    np.add.at(out, owner, V[:, :, None] * V.conj()[:, None, :])
    return out


def _update_two_outcome(G: np.ndarray) -> np.ndarray:
    """The two-outcome measurement update of every setting at once: for the
    (..., 2, n, n) multipliers G, the exact maximizer of
    tr(G_1 M) + tr(G_2 (I - M)) over 0 <= M <= I is the spectral projector
    onto the positive part of G_1 - G_2. Returns the (..., 2, n, n) stack of
    projector pairs."""
    w, U = eigh(G[..., 0, :, :] - G[..., 1, :, :])
    P1 = (U * (w > 0.0)[..., None, :]) @ adjoint(U)
    return np.stack((P1, np.eye(G.shape[-1]) - P1), axis=-3)


def _solve_povms(G: np.ndarray):
    """The m >= 3 measurement updates of a (B, m, n, n) stack of
    multipliers G, as one sdpcore.maximize_many call: for each G_b, the
    effects maximizing sum_i tr(G_i M_i) over POVMs. Returns the
    (B, m, n, n) effects, unchecked, and the MaximizeResult of each solve.
    The absolute gap of solve b is TIE_TOL / 10 times
    max(1, n max_i |G_bi|_2): well below the ties that the rounding to a
    PVM settles, and above the 1e-8 relative gaps at which rounding stalls
    the interior point on the rank-deficient G of a see-saw."""
    B, m, n = G.shape[:3]
    scale = np.maximum(1.0, n * np.abs(np.linalg.eigvalsh(G)).max(
        axis=(1, 2)))
    results = maximize_many([povm_instance(Gb) for Gb in G],
                            0.1 * TIE_TOL * scale)
    blocks = np.array([res.b for res in results]).reshape(B, m, n, m, n)
    return blocks[:, np.arange(m), :, np.arange(m), :].swapaxes(0, 1), results


def povm_instance(G) -> SdpInstance:
    """The measurement update max sum_i tr(G_i M_i) over POVMs as a block
    diagonal SDP: the effects M_i are the m diagonal n x n blocks of one
    mn x mn matrix. The off-diagonal blocks form one tie class pinned to 0,
    and entry (a, b) of every block joins one sum class, which adds up to
    I[a, b]. The objective coefficient at entry (a, b) of block i is
    G_i[b, a], so that Re sum coef * M_i[a, b] = Re tr(G_i M_i)."""
    GT = np.swapaxes(np.asarray(G, dtype=complex), 1, 2)
    m, n = GT.shape[:2]
    block = np.arange(m * n) // n
    within = np.arange(m * n) % n
    labels = np.where(block[:, None] == block[None, :],
                      1 + within[:, None] * n + within[None, :], 0)
    rhs = [0.0] + list(np.eye(n).ravel())
    bi, a, b = np.nonzero(np.abs(GT) > 1e-15)
    objective = zip((bi * n + a).tolist(), (bi * n + b).tolist(),
                    GT[bi, a, b].tolist())
    return SdpInstance(labels, rhs, [False] + [True] * (n * n),
                       tuple(objective))


def _update_povms(G: np.ndarray, info: dict) -> np.ndarray:
    """The m >= 3 measurement update of a (..., m, n, n) stack of
    multipliers: one stacked POVM solve for all its (m, n, n) entries
    (_solve_povms), then per entry in row-major order a check as a POVM
    within PVM_TOL (ValueError otherwise) and the rounding to a PVM. Adds
    each solve to info."""
    effects, results = _solve_povms(G.reshape((-1,) + G.shape[-3:]))
    out = np.empty_like(effects)
    for b, res in enumerate(results):
        _check_povm(effects[b])
        info["sdp_calls"] += 1
        info["iterations"] += res.iterations
        info["max_gap"] = (res.gap if info["max_gap"] is None
                           else max(info["max_gap"], res.gap))
        out[b] = _round_to_pvm(effects[b])
    return out.reshape(G.shape)


def _bell_operator(c: np.ndarray, A: np.ndarray, B: np.ndarray):
    """sum c[k,l,i,j] (P_i^k (x) Q_j^l) for each pair of a stack of effect
    arrays A (..., d, m, dim_A, dim_A) and B (..., d, m, dim_B, dim_B).
    The Kronecker products of the nonzero terms come from one broadcast
    product, which multiplies the same entry pairs as np.kron, and the
    terms are added one by one from 0 in row-major order of c (one
    accumulate), as a loop of W += term would add them."""
    k, l, i, j = np.nonzero(c)
    N = A.shape[-1] * B.shape[-1]
    kron = A[..., k, i, :, None, :, None] * B[..., l, j, None, :, None, :]
    kron = kron.reshape(kron.shape[:-4] + (N, N))
    terms = np.zeros(kron.shape[:-3] + (len(k) + 1, N, N), dtype=complex)
    np.multiply(c[k, l, i, j, None, None], kron, out=terms[..., 1:, :, :])
    return np.add.accumulate(terms, axis=-3)[..., -1, :, :]


def _random_settings(dim: int, s: BellScenario, rng) -> np.ndarray:
    """The (d, m, dim, dim) effects of a random PVM family: per setting, the
    columns of a random unitary in random order, dealt to the effects in
    turn."""
    settings = np.zeros((s.d, s.m, dim, dim), dtype=complex)
    for effects in settings:
        Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Q, _ = np.linalg.qr(Z)
        V = Q[:, rng.permutation(dim)].T
        # projections on C^1 are exactly 0 or 1; avoid phase rounding
        rank_one = (np.ones((1, 1, 1)) if dim == 1
                    else V[:, :, None] * V.conj()[:, None, :])
        np.add.at(effects, np.arange(dim) % s.m, rank_one)
    return settings


def _effect_multipliers(c: np.ndarray, other: np.ndarray, Xi: np.ndarray):
    """G[k, i]: hermitian matrices so that party A's objective is
    sum_{k,i} tr(P_i^(k) G[k, i]) at the fixed state Xi (as a
    dim_A x dim_B matrix) and party B's fixed effects `other`
    (d, m, dim_B, dim_B), for the coefficients c[k, l, i, j]; a
    (d, m, dim_A, dim_A) array, or a stack of them for stacks of Xi and
    `other`. Party B's are party A's for c.transpose(1, 0, 3, 2) and
    Xi.T."""
    acc = np.einsum("klij,...ljab->...kiab", c, _transfer(Xi, other))
    return 0.5 * (acc + adjoint(acc))


class _Strategies(NamedTuple):
    """See-saw strategies of the restarts `rows`: effect stacks A and B,
    (R, d, m, dim, dim) each, unit states xi (R, dim^2) and values (R,)."""

    rows: np.ndarray
    A: np.ndarray
    B: np.ndarray
    xi: np.ndarray
    value: np.ndarray


def _evaluate(c: np.ndarray, rows: np.ndarray, A: np.ndarray,
              B: np.ndarray) -> _Strategies:
    """The state step of the restarts `rows` with effects A and B: each
    state is the top eigenvector of its Bell operator (one stacked eigh),
    and each value is sum c * gamma over its checked correlation."""
    _, U = eigh(_bell_operator(c, A, B))
    xi = U[..., -1]
    # np.linalg.norm per state: norm(axis=-1) sums in another order
    xi = xi / np.array([np.linalg.norm(v) for v in xi])[:, None]
    g = _correlations(A, B, xi)
    _check_correlations(g, ndim=5)
    return _Strategies(rows, A, B, xi, np.sum(c * g, axis=(1, 2, 3, 4)))


def inner_bound(s: BellScenario, functional: BellFunctional, dim: int,
                iters: int = 50, seed=0, restarts: int = 8):
    """See-saw lower bound over tensor-model strategies on dim x dim.

    Alternates the state step (top eigenvector of the Bell operator) with
    the measurement updates of one party: closed-form projector pairs for
    m = 2, and per setting a POVM solve rounded back to a PVM for m >= 3,
    every setting of every running restart in one stacked solve.
    Restart r starts from families drawn from default_rng([seed, r]); all
    restarts advance as one stack, and a restart leaves the stack after an
    iteration in which neither party's update was accepted. Updates are
    accepted, and a restart replaces the best one so far (in restart
    order), only when the exactly re-evaluated value rises by more than
    ACCEPT_MARGIN. Returns (value, A, B, xi, info): the best run, and
    info on the POVM updates (povm_instance solves in
    sdpcore.maximize_many stacks) over all restarts: {"sdp_calls",
    "iterations", "max_gap"}, their number (one per update, not per
    stack), their interior-point iterations and the largest duality gap
    they certified (0, 0 and None for m = 2, whose updates are
    closed-form).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    c = functional.coeff
    c_swapped = c.transpose(1, 0, 3, 2)
    info = {"sdp_calls": 0, "iterations": 0, "max_gap": None}
    draws = []
    for r in range(restarts):
        rng = np.random.default_rng([int(seed), r])
        draws.append((_random_settings(dim, s, rng),
                      _random_settings(dim, s, rng)))
    A, B = (np.array(family) for family in zip(*draws))
    _check_pvms(A, dim, ndim=5)
    _check_pvms(B, dim, ndim=5)
    # every restart's current strategy; the running ones are rows
    state = _evaluate(c, np.arange(restarts), A, B)
    rows = state.rows
    for _ in range(iters):
        if not rows.size:
            break
        improved = np.zeros(rows.size, dtype=bool)
        for party in (0, 1):
            A, B, xi = state.A[rows], state.B[rows], state.xi[rows]
            # party B is party A of the swapped functional and state
            Xi = xi.reshape(-1, dim, dim)
            G = (_effect_multipliers(c, B, Xi) if party == 0 else
                 _effect_multipliers(c_swapped, A, np.swapaxes(Xi, 1, 2)))
            new = (_update_two_outcome(G) if s.m == 2 else
                   _update_povms(G, info))
            _check_pvms(new, dim, ndim=5)
            pair = [A, B]
            pair[party] = new
            trial = _evaluate(c, rows, *pair)
            up = trial.value > state.value[rows] + ACCEPT_MARGIN
            # the accepted rows of the trial replace those restarts' strategy
            for kept, got in zip(state[1:], trial[1:]):
                kept[trial.rows[up]] = got[up]
            improved |= up
        rows = rows[improved]
    best = 0
    for r in range(1, restarts):
        if state.value[r] > state.value[best] + ACCEPT_MARGIN:
            best = r
    return (float(state.value[best]), PvmFamily(dim, state.A[best]),
            PvmFamily(dim, state.B[best]), state.xi[best].copy(), info)
