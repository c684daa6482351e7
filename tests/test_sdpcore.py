import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from freecert.denselin import psd_floor
from freecert.sdpcore import (
    AffineConstraint,
    FeasibilityResult,
    InconsistentConstraintsError,
    InfeasibleError,
    SdpInstance,
    UnboundedError,
    instance_to_json,
    maximize,
    solve_feasibility,
)


def con(entries, rhs):
    return AffineConstraint(tuple(entries), rhs)


def check_feasible(inst, res, tol):
    assert res.feasible
    b = res.b
    assert psd_floor(b) >= -tol
    for c in inst.constraints:
        val = sum(coef * b[r, s] for r, s, coef in c.entries)
        assert abs(val - c.rhs) <= 10 * tol


def test_single_entry():
    inst = SdpInstance(1, [con([(0, 0, 1.0)], 1.0)])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert res.b[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_zero_trace_forces_zero():
    inst = SdpInstance(2, [con([(0, 0, 1.0), (1, 1, 1.0)], 0.0)])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert np.max(np.abs(res.b)) <= 1e-8


def test_unique_boundary_point():
    # trace 1 with b01 = b10 = -1/2 pins b = [[.5, -.5], [-.5, .5]]
    inst = SdpInstance(2, [
        con([(0, 0, 1.0), (1, 1, 1.0)], 1.0),
        con([(0, 1, 1.0)], -0.5),
        con([(1, 0, 1.0)], -0.5),
    ])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert np.max(np.abs(res.b - np.array([[0.5, -0.5], [-0.5, 0.5]]))) <= 1e-6


def test_psd_infeasible_reports_no_progress():
    # trace zero forces b = 0, contradicting b[0,1] = 1
    inst = SdpInstance(2, [
        con([(0, 0, 1.0), (1, 1, 1.0)], 0.0),
        con([(0, 1, 1.0)], 1.0),
    ])
    res = solve_feasibility(inst, tol=1e-9)
    assert not res.feasible
    assert res.psd_residual > 1e-3


def test_affine_inconsistency_detected():
    inst = SdpInstance(2, [
        con([(0, 0, 1.0)], 1.0),
        con([(0, 0, 1.0)], 2.0),
    ])
    with pytest.raises(InconsistentConstraintsError):
        solve_feasibility(inst)


def test_no_constraints():
    inst = SdpInstance(2, [])
    res = solve_feasibility(inst)
    check_feasible(inst, res, 1e-9)


def test_complex_constraint():
    inst = SdpInstance(2, [
        con([(0, 0, 1.0)], 1.0),
        con([(1, 1, 1.0)], 1.0),
        con([(0, 1, 1.0)], 0.3 + 0.4j),
    ])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert res.b[0, 1] == pytest.approx(0.3 + 0.4j, abs=1e-8)


def test_maximize_diagonal_objective():
    inst = SdpInstance(2, [con([(0, 0, 1.0), (1, 1, 1.0)], 1.0)],
                       ((0, 0, 1.0), (1, 1, -1.0)))
    res = maximize(inst, tol=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-5)


def test_maximize_offdiagonal():
    inst = SdpInstance(2, [con([(0, 0, 1.0)], 1.0), con([(1, 1, 1.0)], 1.0)],
                       ((0, 1, 1.0), (1, 0, 1.0)))
    res = maximize(inst, tol=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-5)
    assert res.b[0, 1].real == pytest.approx(1.0, abs=1e-4)
    # the unit diagonal fixes the trace, so the levels carry a dual bound
    assert 2.0 <= res.certified_upper <= 2.0 + 1e-6
    assert res.certified_upper >= res.value
    assert res.levels > 0


def test_maximize_zero_objective():
    inst = SdpInstance(2, [con([(0, 0, 1.0)], 1.0), con([(1, 1, 1.0)], 1.0)])
    res = maximize(inst, tol=1e-6)
    assert res.value == 0.0


def test_maximize_infeasible_raises():
    inst = SdpInstance(2, [
        con([(0, 0, 1.0), (1, 1, 1.0)], 0.0),
        con([(0, 1, 1.0)], 1.0),
    ], ((0, 0, 1.0),))
    with pytest.raises(InfeasibleError):
        maximize(inst, tol=1e-4)


def test_maximize_unbounded_raises(monkeypatch):
    import freecert.sdpcore as sc

    made = []

    class Recording(sc._LevelSets):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(sc, "_LevelSets", Recording)
    inst = SdpInstance(2, [], ((0, 0, 1.0),))
    with pytest.raises(UnboundedError):
        maximize(inst, tol=1e-2)
    # nothing fixes the trace: no dual bound may be formed
    assert len(made) == 1 and made[0].trace is None
    assert made[0].certified_upper is None


def test_maximize_dependent_objective_row():
    # the objective is an entry the constraints pin: every other level is
    # affinely inconsistent and rejected without iterating
    inst = SdpInstance(2, [con([(0, 0, 1.0)], 1.0), con([(1, 1, 1.0)], 1.0)],
                       ((0, 0, 1.0),))
    res = maximize(inst, tol=1e-6)
    base = solve_feasibility(inst, tol=1e-9)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.iterations == base.iterations
    assert res.certified_upper is None
    assert res.level_status["inconsistent"] == res.levels > 0


def test_feasible_output_reverified():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        target = A @ A.conj().T
        target /= np.trace(target).real
        idx = [(int(i), int(j)) for i in range(n) for j in range(i, n)
               if rng.random() < 0.5]
        cons = [con([(0, 0, 1.0), *[(k, k, 1.0) for k in range(1, n)]], 1.0)]
        for i, j in idx:
            cons.append(con([(i, j, 1.0)], complex(target[i, j])))
        inst = SdpInstance(n, cons)
        res = solve_feasibility(inst, tol=1e-9)
        check_feasible(inst, res, 1e-9)


def test_maximize_monotone_under_constraints():
    rng = np.random.default_rng(62)
    for _ in range(5):
        n = 3
        C = rng.standard_normal((n, n))
        C = 0.5 * (C + C.T)
        objective = tuple((i, j, complex(C[i, j])) for i in range(n)
                          for j in range(n))
        base = [con([(k, k, 1.0) for k in range(n)], 1.0)]
        extra = base + [con([(0, 1, 1.0), (1, 0, 1.0)], 0.0)]
        v1 = maximize(SdpInstance(n, base, objective), tol=1e-6).value
        v2 = maximize(SdpInstance(n, extra, objective), tol=1e-6).value
        assert v2 <= v1 + 1e-5


def test_maximize_matches_levelset_bisection_surrogate():
    # independent check: parametrized scan over the off-diagonal entry
    inst = SdpInstance(2, [con([(0, 0, 1.0)], 1.0), con([(1, 1, 1.0)], 1.0)],
                       ((0, 1, 0.5), (1, 0, 0.5)))
    res = maximize(inst, tol=1e-6)
    ts = np.linspace(-1, 1, 2001)
    best = max(t for t in ts
               if psd_floor(np.array([[1.0, t], [t, 1.0]])) >= -1e-12)
    assert res.value == pytest.approx(best, abs=5e-3)


def _moment_like(rng, n):
    """Unit diagonal, a few tied and pinned off-diagonal entries."""
    cons = [con([(i, i, 1.0)], 1.0) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    pinned = pairs.pop()
    for (i, j), (k, l) in zip(pairs[0::2][:n], pairs[1::2][:n]):
        cons.append(con([(i, j, 1.0), (k, l, -1.0)], 0.0))
    cons.append(con([(*pinned, 1.0)], complex(rng.uniform(-0.5, 0.5))))
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    objective = tuple((i, j, complex(C[i, j])) for i in range(n)
                      for j in range(n) if i != j)
    return SdpInstance(n, cons, objective)


def test_level_projection_matches_stacked_svd():
    from freecert.sdpcore import (
        _AffineProjector,
        _build_system,
        _HermitianVec,
        _LevelSets,
    )

    rng = np.random.default_rng(63)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        inst = _moment_like(rng, n)
        hv = _HermitianVec(n)
        L, rhs = _build_system(hv, inst.constraints)
        c = hv.objective_vec(inst.objective)
        levels = _LevelSets(hv, _AffineProjector(L, rhs), c)
        assert not levels.dependent and levels.trace == pytest.approx(n)
        for t in rng.uniform(-3, 3, size=3):
            stacked = _AffineProjector(np.vstack([L, c[None, :]]),
                                       np.append(rhs, t))
            for _ in range(3):
                x = 3 * rng.standard_normal(hv.dim)
                assert np.max(np.abs(levels.project(x, t)
                                     - stacked.apply(x))) <= 1e-10


def test_certified_upper_bounds_every_feasible_value():
    def objective(inst, b):
        return sum(coef * b[r, c] for r, c, coef in inst.objective).real

    rng = np.random.default_rng(64)
    for _ in range(6):
        inst = _moment_like(rng, int(rng.integers(3, 6)))
        res = maximize(inst, tol=1e-4)
        assert res.certified_upper is not None
        assert res.certified_upper >= res.value
        assert res.bracket[0] <= res.bracket[1] <= res.certified_upper + 1e-4
        # an independent feasible point: the identity plus the pinned entry
        b = np.eye(inst.n, dtype=complex)
        (i, j, _), = inst.constraints[-1].entries
        b[i, j] = b[j, i] = inst.constraints[-1].rhs
        check_feasible(inst, FeasibilityResult(True, b, 0, 0, 0), 1e-12)
        assert objective(inst, b) <= res.certified_upper
        assert objective(inst, res.b) <= res.certified_upper + 1e-8


def test_instance_json():
    inst = SdpInstance(2, [con([(0, 1, 1.0 + 2.0j)], 0.5)], ((0, 0, 1.0),))
    blob = instance_to_json(inst)
    assert blob["n"] == 2
    assert blob["constraints"][0]["entries"] == [[0, 1, 1.0, 2.0]]
    assert blob["constraints"][0]["rhs"] == [0.5, 0.0]
    assert blob["objective"] == [[0, 0, 1.0, 0.0]]


def certificate_excludes(inst, Y, tol):
    """Recompute a dual certificate from the constraints alone: True when the
    hermitian Y proves that no PSD b meets every constraint within tol.

    Each complex constraint gives the real functionals Re and Im of
    sum coef * b[r, c], written <A, b> = Re tr(A^* b) with A hermitian.
    With Y = sum lam_k A_k + e and I = sum nu_k A_k + e_I, any PSD b within
    tol has <Y - e, b> <= lam.r + |lam|_1 tol, tr b <= T =
    (nu.r + |nu|_1 tol) / (1 - |e_I|) and <Y - e, b> >= (min(0, lmin(Y))
    - |e|) T, since |b|_F <= tr b.
    """
    n = inst.n
    rows, rhs = [], []
    for c in inst.constraints:
        for phase, val in ((1.0, c.rhs.real), (-1j, c.rhs.imag)):
            A = np.zeros((n, n), dtype=complex)
            for r, s, coef in c.entries:
                A[r, s] += np.conj(phase * coef) / 2
                A[s, r] += phase * coef / 2
            if np.any(A):
                rows.append(np.concatenate([A.real.ravel(), A.imag.ravel()]))
                rhs.append(val)
    M, rhs = np.array(rows).T, np.array(rhs)

    def split(X):
        v = np.concatenate([X.real.ravel(), X.imag.ravel()])
        coef = np.linalg.lstsq(M, v, rcond=None)[0]
        return coef, float(np.linalg.norm(v - M @ coef))

    lam, e = split(np.asarray(Y))
    nu, e_eye = split(np.eye(n))
    assert e_eye < 1e-6, "the constraints do not fix the trace"
    T = (nu @ rhs + np.sum(np.abs(nu)) * tol) / (1.0 - e_eye)
    floor = min(0.0, float(np.linalg.eigvalsh(Y)[0])) - e
    return lam @ rhs + np.sum(np.abs(lam)) * tol < floor * T


def _fixed_trace_instance(rng, b0, k):
    """The unit trace row and k random sparse complex rows, all met by b0."""
    n = b0.shape[0]
    cons = [con([(i, i, 1.0) for i in range(n)], np.trace(b0).real)]
    for _ in range(k):
        idx = rng.choice(n * n, size=int(rng.integers(1, 4)), replace=False)
        entries = [(int(p // n), int(p % n),
                    complex(rng.standard_normal(), rng.standard_normal()))
                   for p in idx]
        cons.append(con(entries, sum(c * b0[r, s] for r, s, c in entries)))
    return SdpInstance(n, cons)


@pytest.mark.parametrize("rank, seed", [("full", 65), ("full", 66),
                                        ("one", 67), ("one", 68)])
def test_feasible_fixed_trace_never_infeasible(rank, seed):
    # few rows through a rank-one point leave a boundary face that takes
    # the splitting hundreds of iterations, each check forming a certificate
    rng = np.random.default_rng(seed)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        Z = rng.standard_normal((n, n if rank == "full" else 1))
        Z = Z + 1j * rng.standard_normal(Z.shape)
        b0 = Z @ Z.conj().T
        inst = _fixed_trace_instance(rng, b0 / np.trace(b0).real,
                                     int(rng.integers(1, 2 * n)))
        res = solve_feasibility(inst, tol=1e-12, max_iter=3000)
        assert res.status != "infeasible"
        assert res.certified_gap is None or res.certified_gap <= 1e-12
        assert res.feasible == (res.status == "converged")


def test_psd_infeasible_certified():
    # the instance of test_psd_infeasible_reports_no_progress: the
    # certificate is tight, as |b01| <= tr b / 2 forces a residual of 2/3
    inst = SdpInstance(2, [
        con([(0, 0, 1.0), (1, 1, 1.0)], 0.0),
        con([(0, 1, 1.0)], 1.0),
    ])
    res = solve_feasibility(inst, tol=1e-9)
    assert res.status == "infeasible" and res.iterations <= 25
    assert res.certified_gap == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert certificate_excludes(inst, res.dual, 0.999 * res.certified_gap)
    assert res.message


def test_infeasible_only_beyond_tolerance():
    # b01 = 1/2 + 1e-9 at unit trace: the nearest PSD points miss the rows
    # by 1e-9 / 1.5, so a tolerance above that leaves nothing to exclude,
    # while the PSD floor of every affine point stays below -1e-9
    inst = SdpInstance(2, [
        con([(0, 0, 1.0), (1, 1, 1.0)], 1.0),
        con([(0, 1, 1.0)], 0.5 + 1e-9),
    ])
    res = solve_feasibility(inst, tol=8e-10)
    assert res.status == "stalled"
    assert res.certified_gap == pytest.approx(1e-9 / 1.5, rel=1e-6)
    res = solve_feasibility(inst, tol=5e-10)
    assert res.status == "infeasible" and res.certified_gap > 5e-10
    assert certificate_excludes(inst, res.dual, 5e-10)


def test_stop_reasons():
    # nothing fixes the trace, so no certificate is formed: the infeasible
    # solve ends by count or when the PSD floor stalls at -1
    inst = SdpInstance(2, [con([(0, 0, 1.0)], -1.0)])
    res = solve_feasibility(inst, tol=1e-9, max_iter=100)
    assert (res.status, res.iterations) == ("max_iter", 100)
    assert res.certified_gap is None and res.dual is None
    res = solve_feasibility(inst, tol=1e-9, max_iter=20_000)
    assert res.status == "stalled" and not res.feasible


def _refuted_elements():
    from freecert.algebra import delta, involve, one
    from freecert.algebra import convolve as conv
    from freecert.grounded import grounded_set
    from freecert.words import free_group, generator, unit

    F2 = free_group(2)
    g1 = generator(F2, 1)
    E = grounded_set(F2, {unit(F2), g1})
    xi = one(F2) - delta(g1)
    return E, [
        # criterion 3: the unit coefficient is 0, so tr b = 0
        delta(g1) + delta(generator(F2, 1, -1)),
        conv(involve(xi), xi) - one(F2) * 0.25,
    ]


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize("trace", [False, True])
def test_refuted_gram_instances_certified(index, trace):
    from freecert.certify import gram_instance

    E, elements = _refuted_elements()
    inst, fscale = gram_instance(elements[index], E, trace=trace)
    tol = 1e-11
    res = solve_feasibility(inst, tol=tol)
    assert res.status == "infeasible" and res.iterations < 200
    assert res.certified_gap > tol
    assert certificate_excludes(inst, res.dual, tol)
    assert certificate_excludes(inst, res.dual, 0.999 * res.certified_gap)


def test_level_status_counts_every_level():
    from freecert.sdpcore import LEVEL_STATUSES

    rng = np.random.default_rng(66)
    for _ in range(4):
        res = maximize(_moment_like(rng, int(rng.integers(3, 6))), tol=1e-4)
        assert list(res.level_status) == list(LEVEL_STATUSES)
        assert sum(res.level_status.values()) == res.levels > 0
        assert res.level_status["converged"] > 0
    res = maximize(SdpInstance(2, [con([(0, 0, 1.0)], 1.0)]), tol=1e-6)
    assert res.levels == 0 and not any(res.level_status.values())


# --- the index-map kernel against the formulas it replaced ---------------

def reference_vec(hv, M):
    v = np.empty(hv.dim)
    v[:hv.n] = np.diagonal(M).real
    upper = M[hv.iu]
    v[hv.n:hv.n + hv.k] = np.sqrt(2.0) * upper.real
    v[hv.n + hv.k:] = np.sqrt(2.0) * upper.imag
    return v


def reference_unvec(hv, v):
    n, k = hv.n, hv.k
    M = np.zeros((n, n), dtype=complex)
    M[np.arange(n), np.arange(n)] = v[:n]
    upper = (v[n:n + k] + 1j * v[n + k:]) / np.sqrt(2.0)
    M[hv.iu] = upper
    M[hv.iu[1], hv.iu[0]] = upper.conj()
    return M


def reference_splitting(hv, affine, start, tol, max_iter, reject=None):
    """The splitting loop as it was written before the index maps."""
    from freecert.sdpcore import (
        CHECK_EVERY,
        MIN_ITER_BEFORE_STALL,
        STALL_REL,
        STALL_WINDOW,
    )

    def project_psd(v):
        w, U = np.linalg.eigh(reference_unvec(hv, v))
        return reference_vec(hv, (U * np.maximum(w, 0.0)) @ U.conj().T)

    def min_eig(v):
        return float(np.linalg.eigvalsh(reference_unvec(hv, v))[0])

    z = start.copy()
    best_floor = -np.inf
    best_x = affine(project_psd(z))
    window = []
    status = "max_iter"
    it = 0
    while it < max_iter:
        it += 1
        y = project_psd(z)
        z = z + affine(2.0 * y - z) - y
        if it % CHECK_EVERY == 0 or it == max_iter:
            x = affine(y)
            floor = min_eig(x)
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
    return best_x, best_floor, it, status


_magnitudes = st.floats(1e-12, 1e6)
_entries = st.one_of(_magnitudes, _magnitudes.map(lambda x: -x),
                     st.sampled_from([0.0, -0.0]))


@st.composite
def _sized_vectors(draw, length):
    n = draw(st.integers(1, 17))
    return n, draw(hnp.arrays(np.float64, length(n), elements=_entries))


@settings(max_examples=50, deadline=None)
@given(_sized_vectors(lambda n: 2 * n * n))
def test_vec_matches_reference_bytes(case):
    from freecert.sdpcore import _HermitianVec

    n, raw = case
    hv = _HermitianVec(n)
    M = raw.view(complex).reshape(n, n)
    for A in (M, M.T, M.real):
        assert (hv.vec(A).tobytes()
                == reference_vec(hv, A).tobytes())


@settings(max_examples=50, deadline=None)
@given(_sized_vectors(lambda n: n * n))
def test_unvec_matches_reference_bytes(case):
    from freecert.sdpcore import _HermitianVec

    n, v = case
    hv = _HermitianVec(n)
    # the one documented difference: an off-diagonal real part -0.0 beside
    # a negative imaginary part (see test_unvec_signed_zeros)
    re, im = v[n:n + hv.k], v[n + hv.k:]
    re[(re == 0.0) & (im < 0.0)] = 0.0
    assert hv.unvec(v).tobytes() == reference_unvec(hv, v).tobytes()
    assert (hv.vec(hv.unvec(v)).tobytes()
            == reference_vec(hv, reference_unvec(hv, v)).tobytes())


def test_unvec_signed_zeros():
    from freecert.sdpcore import _HermitianVec

    hv = _HermitianVec(2)
    for d in (0.0, -0.0, 1.0):
        for re in (0.0, -0.0, 1.0, -1.0):
            for im in (0.0, -0.0, 1.0, -1.0):
                v = np.array([d, -d, re, im])
                new, old = hv.unvec(v), reference_unvec(hv, v)
                if np.signbit(re) and re == 0.0 and im < 0.0:
                    assert old[0, 1].real == 0.0 and np.signbit(old[0, 1].real)
                    new[0, 1], new[1, 0] = old[0, 1], old[1, 0]
                assert new.tobytes() == old.tobytes()


def _povm_instance(povm_sdp):
    """A block-diagonal POVM SDP, m = 3 on dim 2."""
    rng = np.random.default_rng(81)
    G = []
    for _ in range(3):
        Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        G.append(Z + Z.conj().T)
    return povm_sdp(G)


def _chsh_1ab_instance():
    from freecert.bell import BellFunctional, BellScenario, moment_instance

    chsh = BellFunctional.from_correlators([[1.0, 1.0], [1.0, -1.0]])
    return moment_instance(BellScenario(2, 2), chsh, "1ab")[0]


@pytest.mark.parametrize("which", ["chsh_1ab", "povm"])
def test_splitting_matches_reference_bits(which, povm_sdp):
    from freecert.sdpcore import (
        _AffineProjector,
        _build_system,
        _DualGap,
        _HermitianVec,
        _LevelSets,
        _splitting,
    )

    inst = (_chsh_1ab_instance() if which == "chsh_1ab"
            else _povm_instance(povm_sdp))
    hv = _HermitianVec(inst.n)
    P = _AffineProjector(*_build_system(hv, inst.constraints))
    c = hv.objective_vec(inst.objective)
    top = maximize(inst, tol=1e-6, feas_tol=1e-10).value
    assert _DualGap(hv, P).trace is not None

    def base():
        # a fresh certificate check for every run
        gap = _DualGap(hv, P)
        return P.apply, P.x0, lambda y, x: gap.excluded(y - x) > 1e-10

    def level(t):
        levels = _LevelSets(hv, P, c)

        def affine(v):
            return levels.project(v, t)

        def reject(y, x):
            return levels._reject(y, x, t)

        return affine, affine(P.x0), reject

    def unbounded_level():
        # without the dual bound the level above the top runs to max_iter
        return level(top + 1e-3)[:2] + (None,)

    runs = [lambda: (P.apply, P.x0, None), base, unbounded_level]
    runs += [lambda t=t: level(t) for t in (top - 1e-3, top + 1e-3, top + 0.5)]
    statuses = set()
    for run in runs:
        for max_iter in (0, 1, 3000):
            affine, start, reject = run()
            new = _splitting(hv, affine, start, 1e-10, max_iter, reject)
            affine, start, reject = run()
            old = reference_splitting(hv, affine, start, 1e-10, max_iter,
                                      reject)
            assert new[0].tobytes() == old[0].tobytes()
            assert new[1:] == old[1:]
            statuses.add(new[3])
    assert {"converged", "infeasible", "max_iter"} <= statuses
