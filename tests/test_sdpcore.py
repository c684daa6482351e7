import numpy as np
import pytest

from freecert.denselin import psd_floor
from freecert.sdpcore import (
    FeasibilityResult,
    InconsistentConstraintsError,
    InfeasibleError,
    SdpError,
    SdpInstance,
    UnboundedError,
    instance_to_json,
    maximize,
    maximize_many,
    solve_feasibility,
)


def part(n, classes, objective=()):
    """An instance on n x n matrices from (kind, pairs, rhs) classes, kind
    "sum", "pinned" or "tie". A class that is not closed under
    transposition gets its transpose as a class of the same kind with the
    conjugate right-hand side, and every other entry is a free class of its
    own."""
    labels = -np.ones((n, n), dtype=int)
    rhs, sums = [], []

    def add(pairs, kind, r):
        for i, j in pairs:
            assert labels[i, j] < 0
            labels[i, j] = len(rhs)
        rhs.append(None if kind == "tie" else r)
        sums.append(kind == "sum")

    for kind, pairs, r in classes:
        add(pairs, kind, r)
        transposed = [(j, i) for i, j in pairs]
        if set(transposed) != set(pairs):
            add(transposed, kind, None if r is None else np.conj(r))
    for i, j in zip(*np.nonzero(labels < 0)):
        add([(i, j)], "tie", None)
    return SdpInstance(labels, rhs, sums, objective)


def check_feasible(inst, res, tol):
    """Every class of the partition holds within 10 tol, read from the
    labels alone."""
    assert res.status == "converged"
    b = res.b
    assert psd_floor(b) >= -tol
    for k, (r, is_sum) in enumerate(zip(inst.rhs, inst.sums)):
        vals = b[inst.labels == k]
        if is_sum:
            assert abs(vals.sum() - r) <= 10 * tol
        else:
            assert np.max(np.abs(vals - vals[0])) <= 10 * tol
            if r is not None:
                assert abs(vals[0] - r) <= 10 * tol


def objective(inst, b):
    return sum(coef * b[r, c] for r, c, coef in inst.objective).real


def objective_matrix(inst):
    """The hermitian C with <C, b> = objective(inst, b)."""
    C = np.zeros((inst.n, inst.n), dtype=complex)
    for r, c, coef in inst.objective:
        C[r, c] += np.conj(coef)
    return 0.5 * (C + C.conj().T)


def check_dual_certificate(inst, res, b):
    """The dual Z of a maximize result proves its value, checked against
    the rows of instance_to_json and a feasible point b: Z >= 0, and Z + C
    lies in the span of the rows, so <C + Z, .> is constant on the affine
    set; at b it is the value. Every feasible b' then has
    <C, b'> = value - <Z, b'> <= value."""
    C = objective_matrix(inst)
    Z = res.dual
    scale = 1.0 + np.max(np.abs(Z))
    assert np.array_equal(Z, Z.conj().T)
    assert psd_floor(Z) >= -1e-12 * scale
    hv = Realified(inst.n)
    L, _ = hv.system(inst)
    w = hv.vec(Z + C)
    lam = np.linalg.lstsq(L.T, w, rcond=None)[0]
    assert np.max(np.abs(L.T @ lam - w)) <= 1e-9 * scale
    assert np.vdot(C + Z, b).real == pytest.approx(res.value,
                                                   abs=1e-9 * scale)


DIAG2 = [(0, 0), (1, 1)]


def test_single_entry():
    inst = part(1, [("sum", [(0, 0)], 1.0)])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert res.b[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_zero_trace_forces_zero():
    inst = part(2, [("sum", DIAG2, 0.0)])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert np.max(np.abs(res.b)) <= 1e-8


def test_unique_boundary_point():
    # trace 1 with b01 = b10 = -1/2 pins b = [[.5, -.5], [-.5, .5]]
    inst = part(2, [("sum", DIAG2, 1.0), ("sum", [(0, 1)], -0.5)])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert np.max(np.abs(res.b - np.array([[0.5, -0.5], [-0.5, 0.5]]))) <= 1e-6


def _zero_trace_unit_corner():
    # trace zero forces b = 0, contradicting b[0,1] = 1
    return part(2, [("sum", DIAG2, 0.0), ("sum", [(0, 1)], 1.0)])


def test_psd_infeasible_reports_no_progress():
    res = solve_feasibility(_zero_trace_unit_corner(), tol=1e-9)
    assert res.status != "converged"
    assert res.psd_residual > 1e-3


def test_affine_inconsistency_detected():
    for kind in ("sum", "pinned"):
        # a self-transposed class with a non-real value
        with pytest.raises(InconsistentConstraintsError):
            solve_feasibility(part(2, [(kind, DIAG2, 1.0 + 1e-3j)]))
        with pytest.raises(InconsistentConstraintsError):
            maximize(part(2, [(kind, [(0, 1), (1, 0)], 2.0 - 1.0j)],
                          ((0, 0, 1.0),)))
        # a class and its transpose with values that are not conjugate
        labels = [[0, 1], [2, 3]]
        for values in ([1.0, 0.5, 0.7, 1.0], [1.0, 0.5j, 0.5j, 1.0]):
            with pytest.raises(InconsistentConstraintsError):
                solve_feasibility(SdpInstance(labels, values, kind == "sum"))
        # rounding-sized mismatches are forgiven
        inst = SdpInstance(labels, [1.0, 0.5, 0.5 + 1e-12, 1.0],
                           kind == "sum")
        assert solve_feasibility(inst).status == "converged"


def test_malformed_partitions_rejected():
    with pytest.raises(ValueError):
        # the transpose of {(0, 1)} is split between two classes
        solve_feasibility(SdpInstance([[0, 1, 1], [2, 0, 3], [1, 3, 0]],
                                      [1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        # a sum class whose transpose is a tie class
        solve_feasibility(SdpInstance([[0, 1], [2, 0]], [1.0, 0.0, 0.0],
                                      [True, True, False]))
    with pytest.raises(ValueError):
        SdpInstance([[0, 1], [1, 0]], [1.0], True)
    with pytest.raises(ValueError):
        SdpInstance([[0, 1], [1, 0]], [1.0, None], True)


def test_no_constraints():
    inst = part(2, [])
    res = solve_feasibility(inst)
    check_feasible(inst, res, 1e-9)


def test_complex_constraint():
    inst = part(2, [("sum", [(0, 0)], 1.0), ("sum", [(1, 1)], 1.0),
                    ("sum", [(0, 1)], 0.3 + 0.4j)])
    res = solve_feasibility(inst, tol=1e-9)
    check_feasible(inst, res, 1e-9)
    assert res.b[0, 1] == pytest.approx(0.3 + 0.4j, abs=1e-8)


def test_maximize_diagonal_objective():
    inst = part(2, [("sum", DIAG2, 1.0)], ((0, 0, 1.0), (1, 1, -1.0)))
    res = maximize(inst, tol=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-5)


UNIT_DIAG2 = [("sum", [(0, 0)], 1.0), ("sum", [(1, 1)], 1.0)]


def test_maximize_offdiagonal():
    inst = part(2, UNIT_DIAG2, ((0, 1, 1.0), (1, 0, 1.0)))
    res = maximize(inst, tol=1e-6)
    assert res.value == pytest.approx(2.0, abs=1e-5)
    assert res.b[0, 1].real == pytest.approx(1.0, abs=1e-4)
    # the value is a dual bound, within tol of the optimum
    assert 2.0 <= res.value <= 2.0 + 1e-6
    assert 0.0 <= res.gap <= 1e-6 and res.iterations > 0


def test_maximize_zero_objective():
    res = maximize(part(2, UNIT_DIAG2), tol=1e-6)
    assert res.value == 0.0


def test_maximize_infeasible_raises():
    inst = part(2, [("sum", DIAG2, 0.0), ("sum", [(0, 1)], 1.0)],
                ((0, 0, 1.0),))
    with pytest.raises(InfeasibleError):
        maximize(inst, tol=1e-4)


def test_maximize_unbounded_raises():
    # nothing fixes the trace, and b00 grows along the PSD direction E00
    inst = part(2, [], ((0, 0, 1.0),))
    with pytest.raises(UnboundedError):
        maximize(inst, tol=1e-2)
    # with a free trace a bound needs a PSD dual: -tr b <= -2 |b01|
    inst = part(2, [("sum", [(0, 1)], 0.5)], ((0, 0, -1.0), (1, 1, -1.0)))
    res = maximize(inst, tol=1e-6)
    assert -1.0 <= res.value <= -1.0 + 1e-6


def test_maximize_free_trace_gap():
    # one pinned off-diagonal entry and a negative definite objective: the
    # trace is free, so every bound comes from a PSD dual, and the gap is
    # the bound minus the objective at the returned point
    from freecert.sdpcore import _Partition

    rng = np.random.default_rng(65)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        i, j = sorted(int(k) for k in rng.choice(n, 2, replace=False))
        value = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = A + A.conj().T
        C -= (np.linalg.norm(C, 2) + 1.0) * np.eye(n)
        inst = part(n, [("pinned", [(i, j)], value)],
                    tuple((r, c, complex(C[r, c])) for r in range(n)
                          for c in range(n)))
        assert _Partition(inst).fixed_trace() is None
        res = maximize(inst, tol=1e-6)
        assert res.gap == pytest.approx(res.value - objective(inst, res.b),
                                        abs=1e-12 * np.abs(C).max())
        assert 0.0 <= res.gap <= 1e-6
        b = np.eye(n, dtype=complex)
        b[i, j], b[j, i] = value, np.conj(value)
        check_dual_certificate(inst, res, b)
        assert objective(inst, b) <= res.value


def test_maximize_dependent_objective_row():
    # the objective is an entry the constraints pin, so it is constant on
    # the affine set: X = 0 is an exact dual point, and the identity an
    # interior primal one
    inst = part(2, UNIT_DIAG2, ((0, 0, 1.0),))
    res = maximize(inst, tol=1e-6)
    assert res.value == 1.0
    assert res.iterations == 0 and res.gap == 0.0
    # every entry pinned: no directions at all, real or complex
    for value in (0.5, 0.5j):
        inst = part(2, UNIT_DIAG2 + [("pinned", [(0, 1)], value)],
                    ((0, 1, 1.0),))
        assert inst.real == (value == 0.5)
        res = maximize(inst, tol=1e-6)
        assert res.value == value.real and res.iterations == 0


def test_feasible_output_reverified():
    # the unit trace and some pinned entries of a random state; the pinned
    # diagonal entries leave the rest of the trace to the other ones
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        target = A @ A.conj().T
        target /= np.trace(target).real
        idx = [(int(i), int(j)) for i in range(n) for j in range(i, n)
               if rng.random() < 0.5]
        classes = [("sum", [(i, j)], complex(target[i, j])) for i, j in idx]
        free_diag = [(k, k) for k in range(n) if (k, k) not in idx]
        if free_diag:
            rest = 1.0 - sum(target[i, i].real for i, j in idx if i == j)
            classes.append(("sum", free_diag, rest))
        inst = part(n, classes)
        res = solve_feasibility(inst, tol=1e-9)
        check_feasible(inst, res, 1e-9)
        assert np.trace(res.b).real == pytest.approx(1.0, abs=1e-8)


def test_maximize_monotone_under_constraints():
    rng = np.random.default_rng(62)
    for _ in range(5):
        n = 3
        C = rng.standard_normal((n, n))
        C = 0.5 * (C + C.T)
        objective = tuple((i, j, complex(C[i, j])) for i in range(n)
                          for j in range(n))
        base = [("sum", [(k, k) for k in range(n)], 1.0)]
        extra = base + [("sum", [(0, 1), (1, 0)], 0.0)]
        v1 = maximize(part(n, base, objective), tol=1e-6).value
        v2 = maximize(part(n, extra, objective), tol=1e-6).value
        assert v2 <= v1 + 1e-5


def test_maximize_matches_levelset_bisection_surrogate():
    # independent check: parametrized scan over the off-diagonal entry
    inst = part(2, UNIT_DIAG2, ((0, 1, 0.5), (1, 0, 0.5)))
    res = maximize(inst, tol=1e-6)
    ts = np.linspace(-1, 1, 2001)
    best = max(t for t in ts
               if psd_floor(np.array([[1.0, t], [t, 1.0]])) >= -1e-12)
    assert res.value == pytest.approx(best, abs=5e-3)


def _moment_like(rng, n):
    """Unit diagonal, a few tied and one pinned off-diagonal entry; returns
    the instance and the pinned (i, j, value)."""
    classes = [("pinned", [(i, i) for i in range(n)], 1.0)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    pinned = pairs.pop()
    for (i, j), (k, l) in zip(pairs[0::2][:n], pairs[1::2][:n]):
        classes.append(("tie", [(i, j), (k, l)], None))
    value = complex(rng.uniform(-0.5, 0.5))
    classes.append(("pinned", [pinned], value))
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    objective = tuple((i, j, complex(C[i, j])) for i in range(n)
                      for j in range(n) if i != j)
    return part(n, classes, objective), (*pinned, value)


def _random_partition(rng, n, objective=False, kinds=("sum", "pinned", "tie")):
    """Classes of the given kinds over the transposition orbits of the
    entries, in random order: self-transposed ones (real values) and pairs
    of a class and its transpose (conjugate complex values). With sum
    classes alone the diagonal gets classes of its own, as in a Gram
    instance, so the trace is fixed."""
    orbits = [[(i, j), (j, i)] for i in range(n) for j in range(i + 1, n)]
    diagonal = [[(i, i)] for i in range(n)]
    if kinds != ("sum",):
        orbits, diagonal = orbits + diagonal, []
    order = rng.permutation(len(orbits))
    orbits = [orbits[k] for k in order]
    classes = []
    while diagonal:
        cut = int(rng.integers(1, len(diagonal) + 1))
        classes.append(("sum", [o[0] for o in diagonal[:cut]],
                        complex(rng.uniform(0.5, 2.0))))
        diagonal = diagonal[cut:]
    while orbits:
        size = int(rng.integers(1, 4))
        take, orbits = orbits[:size], orbits[size:]
        kind = kinds[int(rng.integers(len(kinds)))]
        if all(len(o) == 2 for o in take) and rng.random() < 0.6:
            pairs = [o[int(rng.integers(2))] for o in take]
            value = complex(rng.standard_normal(), rng.standard_normal())
        else:
            pairs = [e for o in take for e in o]
            value = complex(rng.standard_normal())
        classes.append((kind, pairs, value))
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    obj = (tuple((i, j, complex(C[i, j])) for i in range(n) for j in range(n))
           if objective else ())
    return part(n, classes, obj)


def test_certified_upper_bounds_every_feasible_value():
    rng = np.random.default_rng(64)
    for _ in range(6):
        inst, (i, j, value) = _moment_like(rng, int(rng.integers(3, 6)))
        res = maximize(inst, tol=1e-4)
        # the reported point is feasible and within tol of the bound
        check_feasible(inst, FeasibilityResult(res.b, 0, 0, 0), 1e-9)
        assert res.value - 1e-4 <= objective(inst, res.b) <= res.value
        # an independent feasible point: the identity plus the pinned entry
        b = np.eye(inst.n, dtype=complex)
        b[i, j] = b[j, i] = value
        check_feasible(inst, FeasibilityResult(b, 0, 0, 0), 1e-12)
        assert objective(inst, b) <= res.value
        check_dual_certificate(inst, res, b)


def _real(inst):
    """The instance with the real parts of its right-hand sides and
    objective coefficients; a class and its transpose keep equal values."""
    return SdpInstance(
        inst.labels, [None if r is None else r.real for r in inst.rhs],
        inst.sums, tuple((r, c, complex(complex(coef).real))
                         for r, c, coef in inst.objective))


def check_complex_dual(inst, res):
    """The dual Z of a maximize result is PSD, and Z + C has no part along
    any direction of the complex relaxation, the imaginary ones
    i (E_ij - E_ji) included."""
    from freecert.sdpcore import _Partition

    Z = res.dual
    scale = 1.0 + np.max(np.abs(Z))
    assert Z.dtype == complex and res.b.dtype == complex
    assert psd_floor(Z) >= -1e-12 * scale
    C = objective_matrix(inst)
    D = _Partition(inst).directions()
    along = np.einsum("dij,ij->d", D.conj(), Z + C).real
    assert np.max(np.abs(along), initial=0.0) <= 1e-9 * scale


def test_realness_is_exact():
    inst = part(2, UNIT_DIAG2, ((0, 1, 1.0), (1, 0, 1 + 0j)))
    assert inst.real
    assert not part(2, UNIT_DIAG2, ((0, 1, 1.0 + 1e-300j),)).real
    assert not part(2, [("sum", [(0, 1)], 0.5 + 1e-300j)]).real
    # free tie classes carry no right-hand side
    assert part(3, [("tie", [(0, 1), (0, 2)], None)]).real


def test_real_maximize_certifies_the_complex_relaxation(monkeypatch):
    # a real instance is solved over real symmetric matrices: its dual
    # certifies the complex relaxation, and its value is the complex
    # solve's within tol
    from freecert.sdpcore import _Partition

    rng = np.random.default_rng(66)
    for _ in range(8):
        inst, (i, j, value) = _moment_like(rng, int(rng.integers(3, 7)))
        inst = _real(inst)
        assert inst.real
        res = maximize(inst, tol=1e-6)
        assert not res.b.imag.any() and not res.dual.imag.any()
        check_complex_dual(inst, res)
        b = np.eye(inst.n, dtype=complex)
        b[i, j] = b[j, i] = value
        check_dual_certificate(inst, res, b)
        assert objective(inst, b) <= res.value
        with monkeypatch.context() as patch:
            patch.setattr(SdpInstance, "real", property(lambda self: False))
            assert len(_Partition(inst).directions()) > len(
                _Partition(inst, float).directions())
            ref = maximize(inst, tol=1e-6)
        assert ref.value == pytest.approx(res.value, abs=1e-6)


def _with_objective(inst, objective):
    return SdpInstance(inst.labels, inst.rhs, inst.sums, objective)


def _check_matches_single_solves(instances, tols):
    # each result of the stack against a solve of its instance alone
    got = maximize_many(instances, tols)
    assert len(got) == len(instances)
    for inst, tol, res in zip(instances, tols, got):
        ref = maximize(inst, tol)
        scale = 1.0 + abs(ref.value)
        assert res.iterations == ref.iterations
        assert abs(res.value - ref.value) <= 1e-12 * scale
        assert abs(res.gap - ref.gap) <= 1e-12 * scale
        assert np.max(np.abs(res.b - ref.b)) <= 1e-12 * scale
        assert np.max(np.abs(res.dual - ref.dual)) <= 1e-12 * scale
    return got


def test_maximize_many_matches_single_solves():
    # one structure, objectives of several scales and a zero one (c = 0,
    # done at once), and several tolerances: the instances leave the stack
    # at different iterations
    rng = np.random.default_rng(70)
    for n in (3, 4, 6):
        inst, (i, j, value) = _moment_like(rng, n)
        instances = [_with_objective(inst, tuple(
            (r, c, s * coef) for r, c, coef in inst.objective))
            for s in (1.0, 1e-3, 30.0)]
        instances.insert(1, _with_objective(inst, ()))
        instances.append(_with_objective(inst, tuple(
            (r, c, complex(*rng.standard_normal(2))) for r, c, _ in
            inst.objective)))
        tols = [1e-6, 1e-6, 1e-9, 1e-4, 1e-7]
        got = _check_matches_single_solves(instances, tols)
        assert got[1].iterations == 0
        assert len({res.iterations for res in got}) >= 3
        b = np.eye(n, dtype=complex)
        b[i, j], b[j, i] = value, np.conj(value)
        for inst_, res in zip(instances, got):
            check_dual_certificate(inst_, res, b)
        # a real instance in a complex stack is solved over complex
        # matrices, within tol of its real solve
        real = _real(instances[0])
        res = maximize_many([real, instances[0]], [1e-6, 1e-6])[0]
        assert abs(res.value - maximize(real, 1e-6).value) <= 1e-6
        check_dual_certificate(real, res, b.real.astype(complex))
    # a real stack, and a free trace with a bound from a PSD dual
    inst = part(2, [("sum", [(0, 1)], 0.5)])
    _check_matches_single_solves(
        [_with_objective(inst, ((0, 0, -s), (1, 1, -1.0))) for s in
         (1.0, 2.0, 0.5)], [1e-6, 1e-8, 1e-6])
    assert maximize_many([], []) == []


def test_maximize_many_rejects_mismatched_stacks():
    base = part(2, UNIT_DIAG2, ((0, 1, 1.0), (1, 0, 1.0)))
    other_labels = part(3, [("sum", [(0, 0)], 1.0)])
    other_rhs = part(2, [("sum", [(0, 0)], 2.0), ("sum", [(1, 1)], 1.0)])
    other_sums = SdpInstance(base.labels, base.rhs,
                             [False] + list(base.sums[1:]))
    for other in (other_labels, other_rhs, other_sums):
        with pytest.raises(ValueError, match="share labels, rhs and sums"):
            maximize_many([base, other], [1e-6, 1e-6])
    for tols in ([1e-6], [1e-6, 1e-6, 1e-6], [1e-6, 0.0],
                 [1e-6, float("nan")]):
        with pytest.raises(ValueError):
            maximize_many([base, base], tols)


def _first_failure(instances, tols):
    """The loop over the instances: the exception of the first that
    fails."""
    for inst, tol in zip(instances, tols):
        try:
            maximize(inst, tol)
        except SdpError as exc:
            return exc
    return None


def test_maximize_many_raises_like_the_loop():
    # a free trace: -(b00 + b11) is bounded, b00 grows without bound along
    # E00, and a tolerance of 1e-300 is never met
    inst = part(2, [("sum", [(0, 1)], 0.5)])
    bounded = _with_objective(inst, ((0, 0, -1.0), (1, 1, -1.0)))
    unbounded = _with_objective(inst, ((0, 0, 1.0),))
    stacks = [
        ([bounded, unbounded, bounded], [1e-6, 1e-6, 1e-6]),
        ([bounded, bounded, unbounded], [1e-6, 1e-300, 1e-6]),
        ([unbounded, bounded], [1e-6, 1e-300]),
        ([bounded, bounded], [1e-6, 1e-300]),
    ]
    infeasible = part(2, [("sum", DIAG2, 0.0), ("sum", [(0, 1)], 1.0)])
    stacks.append(([_with_objective(infeasible, ((0, 0, s),))
                    for s in (1.0, 2.0)], [1e-4, 1e-4]))
    for instances, tols in stacks:
        ref = _first_failure(instances, tols)
        assert isinstance(ref, SdpError)
        with pytest.raises(type(ref)) as got:
            maximize_many(instances, tols)
        assert str(got.value) == str(ref)


def test_instance_json():
    # a sum class and its transpose, a pinned diagonal and a free tie
    labels = [[2, 0, 3], [1, 2, 4], [4, 3, 2]]
    inst = SdpInstance(labels, [0.5 + 2j, 0.5 - 2j, 1.0, None, None],
                       [True, True, False, False, False], ((0, 0, 1.0),))
    blob = instance_to_json(inst)
    assert blob["n"] == 3
    assert blob["constraints"] == [
        {"entries": [[0, 1, 1.0, 0.0]], "rhs": [0.5, 2.0]},
        {"entries": [[1, 0, 1.0, 0.0]], "rhs": [0.5, -2.0]},
        {"entries": [[0, 0, 1.0, 0.0]], "rhs": [1.0, 0.0]},
        {"entries": [[1, 1, 1.0, 0.0]], "rhs": [1.0, 0.0]},
        {"entries": [[2, 2, 1.0, 0.0]], "rhs": [1.0, 0.0]},
        {"entries": [[0, 2, -1.0, 0.0], [2, 1, 1.0, 0.0]], "rhs": [0.0, 0.0]},
        {"entries": [[1, 2, -1.0, 0.0], [2, 0, 1.0, 0.0]], "rhs": [0.0, 0.0]},
    ]
    assert blob["objective"] == [[0, 0, 1.0, 0.0]]


def certificate_excludes(inst, Y, tol):
    """Recompute a dual certificate from the rows of instance_to_json
    alone: True when the hermitian Y proves that no PSD b meets every row
    within tol.

    Each complex row gives the real functionals Re and Im of
    sum coef * b[r, c], written <A, b> = Re tr(A^* b) with A hermitian.
    With Y = sum lam_k A_k + e and I = sum nu_k A_k + e_I, any PSD b within
    tol has <Y - e, b> <= lam.r + |lam|_1 tol, tr b <= T =
    (nu.r + |nu|_1 tol) / (1 - |e_I|) and <Y - e, b> >= (min(0, lmin(Y))
    - |e|) T, since |b|_F <= tr b.
    """
    n = inst.n
    rows, rhs = [], []
    for c in instance_to_json(inst)["constraints"]:
        for phase, val in ((1.0, c["rhs"][0]), (-1j, c["rhs"][1])):
            A = np.zeros((n, n), dtype=complex)
            for r, s, re, im in c["entries"]:
                coef = complex(re, im)
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
    """The unit trace class and up to k random sum classes of off-diagonal
    entries (each with its transpose), all met by b0."""
    n = b0.shape[0]
    classes = [("sum", [(i, i) for i in range(n)], np.trace(b0).real)]
    free = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(free)
    for _ in range(k):
        size = int(rng.integers(1, 4))
        if len(free) < size:
            break
        pairs = [(i, j) if rng.random() < 0.5 else (j, i)
                 for i, j in free[:size]]
        free = free[size:]
        classes.append(("sum", pairs, sum(b0[p] for p in pairs)))
    return part(n, classes)


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
        assert (res.status == "converged") == (
            res.psd_residual <= 1e-12 and res.affine_residual <= 1e-12)


def test_psd_infeasible_certified():
    # the instance of test_psd_infeasible_reports_no_progress: the
    # certificate is tight, as |b01| <= tr b / 2 forces a residual of 2/3
    inst = _zero_trace_unit_corner()
    res = solve_feasibility(inst, tol=1e-9)
    assert res.status == "infeasible" and res.iterations <= 25
    assert res.certified_gap == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert certificate_excludes(inst, res.dual, 0.999 * res.certified_gap)


def test_infeasible_only_beyond_tolerance():
    # b01 = 1/2 + 1e-9 at unit trace: the nearest PSD points miss the rows
    # by 1e-9 / 1.5, so a tolerance above that leaves nothing to exclude,
    # while the PSD floor of every affine point stays below -1e-9
    inst = part(2, [("sum", DIAG2, 1.0), ("sum", [(0, 1)], 0.5 + 1e-9)])
    res = solve_feasibility(inst, tol=8e-10)
    assert res.status == "stalled"
    assert res.certified_gap == pytest.approx(1e-9 / 1.5, rel=1e-6)
    res = solve_feasibility(inst, tol=5e-10)
    assert res.status == "infeasible" and res.certified_gap > 5e-10
    assert certificate_excludes(inst, res.dual, 5e-10)


def test_stop_reasons():
    # nothing fixes the trace, so no certificate is formed: the infeasible
    # solve ends by count or when the PSD floor stalls at -1
    inst = part(2, [("sum", [(0, 0)], -1.0)])
    res = solve_feasibility(inst, tol=1e-9, max_iter=100)
    assert (res.status, res.iterations) == ("max_iter", 100)
    assert res.certified_gap is None and res.dual is None
    res = solve_feasibility(inst, tol=1e-9, max_iter=20_000)
    assert res.status == "stalled"


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


# --- the realified SVD engine that the class partition replaced -----------
#
# Reference code: hermitian matrices as real vectors [diag; sqrt2 Re upper;
# sqrt2 Im upper], the rows of instance_to_json realified into a real system
# Lx = r, its orthogonal projection by a rank-revealing SVD, the dual gap
# and level rows on top of it, and the splitting loop over vectors.

class Realified:
    def __init__(self, n):
        self.n = n
        self.iu = np.triu_indices(n, 1)
        self.k = len(self.iu[0])
        self.dim = n + 2 * self.k
        self.pos = {(int(i), int(j)): p
                    for p, (i, j) in enumerate(zip(*self.iu))}

    def vec(self, M):
        v = np.empty(self.dim)
        v[:self.n] = np.diagonal(M).real
        upper = M[self.iu]
        v[self.n:self.n + self.k] = np.sqrt(2.0) * upper.real
        v[self.n + self.k:] = np.sqrt(2.0) * upper.imag
        return v

    def unvec(self, v):
        n, k = self.n, self.k
        M = np.zeros((n, n), dtype=complex)
        M[np.arange(n), np.arange(n)] = v[:n]
        upper = (v[n:n + k] + 1j * v[n + k:]) / np.sqrt(2.0)
        M[self.iu] = upper
        M[self.iu[1], self.iu[0]] = upper.conj()
        return M

    def system(self, inst):
        rows, rhs = [], []
        s2 = np.sqrt(2.0)
        for con in instance_to_json(inst)["constraints"]:
            row_re, row_im = np.zeros(self.dim), np.zeros(self.dim)
            for r, c, re, im in con["entries"]:
                coef = complex(re, im)
                if r == c:
                    row_re[r] += coef.real
                    row_im[r] += coef.imag
                    continue
                i, j = (r, c) if r < c else (c, r)
                s = 1.0 if r < c else -1.0
                px = self.n + self.pos[(i, j)]
                py = self.n + self.k + self.pos[(i, j)]
                row_re[px] += coef.real / s2
                row_re[py] += -s * coef.imag / s2
                row_im[px] += coef.imag / s2
                row_im[py] += s * coef.real / s2
            for row, val in ((row_re, con["rhs"][0]), (row_im, con["rhs"][1])):
                if np.max(np.abs(row)) > 1e-14 or abs(val) > 1e-14:
                    rows.append(row)
                    rhs.append(val)
        if not rows:
            return np.zeros((0, self.dim)), np.zeros(0)
        return np.array(rows), np.array(rhs)

    def lmin(self, v):
        return float(np.linalg.eigvalsh(self.unvec(v))[0])


class SvdProjector:
    def __init__(self, L, rhs):
        U, S, Vt = np.linalg.svd(L, full_matrices=False)
        rank = int(np.sum(S > S[0] * 1e-12)) if S.size else 0
        self.Q, self._U, self._S = Vt[:rank].T, U[:, :rank], S[:rank]
        self.x0 = self.Q @ ((self._U.T @ rhs) / self._S)

    def apply(self, x):
        return x - self.Q @ (self.Q.T @ x) + self.x0

    def multipliers(self, Qx):
        return self._U @ (Qx / self._S)


class SvdDualGap:
    def __init__(self, hv, P):
        self.hv, self.P = hv, P
        eye = hv.vec(np.eye(hv.n))
        Qe = P.Q.T @ eye
        fixed = np.linalg.norm(eye - P.Q @ Qe) <= 1e-9 * np.linalg.norm(eye)
        self.trace = float(eye @ P.x0) if fixed else None
        self.nu_l1 = float(np.sum(np.abs(P.multipliers(Qe)))) if fixed else 0

    def __call__(self, w, Y):
        Qw = self.P.Q.T @ w
        slack = (float(np.linalg.norm(w - self.P.Q @ Qw))
                 - min(0.0, self.hv.lmin(Y)))
        return float(w @ self.P.x0) + self.trace * slack, slack, Qw

    def excluded(self, Y):
        g, slack, QY = self(Y, Y)
        if g >= 0.0:
            return 0.0
        lam_l1 = float(np.sum(np.abs(self.P.multipliers(QY))))
        return -g / (lam_l1 + slack * self.nu_l1)


def reference_splitting(hv, affine, start, tol, max_iter, reject=None):
    """The splitting loop over realified vectors."""
    from freecert.sdpcore import (
        CHECK_EVERY,
        MIN_ITER_BEFORE_STALL,
        STALL_REL,
        STALL_WINDOW,
    )

    def project_psd(v):
        w, U = np.linalg.eigh(hv.unvec(v))
        return hv.vec((U * np.maximum(w, 0.0)) @ U.conj().T)

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
            floor = hv.lmin(x)
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


def _random_hermitian(rng, n, scale=3.0):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (Z + Z.conj().T)


def _partitions(rng, count):
    for _ in range(count):
        n = int(rng.integers(1, 7))
        yield _random_partition(rng, n, objective=True)
        yield _random_partition(rng, n, objective=True, kinds=("sum",))
        if n >= 3:
            yield _moment_like(rng, n)[0]


def test_class_projection_matches_svd():
    from freecert.sdpcore import _Partition

    rng = np.random.default_rng(69)
    for inst in _partitions(rng, 25):
        hv = Realified(inst.n)
        P = SvdProjector(*hv.system(inst))
        part_ = _Partition(inst)
        assert np.max(np.abs(part_.x0 - hv.unvec(P.x0))) <= 1e-12
        for _ in range(3):
            X = _random_hermitian(rng, inst.n)
            x = hv.vec(X)
            assert np.max(np.abs(part_.apply(X)
                                 - hv.unvec(P.apply(x)))) <= 1e-12
            assert np.max(np.abs(part_.null(X) - hv.unvec(
                x - P.Q @ (P.Q.T @ x)))) <= 1e-12


def test_directions_match_svd_null_space():
    # the directions of maximize are a basis of the null space of the
    # realified rows: as many as its dimension, each in it, independent
    from freecert.sdpcore import _Partition

    rng = np.random.default_rng(63)
    for inst in _partitions(rng, 10):
        hv = Realified(inst.n)
        L, _ = hv.system(inst)
        rank = np.linalg.matrix_rank(L) if L.size else 0
        D = _Partition(inst).directions()
        assert len(D) == hv.dim - rank
        assert np.array_equal(D, np.conj(np.swapaxes(D, 1, 2)))
        if len(D):
            V = np.array([hv.vec(Dd) for Dd in D])
            assert np.max(np.abs(L @ V.T), initial=0.0) <= 1e-12
            assert np.linalg.matrix_rank(V) == len(D)


def test_real_directions_match_svd_null_space():
    # for a real instance the directions are a basis of the real symmetric
    # part of the null space: its realified vectors with no imaginary
    # coordinates
    from freecert.sdpcore import _Partition

    rng = np.random.default_rng(63)
    for inst in _partitions(rng, 10):
        inst = _real(inst)
        hv = Realified(inst.n)
        L, _ = hv.system(inst)
        re = inst.n + hv.k
        rank = np.linalg.matrix_rank(L[:, :re]) if L.size else 0
        D = _Partition(inst, float).directions()
        assert D.dtype == float and len(D) == re - rank
        assert np.array_equal(D, np.swapaxes(D, 1, 2))
        if len(D):
            V = np.array([hv.vec(Dd) for Dd in D])
            assert not V[:, re:].any()
            assert np.max(np.abs(L @ V.T), initial=0.0) <= 1e-12
            assert np.linalg.matrix_rank(V) == len(D)


def test_fixed_trace_and_multipliers_match_svd():
    # the closed forms give the SVD engine's trace test and, on sum
    # classes, its least-norm multipliers
    from freecert.sdpcore import _DualGap, _Partition

    rng = np.random.default_rng(70)
    grams = [_random_partition(rng, int(rng.integers(1, 7)), kinds=("sum",))
             for _ in range(25)]
    fixed = 0
    for inst in [*_partitions(rng, 25), *grams]:
        hv = Realified(inst.n)
        P = SvdProjector(*hv.system(inst))
        ref, new = SvdDualGap(hv, P), _DualGap(_Partition(inst))
        assert (ref.trace is None) == (new.trace is None)
        if ref.trace is None:
            continue
        assert new.trace == pytest.approx(ref.trace, abs=1e-12)
        if all(inst.sums):
            fixed += 1
            assert new._nu_l1 == pytest.approx(ref.nu_l1, rel=1e-12)
            Y = _random_hermitian(rng, inst.n)
            lam = P.multipliers(P.Q.T @ hv.vec(Y))
            assert new.base.multiplier_l1(Y) == pytest.approx(
                float(np.sum(np.abs(lam))), rel=1e-12)
    assert fixed >= len(grams)


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
    """solve_feasibility against the realified loop over the SVD projection:
    the same stop reason, iterations within one check window and b within
    1e-9 (the two round differently, so the bits no longer agree). Both
    instances fix the trace, so every run carries the dual certificate;
    the runs go over the instance and over its negation, which every
    right-hand side makes infeasible (a negative trace)."""
    from freecert.sdpcore import CHECK_EVERY, _DualGap, _Partition

    inst = (_chsh_1ab_instance() if which == "chsh_1ab"
            else _povm_instance(povm_sdp))
    negated = SdpInstance(inst.labels,
                          [None if r is None else -r for r in inst.rhs],
                          inst.sums)

    hv = Realified(inst.n)
    statuses = set()
    for which_inst in (inst, negated):
        assert _DualGap(_Partition(which_inst)).trace is not None
        P = SvdProjector(*hv.system(which_inst))
        ref = SvdDualGap(hv, P)
        for max_iter in (0, 1, 3000):
            new = solve_feasibility(which_inst, 1e-10, max_iter)
            old = reference_splitting(
                hv, P.apply, P.x0, 1e-10, max_iter,
                lambda y, x: ref.excluded(y - x) > 1e-10)
            assert new.status == old[3]
            assert abs(new.iterations - old[2]) <= CHECK_EVERY
            assert np.max(np.abs(new.b - hv.unvec(old[0]))) <= 1e-9
            statuses.add(new.status)
    assert {"converged", "infeasible", "max_iter"} <= statuses


def _f2_ball_table():
    """The quotient table of F2's radius-1 ball {e, g1^+-1, g2^+-1}."""
    from freecert.quotients import QuotientTable
    from freecert.words import free_group, generator, unit

    F2 = free_group(2)
    return QuotientTable([unit(F2)] + [generator(F2, i, e)
                                       for i in (1, 2) for e in (1, -1)])


@pytest.mark.parametrize("f, minimum", [
    ({"e": 1.0, "g1": -0.5, "g1^-1": -0.5}, 0.0),
    ({"g1": 1.0, "g1^-1": 1.0}, -2.0),
])
def test_moment_form_minimum_over_states_on_f2(f, minimum):
    """min phi(f) over the states of F2 is -max of the moment form of -f:
    1 - (g1 + g1^-1)/2 >= 0 vanishes at the trivial character, and
    g1 + g1^-1 reaches -2 at the character g1 -> -1. Real term maps give a
    real instance."""
    from freecert.sdpcore import moment_form
    from freecert.words import parse_word

    table = _f2_ball_table()
    spec = table.words[0].spec
    inst = moment_form({parse_word(spec, w): -c for w, c in f.items()},
                       table)
    assert inst.real
    assert inst.rhs[0] == 1.0 and set(inst.rhs[1:]) == {None}
    assert -maximize(inst, tol=1e-9).value == pytest.approx(minimum,
                                                            abs=1e-9)


def test_moment_form_rejects_words_outside_the_table():
    from freecert.sdpcore import moment_form
    from freecert.words import parse_word

    table = _f2_ball_table()
    spec = table.words[0].spec
    outside = parse_word(spec, "g1 g2 g1")
    with pytest.raises(ValueError) as err:
        moment_form({parse_word(spec, "g1"): 1.0, outside: 1.0}, table)
    assert str(err.value) == (f"support not contained in E^-1E: "
                              f"{[str(outside)]}")
