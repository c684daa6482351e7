import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.bell import (
    BellFunctional,
    BellScenario,
    Correlation,
    PvmFamily,
    correlation_of,
    hierarchy_words,
    inner_bound,
    moment_instance,
    outer_bound,
    parse_level,
)

CHSH = BellFunctional.from_correlators([[1.0, 1.0], [1.0, -1.0]])
S22 = BellScenario(2, 2)
# the chained inequality with three settings
CHAINED = BellFunctional.from_correlators([[1.0, 0.0, -1.0], [1.0, 1.0, 0.0],
                                           [0.0, 1.0, 1.0]])


def criterion_8_functionals():
    """The 20 functionals of selftest.criterion_8, in its order."""
    rng = np.random.default_rng(20240808)
    return [BellFunctional(rng.uniform(-1.0, 1.0, size=(2, 2, 2, 2)))
            for _ in range(20)]


def comp_basis_pvm(dim, m):
    effects = [np.zeros((dim, dim), dtype=complex) for _ in range(m)]
    for a in range(dim):
        effects[a % m][a, a] = 1.0
    return effects


def test_scenario_validation():
    assert S22.roots == (1.0, -1.0)
    for m in (3, 4, 5, 6, 8):
        roots = np.array(BellScenario(2, m).roots)
        k = np.arange(m)
        exact = 4 * k % m == 0
        assert np.array_equal(roots[exact],
                              np.array([1, 1j, -1, -1j])[4 * k[exact] // m])
        assert np.max(np.abs(roots - np.exp(2j * np.pi * k / m))) <= 1e-15
    with pytest.raises(ValueError):
        BellScenario(0, 2)
    with pytest.raises(ValueError):
        BellScenario(1, 1)


@pytest.mark.parametrize("effects, reason", [
    ([comp_basis_pvm(3, 2)], "dimension mismatch"),
    # P and I - P are idempotent and sum to I, but P is not hermitian
    ([[np.array([[1.0, 1.0], [0.0, 0.0]]),
       np.array([[0.0, -1.0], [0.0, 1.0]])]], "not hermitian"),
    ([[np.eye(2) * 0.5, np.eye(2) * 0.5]], "not idempotent"),
    ([[np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]], "sum to the identity"),
], ids=["shape", "hermitian", "idempotent", "sum"])
def test_pvm_family_validation(effects, reason):
    good = PvmFamily(2, [comp_basis_pvm(2, 2)])
    assert good.dim == 2 and good.settings.shape == (1, 2, 2, 2)
    with pytest.raises(ValueError, match=reason):
        PvmFamily(2, effects)


def test_correlation_deterministic_pvms():
    # P_{i0} = I picks outcome i0 with certainty
    A = PvmFamily(1, [[np.ones((1, 1)), np.zeros((1, 1))],
                      [np.zeros((1, 1)), np.ones((1, 1))]])
    B = PvmFamily(1, [[np.ones((1, 1)), np.zeros((1, 1))]] * 2)
    corr = correlation_of(A, B, np.array([1.0]))
    for k in range(2):
        for l in range(2):
            i0 = 0 if k == 0 else 1
            assert corr.data[k][l][i0][0] == pytest.approx(1.0)
            assert corr.data[k][l].sum() == pytest.approx(1.0)


def test_correlation_maximally_entangled():
    pvm = comp_basis_pvm(2, 2)
    A = PvmFamily(2, [pvm, pvm])
    B = PvmFamily(2, [pvm, pvm])
    xi = np.zeros(4)
    xi[0] = xi[3] = 1 / np.sqrt(2)  # (|00> + |11>)/sqrt(2)
    corr = correlation_of(A, B, xi)
    for k in range(2):
        for l in range(2):
            assert corr.data[k][l][0][0] == pytest.approx(0.5)
            assert corr.data[k][l][1][1] == pytest.approx(0.5)
            assert corr.data[k][l][0][1] == pytest.approx(0.0)


def random_family(dim, s, rng):
    from freecert.bell import _random_settings

    return PvmFamily(dim, _random_settings(dim, s, rng))


def test_correlation_invariants_random():
    rng = np.random.default_rng(101)
    for _ in range(20):
        A = random_family(3, S22, rng)
        B = random_family(2, S22, rng)
        xi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        xi /= np.linalg.norm(xi)
        corr = correlation_of(A, B, xi)  # validates invariants on build
        assert corr.data.shape == (2, 2, 2, 2)


def _correlation_loop(A, B, xi):
    # correlation_of as one trace per entry
    dA, dB = len(A.settings), len(B.settings)
    m = len(A.settings[0])
    Xi = xi.reshape(A.dim, B.dim)
    K = [[Xi @ Q.T @ Xi.conj().T for Q in pvm] for pvm in B.settings]
    g = np.empty((dA, dB, m, m))
    for k, pvm in enumerate(A.settings):
        for i, P in enumerate(pvm):
            for l in range(dB):
                for j in range(m):
                    g[k][l][i][j] = complex(np.trace(P @ K[l][j])).real
    return g


def _multipliers_loop(c, other, Xi):
    # _effect_multipliers as one sum of matrices per effect
    d, m = c.shape[0], c.shape[2]
    K = [[Xi @ Q.T @ Xi.conj().T for Q in pvm] for pvm in other.settings]
    G = [[None] * m for _ in range(d)]
    for k in range(d):
        for i in range(m):
            acc = np.zeros_like(K[0][0])
            for l in range(d):
                for j in range(m):
                    acc += c[k][l][i][j] * K[l][j]
            G[k][i] = 0.5 * (acc + acc.conj().T)
    return np.array(G)


def _random_strategy(rng, d, m, dim_a, dim_b):
    s = BellScenario(d, m)
    A = random_family(dim_a, s, rng)
    B = random_family(dim_b, s, rng)
    xi = (rng.standard_normal(dim_a * dim_b)
          + 1j * rng.standard_normal(dim_a * dim_b))
    c = rng.uniform(-1, 1, size=(d, d, m, m))
    return A, B, xi / np.linalg.norm(xi), c


def test_stacked_contractions_match_loops():
    from freecert.bell import _effect_multipliers

    rng = np.random.default_rng(111)
    for d, m, dim_a, dim_b in itertools.product((1, 2, 3), (2, 3, 4),
                                                (1, 2, 3), (1, 2, 3)):
        A, B, xi, c = _random_strategy(rng, d, m, dim_a, dim_b)
        assert A.settings.shape == (d, m, dim_a, dim_a)
        Xi = xi.reshape(dim_a, dim_b)
        got = correlation_of(A, B, xi).data
        assert np.max(np.abs(got - _correlation_loop(A, B, xi))) <= 1e-12
        for G, ref in (
                (_effect_multipliers(c, B.settings, Xi),
                 _multipliers_loop(c, B, Xi)),
                (_effect_multipliers(c.transpose(1, 0, 3, 2), A.settings,
                                     Xi.T),
                 _multipliers_loop(c.transpose(1, 0, 3, 2), A, Xi.T))):
            assert G.shape == ref.shape
            assert np.max(np.abs(G - ref)) <= 1e-12


def _random_family_loop(dim, s, rng):
    # _random_settings as one outer product added per direction
    settings = []
    for _ in range(s.d):
        Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        Q, _ = np.linalg.qr(Z)
        perm = rng.permutation(dim)
        effects = [np.zeros((dim, dim), dtype=complex) for _ in range(s.m)]
        for pos, col in enumerate(perm):
            if dim == 1:
                effects[pos % s.m][0, 0] = 1.0
            else:
                v = Q[:, col]
                effects[pos % s.m] += np.outer(v, v.conj())
        settings.append(effects)
    return np.array(settings)


def test_stacked_builders_match_loops():
    # the same floats, and the same random draws, as the loops
    from freecert.bell import _random_settings

    for d, m, dim in itertools.product((1, 2, 3), (2, 3, 4), (1, 2, 3, 5)):
        s = BellScenario(d, m)
        got = _random_settings(dim, s, np.random.default_rng([113, dim]))
        ref = _random_family_loop(dim, s, np.random.default_rng([113, dim]))
        assert got.tobytes() == ref.tobytes()
    w = np.random.default_rng(114).uniform(-1, 1, size=(3, 3))
    c = np.zeros((3, 3, 2, 2))
    for k, l, i, j in itertools.product(range(3), range(3), range(2),
                                        range(2)):
        c[k][l][i][j] = w[k][l] * ((-1) ** (i + j))
    assert BellFunctional.from_correlators(w).coeff.tobytes() == c.tobytes()


def test_effect_multipliers_give_the_functional_value():
    # sum_{k,i} tr(P_i^k G_i^k) is the functional's value, for either party
    from freecert.bell import _effect_multipliers

    rng = np.random.default_rng(112)
    for d, m, dim_a, dim_b in [(2, 2, 2, 2), (2, 3, 2, 3), (3, 4, 3, 1),
                               (1, 2, 1, 2)]:
        A, B, xi, c = _random_strategy(rng, d, m, dim_a, dim_b)
        Xi = xi.reshape(dim_a, dim_b)
        value = BellFunctional(c).value(correlation_of(A, B, xi))
        G_a = _effect_multipliers(c, B.settings, Xi)
        G_b = _effect_multipliers(c.transpose(1, 0, 3, 2), A.settings, Xi.T)
        for P, G in ((A.settings, G_a), (B.settings, G_b)):
            total = np.einsum("kiab,kiba->", P, G)
            assert abs(total.imag) <= 1e-12
            assert total.real == pytest.approx(value, abs=1e-12)


def test_hierarchy_words_counts():
    assert len(hierarchy_words(S22, 1)) == 5
    assert len(hierarchy_words(S22, "1ab")) == 9
    assert len(hierarchy_words(S22, 2)) == 13
    s23 = BellScenario(2, 3)
    assert len(hierarchy_words(s23, 1)) == 1 + 2 * 2 * 2


def test_parse_level():
    assert [parse_level(v) for v in (1, "2", "1ab", "1+AB")] == [1, 2, "1ab",
                                                                "1ab"]
    for bad in ("x", 0, "-1", "1.5", ""):
        with pytest.raises(ValueError, match="level must be 1ab or an "
                                             "integer >= 1"):
            hierarchy_words(S22, bad)


def test_fourier_consistency():
    # build h from explicit PVMs and recover gamma through the inverse
    # transform used by the outer bound
    rng = np.random.default_rng(102)
    for m in (2, 3):
        s = BellScenario(2, m)
        A = random_family(3, s, rng)
        B = random_family(3, s, rng)
        xi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        xi /= np.linalg.norm(xi)
        corr = correlation_of(A, B, xi)
        omega = np.exp(2j * np.pi / m)

        def unitary(pvm):
            # the order-m unitary sum_i omega^i P_i of an m-outcome PVM
            return np.tensordot(omega ** np.arange(1, m + 1), pvm, axes=1)

        UA = [unitary(pvm) for pvm in A.settings]
        UB = [unitary(pvm) for pvm in B.settings]
        for k in range(s.d):
            for l in range(s.d):
                for i in range(1, m + 1):
                    for j in range(1, m + 1):
                        val = 0j
                        for v in range(1, m + 1):
                            for w in range(1, m + 1):
                                op = np.kron(
                                    np.linalg.matrix_power(UA[k], v),
                                    np.linalg.matrix_power(UB[l], w))
                                h = complex(np.vdot(xi, op @ xi))
                                val += omega ** (-i * v - j * w) * h / m ** 2
                        assert abs(val.imag) < 1e-10
                        assert val.real == pytest.approx(
                            corr.data[k][l][i - 1][j - 1], abs=1e-10)


def test_outer_bound_zero_functional():
    zero = BellFunctional(np.zeros((2, 2, 2, 2)))
    assert outer_bound(S22, zero, "1ab").value == pytest.approx(0.0, abs=1e-9)


def test_outer_bound_marginal_functional():
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, :] = 1.0  # probability of outcome 1 at setting 1, party A
    val = outer_bound(S22, BellFunctional(c), 1).value
    assert val == pytest.approx(1.0, abs=1e-5)


def test_outer_bound_chsh():
    val = outer_bound(S22, CHSH, "1ab").value
    assert val == pytest.approx(2 * np.sqrt(2), abs=1e-3)


def test_moment_instance_shape():
    inst, E = moment_instance(S22, CHSH, "1ab")
    assert inst.n == 9
    assert len(E) == 9
    assert inst.objective


def _omega_objective(s, functional, level):
    """The objective of moment_instance accumulated from powers of
    omega = exp(2 pi i / m), as {(row, col): coef}: the reference for the
    table of roots."""
    from freecert.bell import _product_spec
    from freecert.quotients import QuotientTable
    from freecert.words import generator, pair_word

    E = hierarchy_words(s, level)
    table = QuotientTable(E)
    rows, cols = np.divmod(
        np.unique(table.labels, return_index=True)[1], len(E))
    spec = _product_spec(s)
    cyc, m, c = spec.left, s.m, functional.coeff
    omega = np.exp(2j * np.pi / m)
    obj = {}
    for k, l, i, j in itertools.product(range(s.d), range(s.d), range(m),
                                        range(m)):
        coef = c[k][l][i][j]
        if coef == 0.0:
            continue
        for v, w in itertools.product(range(1, m + 1), repeat=2):
            q = table.index[pair_word(spec, generator(cyc, k + 1, v % m),
                                      generator(cyc, l + 1, w % m))]
            pos = (int(rows[q]), int(cols[q]))
            obj[pos] = obj.get(pos, 0j) + (
                coef / m ** 2 * omega ** (-(i + 1) * v - (j + 1) * w))
    return obj


def test_moment_objective_from_the_roots_table():
    # two outcomes: exactly real, with the real parts of the omega ** k
    # accumulation bit for bit; three outcomes: within eps |c|_1 of it, the
    # rounding of sums whose terms add up to at most |c|_1 in magnitude
    rng = np.random.default_rng(111)
    s23 = BellScenario(2, 3)
    two = [CHSH, CHAINED, *criterion_8_functionals(),
           BellFunctional(rng.uniform(-1.0, 1.0, size=(3, 3, 2, 2)))]
    three = [BellFunctional(rng.uniform(-1.0, 1.0, size=(2, 2, 3, 3)))
             for _ in range(3)]
    for f, level in itertools.chain(
            itertools.product(two, (1, "1ab")),
            itertools.product([CHSH, CHAINED, two[-1], three[0]], (2,)),
            itertools.product(three, (1, "1ab"))):
        inst, _ = moment_instance(f.scenario, f, level)
        ref = _omega_objective(f.scenario, f, level)
        assert [(r, c) for r, c, _ in inst.objective] == sorted(ref)
        got = np.array([coef for _, _, coef in inst.objective])
        want = np.array([ref[r, c] for r, c, _ in inst.objective])
        if f.scenario.m == 2:
            assert inst.real and not got.imag.any()
            assert got.real.tobytes() == want.real.tobytes()
        else:
            assert f.scenario == s23 and not inst.real
            assert np.max(np.abs(got - want)) <= (
                np.finfo(float).eps * np.abs(f.coeff).sum())


@pytest.mark.parametrize("level", [1, "1ab", 2])
def test_real_outer_bound_certifies_the_complex_relaxation(monkeypatch,
                                                           level):
    # two-outcome moment instances are real and solved over real symmetric
    # matrices: the dual is PSD, Z + C has no part along any direction of
    # the complex relaxation (the imaginary ones included), and the bound
    # is the complex solve's within tol
    from freecert.bell import OUTER_DEFAULT_TOL
    from freecert.denselin import psd_floor
    from freecert.sdpcore import (
        SdpInstance,
        _objective_matrix,
        _Partition,
        maximize,
    )

    for f in [CHSH, CHAINED, *criterion_8_functionals()]:
        inst, _ = moment_instance(f.scenario, f, level)
        assert inst.real
        res = maximize(inst, tol=OUTER_DEFAULT_TOL)
        Z, C = res.dual, _objective_matrix(inst)
        scale = 1.0 + np.max(np.abs(Z))
        assert Z.dtype == complex and not Z.imag.any()
        assert psd_floor(Z) >= -1e-12 * scale
        D = _Partition(inst).directions()
        along = np.einsum("dij,ij->d", D.conj(), Z + C).real
        assert np.max(np.abs(along)) <= 1e-9 * scale
        with monkeypatch.context() as patch:
            patch.setattr(SdpInstance, "real", property(lambda self: False))
            ref = maximize(inst, tol=OUTER_DEFAULT_TOL)
        assert abs(res.value - ref.value) <= OUTER_DEFAULT_TOL


def test_check_povm_rejects_bad_povm():
    from freecert.bell import _check_povm

    with pytest.raises(ValueError, match="sum to the identity"):
        _check_povm(np.array([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="not PSD"):
        _check_povm(np.array([np.diag([2.0, 0.5]), np.diag([-1.0, 0.5])]))
    with pytest.raises(ValueError, match="non-finite"):
        _check_povm(np.array([np.diag([np.nan, 0.5]), np.diag([0.5, 0.5])]))


def test_inner_bound_zero():
    zero = BellFunctional(np.zeros((2, 2, 2, 2)))
    value, A, B, xi, _ = inner_bound(S22, zero, dim=1, iters=5, seed=0,
                                     restarts=2)
    assert value == 0.0


def test_inner_bound_chsh_classical():
    value, A, B, xi, _ = inner_bound(S22, CHSH, dim=1, iters=20, seed=1,
                                     restarts=8)
    assert value == 2.0  # deterministic strategies peak at exactly 2
    # exhaustive deterministic check
    best = max(a1 * (b1 + b2) + a2 * (b1 - b2)
               for a1 in (-1, 1) for a2 in (-1, 1)
               for b1 in (-1, 1) for b2 in (-1, 1))
    assert best == 2


def test_inner_bound_chsh_quantum():
    value, A, B, xi, _ = inner_bound(S22, CHSH, dim=2, iters=50, seed=2,
                                     restarts=8)
    assert value >= 2 * np.sqrt(2) - 1e-3
    # reported strategies are exact PVMs achieving the reported value
    corr = correlation_of(A, B, xi)
    assert CHSH.value(corr) == pytest.approx(value)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_inner_bound_restart_independent_of_rounding(monkeypatch, sign):
    # the dim-2 CHSH restarts all reach 2 sqrt 2 to within rounding, so a
    # change below 1e-13 in each restart's value must not change which
    # strategy is reported. Every value the see-saw compares comes from
    # _evaluate, which labels each strategy with its restart
    import freecert.bell as bell_mod

    def run():
        return inner_bound(S22, CHSH, dim=2, iters=50, seed=2, restarts=4)

    _, A, B, xi, _ = run()
    evaluate = bell_mod._evaluate
    nudged_rows = set()

    def nudged(c, rows, A, B):
        got = evaluate(c, rows, A, B)
        nudged_rows.update(rows.tolist())
        return got._replace(value=got.value + sign * 2e-14 * rows)

    monkeypatch.setattr(bell_mod, "_evaluate", nudged)
    _, A2, B2, xi2, _ = run()
    assert nudged_rows == {0, 1, 2, 3}
    assert np.array_equal(A2.settings, A.settings)
    assert np.array_equal(B2.settings, B.settings)
    assert np.array_equal(xi2, xi)


# The see-saw one restart at a time, as it ran before the restarts were
# stacked: the reference for the stacked inner_bound, with the per-family
# Bell operator, state step and multipliers of that version.

def _reference_bell_operator(c, A, B):
    d, m = c.shape[0], c.shape[2]
    N = A.dim * B.dim
    P = A.settings[:, None, :, None, :, None, :, None]
    Q = B.settings[None, :, None, :, None, :, None, :]
    kron = (P * Q).reshape(d, d, m, m, N, N)
    W = np.zeros((N, N), dtype=complex)
    for k, l, i, j in zip(*np.nonzero(c)):
        W += c[k, l, i, j] * kron[k, l, i, j]
    return W


def _reference_top_state(W):
    from freecert.denselin import eigh

    _, U = eigh(W)
    xi = U[:, -1]
    return xi / np.linalg.norm(xi)


def _reference_multipliers(c, other, Xi):
    K = Xi @ np.swapaxes(other.settings, -1, -2) @ Xi.conj().T
    acc = np.einsum("klij,ljab->kiab", c, K)
    return 0.5 * (acc + np.swapaxes(acc, -1, -2).conj())


def _update_povm(G):
    # one setting's POVM update as a stack of one: its effects, checked,
    # and its MaximizeResult
    from freecert.bell import _check_povm, _solve_povms

    effects, results = _solve_povms(np.asarray(G)[None])
    _check_povm(effects[0])
    return effects[0], results[0]


def _reference_inner_bound(s, functional, dim, iters, seed, restarts):
    # also returns the number of iterations each restart ran
    from freecert.bell import (ACCEPT_MARGIN, _random_settings,
                               _round_to_pvm, _update_two_outcome)

    c = functional.coeff
    c_swapped = c.transpose(1, 0, 3, 2)
    best = None
    info = {"sdp_calls": 0, "iterations": 0, "max_gap": None}
    ran = []
    for r in range(restarts):
        rng = np.random.default_rng([int(seed), r])
        A = PvmFamily(dim, _random_settings(dim, s, rng))
        B = PvmFamily(dim, _random_settings(dim, s, rng))
        xi = _reference_top_state(_reference_bell_operator(c, A, B))
        value = functional.value(correlation_of(A, B, xi))
        ran.append(0)
        for _ in range(iters):
            ran[-1] += 1
            improved = False
            for party in (0, 1):
                Xi = xi.reshape(A.dim, B.dim)
                G = (_reference_multipliers(c, B, Xi) if party == 0 else
                     _reference_multipliers(c_swapped, A, Xi.T))
                if s.m == 2:
                    new_settings = _update_two_outcome(G)
                else:
                    new_settings = []
                    for Gk in G:
                        effects, res = _update_povm(Gk)
                        info["sdp_calls"] += 1
                        info["iterations"] += res.iterations
                        info["max_gap"] = (res.gap if info["max_gap"] is None
                                           else max(info["max_gap"], res.gap))
                        new_settings.append(_round_to_pvm(effects))
                pair = [A, B]
                pair[party] = PvmFamily(dim, new_settings)
                xi_new = _reference_top_state(
                    _reference_bell_operator(c, *pair))
                val_new = functional.value(correlation_of(*pair, xi_new))
                if val_new > value + ACCEPT_MARGIN:
                    (A, B), xi, value = pair, xi_new, val_new
                    improved = True
            if not improved:
                break
        if best is None or value > best[0] + ACCEPT_MARGIN:
            best = (value, A, B, xi)
    return best + (info,), ran


def _relabelled(rng, w):
    # a correlator functional under setting permutations, outcome flips
    # and a party swap
    d = len(w)
    w = np.asarray(w)[rng.permutation(d)][:, rng.permutation(d)]
    w = w * rng.choice([-1.0, 1.0], size=d)[:, None]
    w = w * rng.choice([-1.0, 1.0], size=d)[None, :]
    return BellFunctional.from_correlators(w.T if rng.random() < 0.5 else w)


def _seesaw_cases():
    chained = [[1.0, 0.0, -1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    chsh = [[1.0, 1.0], [1.0, -1.0]]
    cases = []
    for k in range(10):
        rng = np.random.default_rng([115, k])
        for w in (chained, chsh):
            f = _relabelled(rng, w)
            cases.append((f, dict(dim=2, iters=50, seed=k, restarts=4)))
    # CGLMP I_3
    cglmp = np.zeros((2, 2, 3, 3))
    for a, b in itertools.product(range(3), range(3)):
        cglmp[0, 0, a, b] = (a == b) - (b == (a + 1) % 3)
        cglmp[1, 0, a, b] = (b == (a + 1) % 3) - (a == b)
        cglmp[1, 1, a, b] = (a == b) - (b == (a + 1) % 3)
        cglmp[0, 1, a, b] = (b == a) - (a == (b + 1) % 3)
    for restarts in (1, 3):
        cases.append((BellFunctional(cglmp),
                      dict(dim=2, iters=2, seed=2, restarts=restarts)))
    rng = np.random.default_rng(116)
    for dim, iters in itertools.product((1, 2, 3), (0, 1, 40)):
        cases.append((BellFunctional(rng.uniform(-1, 1, size=(2, 2, 2, 2))),
                      dict(dim=dim, iters=iters, seed=dim, restarts=5)))
    # each party's step of four restarts is one stack of eight POVM solves
    cases.append((BellFunctional(cglmp),
                  dict(dim=2, iters=3, seed=4, restarts=4)))
    return cases


@pytest.mark.parametrize("f, kw", _seesaw_cases())
def test_stacked_seesaw_matches_reference_loop(f, kw):
    ref, _ = _reference_inner_bound(f.scenario, f, **kw)
    got = inner_bound(f.scenario, f, **kw)
    assert got[0] == ref[0] and type(got[0]) is float
    for x, y in ((got[1], ref[1]), (got[2], ref[2])):
        assert x.settings.tobytes() == y.settings.tobytes()
    assert got[3].tobytes() == ref[3].tobytes()
    assert got[4] == ref[4]


def test_stacked_seesaw_when_restarts_stop_apart():
    # at this scale the first updates of restart 3 gain less than
    # ACCEPT_MARGIN, so it stops after its first iteration while the others
    # go on for two or three
    f = BellFunctional(1e-11 * CHSH.coeff)
    kw = dict(dim=2, iters=50, seed=2, restarts=4)
    ref, ran = _reference_inner_bound(S22, f, **kw)
    assert ran == [2, 2, 3, 1]
    got = inner_bound(S22, f, **kw)
    assert got[0] == ref[0]
    assert got[1].settings.tobytes() == ref[1].settings.tobytes()
    assert got[2].settings.tobytes() == ref[2].settings.tobytes()
    assert got[3].tobytes() == ref[3].tobytes()


def test_seesaw_checks_every_restart(monkeypatch):
    # an update that is no PVM for one restart of four is refused
    import freecert.bell as bell_mod

    update = bell_mod._update_two_outcome

    def broken(G):
        new = update(G)
        if len(new) == 4:
            new[2, 0] *= 0.5
        return new

    monkeypatch.setattr(bell_mod, "_update_two_outcome", broken)
    with pytest.raises(ValueError, match="not idempotent"):
        inner_bound(S22, CHSH, dim=2, iters=5, seed=0, restarts=4)


def test_stack_checks_find_one_bad_entry():
    # each check of PvmFamily and Correlation, on a stack where only one
    # entry breaks it
    from freecert.bell import _check_correlations, _check_pvms

    rng = np.random.default_rng(118)
    A, B, xi, _ = _random_strategy(rng, 2, 2, 2, 2)
    P = np.stack([A.settings, B.settings] * 2)
    _check_pvms(P, 2, ndim=5)
    breaks = {
        "not hermitian": lambda Q: Q.__setitem__((3, 1, 0, 0, 1), 0.5),
        "not idempotent": lambda Q: Q.__imul__(
            np.array([1, 1, 0.5, 1])[:, None, None, None, None]),
        "sum to the identity": lambda Q: Q.__setitem__(
            (1, 0, 1), Q[1, 0, 0].copy()),
    }
    for reason, spoil in breaks.items():
        Q = P.copy()
        spoil(Q)
        with pytest.raises(ValueError, match=reason):
            _check_pvms(Q, 2, ndim=5)
    g = np.stack([correlation_of(A, B, xi).data] * 3)
    _check_correlations(g, ndim=5)
    uniform = np.full((2, 2, 2, 2), 0.25)
    signalling = uniform.copy()
    signalling[0, 0] = [[0.5, 0.0], [0.5, 0.0]]
    signalling[1, 0] = [[0.0, 0.5], [0.0, 0.5]]
    for reason, bad in (
            ("negative probability", uniform + [[0.3, -0.3], [-0.3, 0.3]]),
            ("do not normalize", 2 * uniform),
            ("B-marginals", signalling),
            ("A-marginals", signalling.transpose(1, 0, 3, 2))):
        h = g.copy()
        h[1] = bad
        with pytest.raises(ValueError, match=reason):
            _check_correlations(h, ndim=5)


def test_inner_bound_three_outcomes_smoke():
    s = BellScenario(2, 3)
    rng = np.random.default_rng(104)
    c = rng.uniform(-1, 1, size=(2, 2, 3, 3))
    f = BellFunctional(c)
    value, A, B, xi, _ = inner_bound(s, f, dim=2, iters=3, seed=3,
                                     restarts=1)
    corr = correlation_of(A, B, xi)
    assert f.value(corr) == pytest.approx(value)


def test_hierarchy_monotone_chsh():
    v1 = outer_bound(S22, CHSH, 1).value
    v1ab = outer_bound(S22, CHSH, "1ab").value
    v2 = outer_bound(S22, CHSH, 2).value
    assert v1ab <= v1 + 1e-6
    assert v2 <= v1ab + 1e-6
    assert v2 == pytest.approx(2 * np.sqrt(2), abs=1e-3)


def test_inner_at_most_outer_criterion_8():
    # the functionals and see-saws of selftest.criterion_8: a dual bound
    # is never below a value that exact PVMs reach
    rng = np.random.default_rng(20240808)
    for trial in range(20):
        f = BellFunctional(rng.uniform(-1.0, 1.0, size=(2, 2, 2, 2)))
        inner = inner_bound(S22, f, dim=2, iters=40, seed=trial,
                            restarts=4)[0]
        assert inner <= outer_bound(S22, f, "1ab").value + 1e-12


def test_inner_at_most_outer_random():
    rng = np.random.default_rng(105)
    for _ in range(3):
        c = rng.uniform(-1, 1, size=(2, 2, 2, 2))
        f = BellFunctional(c)
        inner = inner_bound(S22, f, dim=2, iters=40, seed=6, restarts=4)[0]
        outer = outer_bound(S22, f, "1ab").value
        assert inner <= outer + 1e-6


def _classical_max(c):
    d, _, m, _ = c.shape
    return max(
        sum(c[k, l, a[k], b[l]] for k in range(d) for l in range(d))
        for a in itertools.product(range(m), repeat=d)
        for b in itertools.product(range(m), repeat=d))


def test_outer_certificate_not_below_classical_maximum():
    # the relaxation's optimum lies within 1e-8 of this functional's
    # classical value, so a bound has no slack there to hide an error
    r = random.Random(1)
    c = np.array([r.uniform(-1, 1) for _ in range(36)]).reshape(3, 3, 2, 2)
    classical = _classical_max(c)
    assert classical == pytest.approx(1.8207290763658, abs=1e-12)
    from freecert.denselin import psd_floor

    res = outer_bound(BellScenario(3, 2), BellFunctional(c), "1ab")
    assert res.value >= classical
    assert 0.0 <= res.gap <= 2e-7 and psd_floor(res.b) > 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36))
def test_outer_bound_not_below_classical_random(coeffs):
    c = np.array(coeffs).reshape(3, 3, 2, 2)
    res = outer_bound(BellScenario(3, 2), BellFunctional(c), "1ab")
    assert res.value >= _classical_max(c)


@pytest.mark.parametrize("d, m, dims", [(3, 2, (2, 2)), (2, 3, (2, 3)),
                                        (1, 2, (1, 3))])
def test_bell_operator_matches_kron_loop(d, m, dims):
    # the same floats as adding c * np.kron(P, Q) term by term, in order
    from freecert.bell import _bell_operator

    rng = np.random.default_rng(106)
    s = BellScenario(d, m)
    A = random_family(dims[0], s, rng)
    B = random_family(dims[1], s, rng)
    c = rng.uniform(-1, 1, size=(d, d, m, m))
    c[rng.uniform(size=c.shape) < 0.3] = 0.0
    c.flat[0] = -0.0
    W = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
    for k, l, i, j in itertools.product(range(d), range(d), range(m),
                                        range(m)):
        if c[k][l][i][j] != 0.0:
            W += c[k][l][i][j] * np.kron(A.settings[k][i], B.settings[l][j])
    assert _bell_operator(c, A.settings, B.settings).tobytes() == W.tobytes()
    # and the same floats for each pair of a stack
    A2 = random_family(dims[0], s, rng)
    B2 = random_family(dims[1], s, rng)
    stack = _bell_operator(c, np.stack([A2.settings, A.settings]),
                           np.stack([B2.settings, B.settings]))
    assert stack[1].tobytes() == W.tobytes()


def _random_hermitian_stack(rng, m, n):
    Z = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return Z + np.conj(np.swapaxes(Z, 1, 2))


@pytest.mark.parametrize("n, m", list(itertools.product((2, 3, 4), (3, 4))))
def test_povm_step_certifies_its_optimum(n, m):
    # each optimality condition is checked here, none taken from the solve:
    # the effects form a POVM, and Y = Z_ii + G_i, for the dual Z >= 0 of
    # the solve, is the same for every i, so Y - G_i = Z_ii >= 0 makes Y a
    # dual point, and tr Y exceeds the effects' value by at most the gap
    # the update asks for
    from freecert.bell import PVM_TOL, TIE_TOL

    rng = np.random.default_rng([107, n, m])
    G = _random_hermitian_stack(rng, m, n)
    effects, res = _update_povm(list(G))
    M = np.array(effects)
    assert M.shape == (m, n, n)
    assert np.linalg.eigvalsh(M).min() >= -PVM_TOL
    assert np.max(np.abs(M.sum(axis=0) - np.eye(n))) <= PVM_TOL
    value = sum(np.trace(G[i] @ M[i]).real for i in range(m))
    scale = max(1.0, n * max(np.linalg.norm(Gi, 2) for Gi in G))
    Ys = [res.dual[i * n:(i + 1) * n, i * n:(i + 1) * n] + G[i]
          for i in range(m)]
    Y = Ys[0]
    assert max(np.max(np.abs(Yi - Y)) for Yi in Ys) <= 1e-12 * scale
    assert np.linalg.eigvalsh(Y - G).min() >= -1e-12 * scale
    trace = np.trace(Y).real
    assert trace == pytest.approx(res.value, abs=1e-12 * scale)
    assert value - 1e-12 * scale <= trace <= value + 0.1 * TIE_TOL * scale


@pytest.mark.parametrize("n", (1, 2, 3))
def test_povm_step_matches_closed_forms(n):
    # two outcomes: the projector onto the positive part of G_1 - G_2 is
    # optimal; diagonal G: each basis vector goes to the effect that values
    # it most
    from freecert.bell import TIE_TOL, _update_two_outcome

    rng = np.random.default_rng([108, n])
    two = _random_hermitian_stack(rng, 2, n)
    diagonal = np.array([np.diag(rng.standard_normal(n)) for _ in range(4)])
    pair = _update_two_outcome(two[None])
    assert pair.shape == (1, 2, n, n)
    for G, reference in (
            (two, np.einsum("iab,iba->", two, pair[0]).real),
            (diagonal, float(np.sum(np.max(np.diagonal(diagonal, 0, 1, 2),
                                           axis=0))))):
        effects, res = _update_povm(list(G))
        value = sum(np.trace(Gi @ Mi).real for Gi, Mi in zip(G, effects))
        scale = max(1.0, n * max(np.linalg.norm(Gi, 2) for Gi in G))
        assert reference - 1e-12 * scale <= res.value
        assert value >= reference - 0.1 * TIE_TOL * scale - 1e-12 * scale


def test_stacked_povm_solves_match_single_solves():
    # one stack over random, scaled and zero multipliers (the instances
    # leave the stack at different iterations) against a stack of one per
    # G, and the dual of each: Y = Z_ii + G_i is the same for every i,
    # Y - G_i >= 0 and tr Y is the value
    from freecert.bell import _solve_povms

    rng = np.random.default_rng(125)
    m, n = 3, 2
    G = np.array([s * _random_hermitian_stack(rng, m, n)
                  for s in (1.0, 1e-4, 0.0, 50.0, 1.0, 1.0)])
    effects, results = _solve_povms(G)
    assert [res.iterations for res in results] == [6, 7, 0, 8, 7, 8]
    for b, res in enumerate(results):
        one, (ref,) = _solve_povms(G[b:b + 1])
        scale = max(1.0, n * max(np.linalg.norm(Gi, 2) for Gi in G[b]))
        assert res.iterations == ref.iterations
        assert abs(res.value - ref.value) <= 1e-12 * scale
        assert abs(res.gap - ref.gap) <= 1e-12 * scale
        assert np.max(np.abs(effects[b] - one[0])) <= 1e-12
        Ys = [res.dual[i * n:(i + 1) * n, i * n:(i + 1) * n] + G[b, i]
              for i in range(m)]
        assert max(np.max(np.abs(Y - Ys[0])) for Y in Ys) <= 1e-12 * scale
        assert np.linalg.eigvalsh(Ys[0] - G[b]).min() >= -1e-12 * scale
        assert np.trace(Ys[0]).real == pytest.approx(res.value,
                                                     abs=1e-12 * scale)


def test_povm_step_zero_and_tied_objectives():
    effects, _ = _update_povm(list(np.zeros((3, 2, 2), dtype=complex)))
    assert np.allclose(effects, np.eye(2) / 3)
    # a direction every effect values alike is split evenly
    effects, _ = _update_povm(list(np.array([[[0.3]], [[0.3]], [[-1.0]]])))
    assert [M[0, 0].real for M in effects] == pytest.approx([0.5, 0.5, 0.0],
                                                           abs=1e-6)


def test_round_to_pvm_ignores_last_bits_of_a_tie():
    # effect 0 and effect 1 share v evenly; noise of 1e-12 must not decide
    # which of them gets it
    from freecert.bell import _round_to_pvm

    rng = np.random.default_rng(110)
    for n in (2, 3):
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(Z)
        v = Q[:, 0]
        rest = Q[:, 1:] @ Q[:, 1:].conj().T
        share = 0.5 * np.outer(v, v.conj())
        povm = [share, share.copy(), rest]
        clean = _round_to_pvm(povm)
        assert np.allclose(clean[0], np.outer(v, v.conj()), atol=1e-12)
        for _ in range(50):
            noisy = []
            for M in povm:
                E = _random_hermitian_stack(rng, 1, n)[0]
                noisy.append(M + 1e-12 * E)
            w, U = np.linalg.eigh(sum(noisy))
            isqrt = (U / np.sqrt(w)) @ U.conj().T
            noisy = [isqrt @ M @ isqrt for M in noisy]
            for P, P0 in zip(_round_to_pvm(noisy), clean):
                assert np.max(np.abs(P - P0)) <= 1e-9
