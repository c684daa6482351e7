import random

import numpy as np
import pytest

from freecert.extendpt import partial_positive_type, random_positive_type
from freecert.gnsrep import gns
from freecert.grounded import double_set, grounded_set
from freecert.words import free_group, generator, multiply, unit

F2 = free_group(2)
U = unit(F2)


def g(i, e=1):
    return generator(F2, i, e)


def fixture_E():
    return grounded_set(F2, {U, g(1), g(2), multiply(g(1), g(2))})


def delta_state(E):
    vals = {w: (1.0 + 0j if w.is_unit else 0j) for w in double_set(E)}
    return partial_positive_type(E, vals)


def constant_state(E):
    vals = {w: 1.0 + 0j for w in double_set(E)}
    return partial_positive_type(E, vals)


def test_delta_state_gives_identity_gram_full_rank():
    E = fixture_E()
    data = gns(delta_state(E))
    assert np.allclose(data.gram, np.eye(len(E)))
    assert data.rank == len(E)
    # generator actions are partial permutations: defined columns map basis
    # vectors to basis vectors
    for (i, sign), (L, mask) in data.gens.items():
        for col in np.nonzero(mask)[0]:
            v = L[:, col]
            assert np.max(np.abs(v)) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_constant_state_rank_one():
    E = fixture_E()
    data = gns(constant_state(E))
    assert data.rank == 1
    for (i, sign), (L, mask) in data.gens.items():
        defined = L[:, mask]
        if defined.size:
            assert np.max(np.abs(defined - 1.0)) <= 1e-8


def test_state_recovery():
    rng = random.Random(91)
    E = fixture_E()
    unit_idx = list(E).index(U)
    for seed in range(20):
        dim = rng.randrange(1, 4)
        state = random_positive_type(E, dim=dim, seed=seed)
        data = gns(state)
        one_hat = data.coords[:, unit_idx]
        for idx, t in enumerate(E):
            t_hat = data.coords[:, idx]
            # <t-hat, 1-hat> = g(t)
            val = complex(np.vdot(one_hat, t_hat))
            assert abs(val - state.values[t]) <= 1e-8


def test_rank_bounds():
    E = fixture_E()
    for seed in range(10):
        for dim in (1, 2, 3):
            data = gns(random_positive_type(E, dim=dim, seed=seed))
            assert data.rank <= len(E)
            assert data.rank <= dim ** 2


def test_quotient_basis_orthonormal_in_gram_metric():
    E = fixture_E()
    for seed in range(10):
        state = random_positive_type(E, dim=2, seed=seed)
        data = gns(state)
        gramQ = data.basis.conj().T @ data.gram @ data.basis
        assert np.max(np.abs(gramQ - np.eye(data.rank))) <= 1e-8


def test_partial_isometry_and_inverse_consistency():
    E = fixture_E()
    elements = list(E)
    for seed in range(10):
        state = random_positive_type(E, dim=2, seed=seed)
        data = gns(state)
        for (i, sign), (L, mask) in data.gens.items():
            inv = data.gens[(i, -sign)][0]
            inv_mask = data.gens[(i, -sign)][1]
            step = generator(F2, i, sign)
            for col in np.nonzero(mask)[0]:
                st = multiply(step, elements[col])
                # norm preservation on defined columns
                assert (np.linalg.norm(L[:, col])
                        == pytest.approx(np.linalg.norm(data.coords[:, col]),
                                         abs=1e-8))
                # inverse letter maps the image back to t-hat
                st_col = elements.index(st)
                assert inv_mask[st_col]
                assert np.max(np.abs(inv[:, st_col] - data.coords[:, col])) <= 1e-8


def test_gns_rejects_non_psd():
    E = grounded_set(F2, {U, g(1)})
    state = partial_positive_type(E, {U: 1.0, g(1): 0.5, g(1, -1): 0.5})
    bad = type(state)(E, {U: 1.0, g(1): 2.0, g(1, -1): 2.0})
    with pytest.raises(ValueError):
        gns(bad)


def test_one_eigendecomposition_per_loaded_function(monkeypatch):
    # the PSD check of partial_positive_type and gns read one eigh of the
    # Gram matrix
    calls = []
    solve = np.linalg.eigh

    def counting(M, *args, **kwargs):
        calls.append(M.shape)
        return solve(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    E = fixture_E()
    g0 = random_positive_type(E, dim=2, seed=9)
    loaded = partial_positive_type(E, g0.values)
    calls.clear()
    data = gns(loaded)
    assert calls == []
    assert data.rank == 2
    calls.clear()
    gns(partial_positive_type(E, g0.values))
    assert calls == [(len(E), len(E))]
