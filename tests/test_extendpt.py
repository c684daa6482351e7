import json
import random
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.algebra import hermitian_toeplitz
from freecert import cli, extendpt
from freecert.extendpt import (
    PartialPositiveType,
    _check_toeplitz,
    extend_one,
    extend_to,
    partial_positive_type,
    random_positive_type,
)
from freecert.denselin import (
    PSD_INPUT_TOL,
    PartialBlockMatrix,
    complete_block,
    psd_floor,
)
from freecert.grounded import (
    GroundedSet,
    double_set,
    extension_chain,
    grounded_hull,
    grounded_set,
)
from freecert.words import (
    drop_first,
    first_letter,
    free_group,
    generator,
    inverse,
    multiply,
    parse_word,
    sort_key,
    unit,
)

F2 = free_group(2)
U = unit(F2)


def g(i, e=1):
    return generator(F2, i, e)


def delta_state(E):
    vals = {w: (1.0 + 0j if w.is_unit else 0j) for w in double_set(E)}
    return partial_positive_type(E, vals)


def test_extend_from_unit_gives_zero():
    E = grounded_set(F2, {U})
    base = partial_positive_type(E, {U: 1.0})
    out = extend_one(base, g(1))
    assert out.values[g(1)] == 0.0
    assert np.allclose(out.gram(), np.eye(2))


def test_extend_powers_of_single_generator():
    E = grounded_set(F2, {U, g(1)})
    vals = {U: 1.0, g(1): 0.5, g(1, -1): 0.5}
    base = partial_positive_type(E, vals)
    out = extend_one(base, g(1, 2))
    assert out.values[g(1, 2)] == pytest.approx(0.25)
    assert psd_floor(out.gram()) >= -1e-12


def test_extend_new_branch_is_free_independent():
    E = grounded_set(F2, {U, g(1)})
    vals = {U: 1.0, g(1): 0.0, g(1, -1): 0.0}
    base = partial_positive_type(E, vals)
    out = extend_one(base, g(2))
    assert out.values[g(2)] == 0.0
    assert out.values[multiply(g(1, -1), g(2))] == 0.0
    assert np.allclose(out.gram(), np.eye(3))


def test_extend_to_identity_chain():
    E = grounded_set(F2, {U})
    base = partial_positive_type(E, {U: 1.0})
    F = grounded_set(F2, {U, g(1), g(1, 2)})
    out = extend_to(base, F)
    assert out.values[g(1)] == 0.0
    assert out.values[g(1, 2)] == 0.0
    assert extend_to(base, E).values == base.values


def test_extend_to_geometric_decay():
    E = grounded_set(F2, {U, g(1)})
    base = partial_positive_type(E, {U: 1.0, g(1): 0.5, g(1, -1): 0.5})
    F = grounded_set(F2, {U, g(1), g(1, 2), g(1, 3)})
    out = extend_to(base, F)
    for k in (1, 2, 3):
        assert out.values[g(1, k)] == pytest.approx(2.0 ** -k)
    assert psd_floor(out.gram()) >= -1e-10


def test_restriction_consistency_bit_for_bit():
    rng = random.Random(71)
    for trial in range(30):
        E = random_grounded(rng, 6)
        base = random_positive_type(E, dim=2, seed=1000 + trial)
        F = enlarge(rng, E, steps=2)
        out = extend_to(base, F)
        for w, v in base.values.items():
            assert out.values[w] == v  # exact equality


def random_grounded(rng, max_size):
    words = {U}
    while len(words) < rng.randrange(1, max_size + 1):
        base = rng.choice(sorted(words, key=str))
        ext = multiply(generator(F2, rng.randrange(1, 3), rng.choice([-1, 1])),
                       base)
        words.add(ext)
    return grounded_set(F2, words)


def enlarge(rng, E, steps):
    words = set(E)
    for _ in range(steps):
        base = rng.choice(sorted(words, key=str))
        words.add(multiply(generator(F2, rng.randrange(1, 3),
                                     rng.choice([-1, 1])), base))
    return grounded_set(F2, words)


def test_psd_preserved_along_chains():
    rng = random.Random(72)
    for trial in range(200):
        E = random_grounded(rng, 8)
        dim = rng.randrange(1, 5)
        base = random_positive_type(E, dim=dim, seed=2000 + trial)
        current = base
        scale = base.scale()
        for step in range(rng.randrange(1, 5)):
            F = enlarge(rng, current.E, steps=1)
            current = extend_to(current, F)
            assert psd_floor(current.gram()) >= -1e-7 * scale


def test_new_entries_depend_only_on_quotient():
    rng = random.Random(73)
    for trial in range(50):
        E = random_grounded(rng, 6)
        base = random_positive_type(E, dim=2, seed=3000 + trial)
        F = enlarge(rng, E, steps=3)
        out = extend_to(base, F)
        M = out.gram()
        elements = list(out.E)
        seen = {}
        for i, s in enumerate(elements):
            for j, t in enumerate(elements):
                q = multiply(inverse(s), t)
                if q in seen:
                    assert M[i, j] == seen[q]  # exact: entries share one value
                else:
                    seen[q] = M[i, j]


def test_validation_errors():
    E = grounded_set(F2, {U, g(1)})
    with pytest.raises(ValueError):
        partial_positive_type(E, {U: 1.0})  # missing values
    with pytest.raises(ValueError):
        partial_positive_type(E, {U: 1.0, g(1): 0.5, g(1, -1): 0.4})
    with pytest.raises(ValueError):
        partial_positive_type(E, {U: 1.0, g(1): 2.0, g(1, -1): 2.0})  # not PSD
    vals = {U: 1.0, g(1): 0.5, g(1, -1): 0.5,
            g(2): 0.0}  # extra key outside E^-1E
    with pytest.raises(ValueError):
        partial_positive_type(E, vals)


def test_extend_one_rejects_ungrounded_target():
    E = grounded_set(F2, {U})
    base = partial_positive_type(E, {U: 1.0})
    with pytest.raises(ValueError):
        extend_one(base, g(1, 2))  # {1, s1^2} is not grounded
    with pytest.raises(ValueError):
        extend_one(base, U)


def test_random_positive_type_properties():
    E = grounded_set(F2, {U, g(1), g(2), multiply(g(1), g(2))})
    # dim 1 with trivial phases: identically one
    base = random_positive_type(E, dim=1, seed=5)
    w0 = base.values[g(1)]
    assert abs(abs(w0) - 1.0) <= 1e-12  # one-dimensional reps are phases
    # multiplicativity along powers for dim 1
    E2 = grounded_set(F2, {U, g(1), g(1, 2)})
    b2 = random_positive_type(E2, dim=1, seed=6)
    assert b2.values[g(1, 2)] == pytest.approx(b2.values[g(1)] ** 2)
    # dim 3: PSD within vector-state tolerance
    for seed in range(5):
        b3 = random_positive_type(E, dim=3, seed=seed)
        assert psd_floor(b3.gram()) >= -1e-10
        assert b3.values[U] == 1.0


def test_inverse_letter_extension():
    # t0 = s1^-1 exercises the mirrored split rule
    E = grounded_set(F2, {U, g(1)})
    base = partial_positive_type(E, {U: 1.0, g(1): 0.5, g(1, -1): 0.5})
    out = extend_one(base, g(1, -1))
    # E1 = {s in E : s1 s in E} = {1}; completion gives Z = 0.5 * 0.5 = 0.25
    assert out.values[multiply(inverse(g(1)), g(1, -1))] == pytest.approx(0.25)
    assert psd_floor(out.gram()) >= -1e-10


def test_extend_to_equals_folded_extend_one():
    # one quotient table for the whole chain must give exactly the values of
    # extending one word at a time
    rng = random.Random(75)
    for trial in range(50):
        E = random_grounded(rng, 7)
        base = random_positive_type(E, dim=rng.randrange(1, 5),
                                    seed=5000 + trial)
        F = enlarge(rng, E, steps=rng.randrange(1, 9))
        folded = base
        for t0 in extension_chain(E, F):
            folded = extend_one(folded, t0)
        out = extend_to(base, F)
        assert out.E == folded.E == F
        assert out.values == folded.values  # exact, not approx


def words(*texts):
    return {parse_word(F2, t) for t in texts}


def chain_575():
    # E, and a target F whose chain runs through near-singular middle blocks
    E = grounded_set(F2, words("e", "g2", "g1^-1 g2", "g2^-1",
                               "g1^-1 g2^-1"))
    F = grounded_set(F2, set(E) | words(
        "g1^-1", "g2^-1 g1^-1", "g1^-2 g2", "g2^-1 g1^-1 g2^-1",
        "g1^-1 g2^-1 g1^-1 g2^-1", "g2^-1 g1^-2 g2", "g2^-2 g1^-1 g2^-1"))
    return E, F


def test_psd_failure_message_unchanged():
    # an unvalidated function just outside the cone: a rank-2 function with
    # its unit value lowered by 5e-9, so that its Toeplitz floor is -5e-9
    E, F = chain_575()
    good = random_positive_type(E, dim=2, seed=2)
    base = PartialPositiveType(E, {**good.values,
                                   U: good.values[U] - 5e-9})
    assert psd_floor(base.gram()) < 0.0
    pattern = (r"^completion failed to stay PSD \(floor -[0-9.e+-]+\); "
               r"input likely violated the PSD tolerance$")
    with pytest.raises(ValueError, match=pattern) as whole:
        extend_to(base, F)
    current = base
    with pytest.raises(ValueError, match=pattern) as stepwise:
        for t0 in extension_chain(E, F):
            current = extend_one(current, t0)
    assert str(whole.value) == str(stepwise.value)
    floor = float(str(whole.value).split("floor ")[1].split(")")[0])
    assert floor < -PSD_INPUT_TOL * base.scale()


def test_rank_deficient_chain_extends():
    # a rank-2 function from a 2-dimensional representation; the 4th step
    # meets an eigenvalue of B of 2.3e-11, which the pseudo-inverse must
    # treat as zero rather than invert
    E, F = chain_575()
    base = random_positive_type(E, dim=2, seed=575)
    out = extend_to(base, F)
    assert out.E == F
    assert psd_floor(out.gram()) >= -1e-10 * out.scale()
    current = base
    for t0 in extension_chain(E, F):
        current = extend_one(current, t0)
    assert current.values == out.values


def test_extend_to_checks_every_step():
    E = grounded_set(F2, {U, g(1)})
    base = partial_positive_type(E, {U: 1.0, g(1): 0.5, g(1, -1): 0.5})
    # a superset with a suffix gap: g1 g2^2 without g2^2
    gap = GroundedSet(F2, tuple(grounded_set(F2, {U, g(1), g(2)}))
                      + (multiply(g(1), g(2, 2)),))
    with pytest.raises(ValueError, match="not grounded"):
        extend_to(base, gap)
    # values missing on E^-1E are caught before the first step
    holed = PartialPositiveType(E, {U: 1.0 + 0j, g(1): 0.5 + 0j})
    with pytest.raises(ValueError, match="missing"):
        extend_to(holed, grounded_set(F2, {U, g(1), g(1, 2)}))
    # broken hermitian symmetry on E is caught by the first step's checks
    skew = PartialPositiveType(E, {U: 1.0 + 0j, g(1): 0.5 + 0j,
                                   g(1, -1): 0.5 + 1e-3j})
    with pytest.raises(ValueError, match="hermitian"):
        extend_to(skew, grounded_set(F2, {U, g(1), g(2)}))


def _reference_extend_to(g, F):
    # extend_to as it was before the gathered step: four gathers per step,
    # the public PartialBlockMatrix/complete_block, per-quotient writes,
    # and the re-gathered Toeplitz matrix checked by hermitian_toeplitz and
    # psd_floor after every step; the input is checked as extend_to checks
    # it, once its values are known to cover E^-1E
    chain = extension_chain(g.E, F)
    if not chain:
        return g
    spec = g.spec
    elements = tuple(sorted(F, key=sort_key))
    if elements != F.elements:
        F = GroundedSet(spec, elements)
    pos = F.positions
    n = len(elements)
    table = F.quotients
    Q, conj = table.labels, table.inverse
    qindex = dict(table.index)
    given = [qindex.setdefault(w, len(qindex)) for w in g.values]
    words = list(qindex)
    vals = np.zeros(len(words), dtype=complex)
    vals[given] = list(g.values.values())
    known = np.zeros(len(words), dtype=bool)
    known[given] = True
    written = []
    parent = np.full(n, -1, dtype=np.intp)
    for j in range(1, n):
        parent[j] = pos.get(drop_first(elements[j]), -1)
    in_E = np.zeros(n, dtype=bool)
    in_E[[pos[s] for s in g.E]] = True
    E_idx = np.flatnonzero(in_E)
    above = parent[E_idx[1:]]
    not_grounded = ValueError("set is not grounded (unit missing or "
                              "suffix gap)")
    if not (elements[0].is_unit and in_E[0]) or np.any(above < 0) \
            or not np.all(in_E[above]):
        raise not_grounded
    if not known[Q[np.ix_(E_idx, E_idx)]].all():
        raise ValueError("values missing on E^-1E")
    _check_toeplitz(g)
    C = vals[Q[:1, :1]]
    left = {}
    for t0 in chain:
        p = pos[t0]
        if parent[p] < 0 or not in_E[parent[p]]:
            raise not_grounded
        letter = first_letter(t0)
        if letter not in left:
            step_inv = generator(spec, letter[0], -letter[1])
            left[letter] = np.array(
                [pos.get(multiply(step_inv, s), -1) for s in elements],
                dtype=np.intp)
        shifted = left[letter][E_idx]
        in_E1 = (shifted >= 0) & in_E[shifted]
        E1, E0 = E_idx[in_E1], E_idx[~in_E1]
        if not known[Q[E1, p]].all():
            raise AssertionError("split-set rule produced an unknown quotient")
        A = vals[Q[np.ix_(E0, E0)]]
        X = vals[Q[np.ix_(E0, E1)]]
        B = vals[Q[np.ix_(E1, E1)]]
        Y = vals[Q[E1, p]].reshape(len(E1), 1)
        Z, _ = complete_block(PartialBlockMatrix(A, X, B, Y, C))
        new_q = Q[E0, p]
        if known[new_q].any():
            raise AssertionError("quotient for an E0 word is already known")
        for i, k in enumerate(new_q):
            z = complex(Z[i, 0])
            vals[k] = z
            vals[conj[k]] = z.conjugate()
            known[k] = known[conj[k]] = True
            written.append(k)
            written.append(conj[k])
        in_E[p] = True
        E_idx = np.flatnonzero(in_E)
        gram_idx = Q[np.ix_(E_idx, E_idx)]
        if not known[gram_idx].all():
            missing = {words[k] for k in gram_idx.ravel() if not known[k]}
            raise AssertionError(
                f"extension left undefined quotients: {missing}")
        scale = 1.0 + float(np.max(np.abs(vals[known])))
        floor = psd_floor(hermitian_toeplitz(vals[gram_idx]))
        if floor < -PSD_INPUT_TOL * scale:
            raise ValueError(
                f"completion failed to stay PSD (floor {floor:g}); "
                "input likely violated the PSD tolerance")
    out_vals = dict(g.values)
    for k in written:
        out_vals[words[k]] = complex(vals[k])
    return PartialPositiveType(F, out_vals)


def _outcome(fn, g, F):
    # the values with their bits (signs of zeros included) and their order,
    # or the exception's type and message
    try:
        out = fn(g, F)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return out.E, [(w, v.real.hex(), v.imag.hex())
                   for w, v in out.values.items()]


def _assert_same_as_reference(g, F):
    assert _outcome(extend_to, g, F) == _outcome(_reference_extend_to, g, F)


def _random_case(d, size, steps, dim, noise, seed):
    # a positive-type function of a dim-dimensional representation on a
    # random grounded set of F_d (rank <= dim: deficient for dim 1-2), and a
    # superset grown by `steps` letters; with `noise`, every non-unit value
    # is moved by up to 3e-13, so that g(a^-1) = conj(g(a)) holds only
    # within the 1e-12 hermitian tolerance
    G = free_group(d)
    rng = random.Random(seed)
    words = {unit(G)}
    while len(words) < size:
        base = rng.choice(sorted(words, key=str))
        words.add(multiply(generator(G, rng.randrange(1, d + 1),
                                     rng.choice([-1, 1])), base))
    E = grounded_set(G, words)
    g0 = random_positive_type(E, dim=dim, seed=seed)
    if noise:
        nrng = np.random.default_rng(seed)
        g0 = PartialPositiveType(E, {
            w: v if w.is_unit else v + complex(*nrng.uniform(-3e-13, 3e-13, 2))
            for w, v in g0.values.items()})
    for _ in range(steps):
        base = rng.choice(sorted(words, key=str))
        words.add(multiply(generator(G, rng.randrange(1, d + 1),
                                     rng.choice([-1, 1])), base))
    return g0, grounded_set(G, words)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), size=st.integers(1, 8),
       steps=st.integers(1, 10), dim=st.integers(1, 4), noise=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_extend_to_matches_reference_loop(d, size, steps, dim, noise, seed):
    _assert_same_as_reference(*_random_case(d, size, steps, dim, noise, seed))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [2, 575, 576])
def test_chain_575_matches_reference_loop(dim, seed):
    E, F = chain_575()
    _assert_same_as_reference(random_positive_type(E, dim=dim, seed=seed), F)


def _prefix_floors(out, E, chain):
    # psd_floor of the Toeplitz matrix of E and of each E u {t1..tk}
    sets = [set(E)]
    for t0 in chain:
        sets.append(sets[-1] | {t0})
    return [psd_floor(PartialPositiveType(grounded_set(out.spec, S),
                                          out.values).gram()) for S in sets]


def test_output_check_names_first_failing_prefix():
    # every set of the chain has a Toeplitz matrix that is a principal
    # submatrix of F's, so by interlacing none has a lower floor; with the
    # unit value lowered by delta, extend_to fails exactly when the floor of
    # E or of some E u {t1..tk} is below -PSD_INPUT_TOL * scale, and names
    # the first such floor. The values come from extend_to with both of its
    # PSD checks switched off.
    met = set()
    for trial in range(25):
        rng = random.Random(trial)
        good, F = _random_case(rng.choice([2, 3]), rng.randrange(1, 9),
                               rng.randrange(1, 11), rng.randrange(1, 5),
                               False, 9000 + trial)
        E, u = good.E, unit(good.spec)
        chain = extension_chain(E, F)
        for delta in (1e-9, 5e-9, 1e-7, 1e-6):
            g0 = PartialPositiveType(E, {**good.values,
                                         u: good.values[u] - delta})
            with mock.patch.object(extendpt, "_check_toeplitz",
                                   lambda g: None), \
                    mock.patch.object(extendpt, "eig_floor", lambda M: 0.0):
                unchecked = extend_to(g0, F)
            floors = _prefix_floors(unchecked, E, chain)
            assert min(floors) >= floors[-1] - 1e-12 * g0.scale()
            bad = [k for k, f in enumerate(floors)
                   if f < -PSD_INPUT_TOL * g0.scale()]
            if not bad:
                assert extend_to(g0, F).values == unchecked.values
                met.add("pass")
                continue
            with pytest.raises(ValueError) as failed:
                extend_to(g0, F)
            text = ("Toeplitz compression is not PSD" if bad[0] == 0
                    else "completion failed to stay PSD")
            assert str(failed.value).startswith(text)
            floor = float(str(failed.value).split("floor ")[1].split(")")[0])
            assert floor == pytest.approx(floors[bad[0]], rel=1e-5)
            met.add("input" if bad[0] == 0 else "chain")
    assert met == {"pass", "input", "chain"}


def _skew(E, overrides=None):
    # the unvalidated function 0.5^|k| on the powers g1^k of E^-1E, with
    # some values overridden
    vals = {w: complex(0.5 ** abs(sum(e for _, e in w.letters)))
            for w in double_set(E)}
    return PartialPositiveType(E, {**vals, **(overrides or {})})


def _faults():
    E1 = grounded_set(F2, {U, g(1)})
    E2 = grounded_set(F2, {U, g(1), g(1, 2)})
    E575, F575 = chain_575()
    good = random_positive_type(E575, dim=2, seed=2)
    lowered = PartialPositiveType(E575, {**good.values,
                                         U: good.values[U] - 5e-9})
    gap = GroundedSet(F2, tuple(grounded_set(F2, {U, g(1), g(2)}))
                      + (multiply(g(1), g(2, 2)),))
    holed = PartialPositiveType(E1, {U: 1.0 + 0j, g(1): 0.5 + 0j})
    return {
        # t0 = g2: E0 = E, so A is the whole Toeplitz matrix of E; the
        # input check sees the broken pair first
        "A not hermitian": (_skew(E1, {g(1, -1): 0.5 + 1e-3j}),
                            grounded_set(F2, {U, g(1), g(2)}),
                            "values break hermitian symmetry"),
        # t0 = g1^3: E0 = {e}, E1 = {g1, g1^2}
        "B not hermitian": (_skew(E2, {g(1, -1): 0.5 + 1e-3j}),
                            grounded_set(F2, set(E2) | {g(1, 3)}),
                            "values break hermitian symmetry"),
        # t0 = g1^2: A = B = [g(e)], the pair sits across E0 x E1
        "inconsistent pair": (_skew(E1, {g(1, -1): 0.5 + 1e-3j}),
                              grounded_set(F2, {U, g(1), g(1, 2)}),
                              "values break hermitian symmetry"),
        # the upper compression of the first step is the input's Toeplitz
        # matrix: the input check rejects it
        "upper not PSD": (_skew(E1, {g(1): 2.0, g(1, -1): 2.0}),
                          grounded_set(F2, {U, g(1), g(1, 2)}),
                          "Toeplitz compression is not PSD"),
        "output floor": (lowered, F575, "completion failed to stay PSD"),
        "ungrounded": (partial_positive_type(E1, _skew(E1).values), gap,
                       "not grounded"),
        "missing values": (holed, grounded_set(F2, {U, g(1), g(1, 2)}),
                           "values missing"),
    }


# A lower compression that is not PSD cannot fail on its own:
# [[B, Y], [Y*, C]] over E1 u {t0} is, shifted by the letter's inverse, the
# Toeplitz matrix of a subset of E, so a principal submatrix of the upper
# compression and of every matrix completed after it (the lower check is
# tested on complete_block). Likewise C is the unit value, which sits on
# A's diagonal.
@pytest.mark.parametrize("fault", sorted(_faults()))
def test_extend_to_failure_matches_reference_loop(fault):
    base, F, message = _faults()[fault]
    outcome = _outcome(extend_to, base, F)
    assert outcome == _outcome(_reference_extend_to, base, F)
    assert outcome[0] is ValueError and message in outcome[1]


def _middle_blocks(E, F):
    # whether each step of the chain from E to F has a non-empty E1 block
    current, middles = set(E), []
    for t0 in extension_chain(E, F):
        letter = inverse(generator(F2, *first_letter(t0)))
        middles.append(any(multiply(letter, s) in current for s in current))
        current.add(t0)
    return middles


def _count_lapack(monkeypatch):
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counting(*args, _name=name, _fn=getattr(np.linalg, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def test_one_eigh_per_step_with_nonempty_middle_block(monkeypatch):
    # the pseudo-inverse of B is the only eigenvector solve of a step, and a
    # step takes no floor; one eigenvalue-only solve checks the output, and
    # an input whose spectrum is cached (as partial_positive_type leaves it)
    # costs none
    counts = _count_lapack(monkeypatch)
    rng = random.Random(77)
    steps = middles = 0
    for trial in range(40):
        E = random_grounded(rng, 6)
        base = random_positive_type(E, dim=rng.randrange(1, 4),
                                    seed=7000 + trial)
        F = enlarge(rng, E, steps=5)
        kinds = _middle_blocks(E, F)
        counts.update(eigh=0, eigvalsh=0)
        extend_to(base, F)
        assert counts == {"eigh": sum(kinds), "eigvalsh": int(bool(kinds))}
        steps += len(kinds)
        middles += sum(kinds)
    assert 0 < middles < steps  # both kinds of step were met


def test_cli_extend_lapack_count(monkeypatch, tmp_path):
    # the CLI's extend: one eigh for the input's spectrum, read by its PSD
    # check and then cached, one per step with a middle block, and one
    # eigenvalue-only solve for the output
    counts = _count_lapack(monkeypatch)
    rng = random.Random(78)
    seen = set()
    for trial in range(12):
        E = random_grounded(rng, 6)
        base = random_positive_type(E, dim=rng.randrange(1, 4),
                                    seed=7100 + trial)
        F = enlarge(rng, E, steps=5)
        kinds = _middle_blocks(E, F)
        if not kinds:
            continue
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cli._partial_to_json(base)))
        target = ",".join(str(w) for w in extension_chain(E, F))
        counts.update(eigh=0, eigvalsh=0)
        assert cli.main(["extend", "--input", str(path), "--target", target,
                         "--out", str(tmp_path / "out.json")]) == 0
        assert counts == {"eigh": 1 + sum(kinds), "eigvalsh": 1}
        seen.update(kinds)
    assert seen == {False, True}
