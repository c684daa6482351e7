import random

import numpy as np
import pytest

from freecert.extendpt import (
    OUTPUT_PSD_TOL,
    PartialPositiveType,
    extend_one,
    extend_to,
    partial_positive_type,
    random_positive_type,
)
from freecert.denselin import psd_floor
from freecert.grounded import (
    GroundedSet,
    double_set,
    extension_chain,
    grounded_hull,
    grounded_set,
)
from freecert.words import (
    free_group,
    generator,
    inverse,
    multiply,
    parse_word,
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
    assert floor < -OUTPUT_PSD_TOL * base.scale()


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
