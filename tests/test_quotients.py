"""The quotient table against brute force, and the certificate verifier built
on it against the convolution oracle."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.algebra import convolve, delta, element, involve, one, zero
from freecert.bell import BellFunctional, BellScenario, moment_instance
from freecert.certify import (
    SosCertificate,
    TraceCertificate,
    certify_sos,
    certify_trace,
    gram_instance,
    verify_sos,
    verify_trace,
)
from freecert.grounded import GroundedSet, grounded_set
from freecert.quotients import QuotientTable, label_pairs
from freecert.sdpcore import instance_to_json
from freecert.words import (
    Word,
    conjugacy_canonical,
    cyclic_free_product,
    direct_product,
    free_group,
    generator,
    inverse,
    multiply,
    pair_word,
    sort_key,
    unit,
)

F2 = free_group(2)
F3 = free_group(3)
Z3 = cyclic_free_product(2, 3)
PRODUCT = direct_product(cyclic_free_product(2, 2), Z3)
SPECS = (F2, F3, Z3, PRODUCT)
BASE_SPECS = (F2, F3, Z3)


def g(i, e=1):
    return generator(F2, i, e)


def _words(spec):
    if spec.is_product:
        return st.builds(lambda a, b: pair_word(spec, a, b),
                         _words(spec.left), _words(spec.right))
    exps = st.integers(-2, 2) if spec.kind == "free" else st.integers(1, 2)
    return st.lists(st.tuples(st.integers(1, spec.d), exps),
                    max_size=4).map(lambda ls: Word(spec, tuple(ls)))


@st.composite
def word_lists(draw, specs=SPECS, max_size=7):
    spec = draw(st.sampled_from(specs))
    words = draw(st.lists(_words(spec), min_size=0, max_size=max_size))
    return spec, list(dict.fromkeys(words))


# -------------------------------------------------------------- the table

@settings(max_examples=200, deadline=None)
@given(word_lists())
def test_table_matches_brute_force(case):
    spec, words = case
    T = QuotientTable(words)
    n = len(words)
    assert T.labels.shape == (n, n) and T.words == tuple(words)
    first_seen = []
    for i, s in enumerate(words):
        for j, t in enumerate(words):
            q = multiply(inverse(s), t)
            assert T.classes[T.labels[i, j]] == q
            if q not in first_seen:
                first_seen.append(q)
    # labels number the quotients in row-major order of first appearance
    assert list(T.classes) == first_seen
    assert T.index == {q: k for k, q in enumerate(first_seen)}
    for k, q in enumerate(T.classes):
        assert T.classes[T.inverse[k]] == inverse(q)


@settings(max_examples=150, deadline=None)
@given(word_lists(BASE_SPECS))
def test_conjugacy_labels_match_canonical_words(case):
    _, words = case
    T = QuotientTable(words)
    of_class, conj = T.conjugacy
    first_seen = []
    for q in T.classes:
        c = conjugacy_canonical(q)
        if c not in first_seen:
            first_seen.append(c)
    assert list(conj) == first_seen
    assert [conj[k] for k in of_class] == [conjugacy_canonical(q)
                                           for q in T.classes]


@settings(max_examples=100, deadline=None)
@given(word_lists())
def test_label_pairs_group_positions_row_major(case):
    _, words = case
    T = QuotientTable(words)
    groups: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(words)):
        for j in range(len(words)):
            groups.setdefault(int(T.labels[i, j]), []).append((i, j))
    assert label_pairs(T.labels) == [groups[k] for k in range(len(T))]


PAIR_SPECS = tuple(direct_product(cyclic_free_product(d, m),
                                  cyclic_free_product(d, m))
                   for d, m in ((2, 2), (3, 2), (2, 3)))


@st.composite
def pair_lists(draw):
    # pairs of words from two short component lists, so that components
    # repeat across the list as in a moment hierarchy
    spec = draw(st.sampled_from(PAIR_SPECS))
    left = draw(st.lists(_words(spec.left), min_size=1, max_size=4))
    right = draw(st.lists(_words(spec.right), min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(st.sampled_from(left),
                                    st.sampled_from(right)), max_size=12))
    return list(dict.fromkeys(pair_word(spec, x, y) for x, y in pairs))


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_product_table_matches_word_products(words):
    # the table read off the component tables against the one formed from
    # every product of pair words
    T = QuotientTable(words)
    index: dict = {}
    labels = [[index.setdefault(multiply(inverse(s), t), len(index))
               for t in words] for s in words]
    assert np.array_equal(T.labels, np.array(labels, dtype=np.intp)
                          .reshape(len(words), len(words)))
    assert T.classes == tuple(index) and T.index == index
    for k, q in enumerate(T.classes):
        assert T.classes[T.inverse[k]] == inverse(q)


def test_grounded_set_shares_one_table():
    E = grounded_set(F2, {unit(F2), g(1), g(2)})
    assert E.quotients is E.quotients
    assert E.quotients.words == E.elements


# -------------------------------------------------- verifier vs the oracle

def _oracle_terms(factors, f, epsilon):
    """f + eps*delta_1 - sum xi^* * xi by element arithmetic."""
    total = zero(f.spec)
    for xi in factors:
        total = total + convolve(involve(xi), xi)
    return (f + delta(unit(f.spec), epsilon) - total).terms


def _oracle_classes(factors, f, epsilon):
    out: dict[Word, complex] = {}
    for w, c in _oracle_terms(factors, f, epsilon).items():
        k = conjugacy_canonical(w)
        out[k] = out.get(k, 0j) + c
    return dict(sorted(out.items(), key=lambda kv: sort_key(kv[0])))


def _cert(spec, factors, epsilon, trace=False):
    # the verifier reads only the factors and epsilon (E for its group)
    kind = TraceCertificate if trace else SosCertificate
    return kind(GroundedSet(spec, (unit(spec),)), epsilon, np.zeros((1, 1)),
                factors, 0.0)


FLOATS = st.floats(-1.0, 1.0, allow_nan=False)
# multiples of 1/64: every product and sum below is exact in both methods
DYADIC = st.integers(-64, 64).map(lambda k: k / 64)


@st.composite
def certificates(draw, specs=SPECS, coeffs=FLOATS):
    """Random factors on random (not grounded) supports and a target that
    either is their SOS sum (a near-zero residual) or is independent."""
    spec, words = draw(word_lists(specs, max_size=6))
    words = words or [unit(spec)]

    def elem(ws):
        return element(spec, {w: complex(draw(coeffs), draw(coeffs))
                              for w in ws})

    factors = [elem(draw(st.lists(st.sampled_from(words), min_size=1,
                                  max_size=len(words), unique=True)))
               for _ in range(draw(st.integers(0, 3)))]
    epsilon = draw(st.sampled_from([0.0, 0.25, 1e-3]))
    if draw(st.booleans()):
        f = zero(spec)
        for xi in factors:
            f = f + convolve(involve(xi), xi)
        f = f - delta(unit(spec), epsilon)
        f = f + elem(draw(st.lists(st.sampled_from(words), max_size=2)))
    else:
        f = elem(words)
    return spec, factors, f, epsilon


def _scale(factors, f, epsilon):
    return 1.0 + f.max_coeff() + abs(epsilon) + sum(
        sum(abs(c) for c in xi.terms.values()) ** 2 for xi in factors)


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_verify_sos_matches_convolution(case):
    spec, factors, f, epsilon = case
    want = max((abs(c) for c in _oracle_terms(factors, f, epsilon).values()),
               default=0.0)
    got = verify_sos(_cert(spec, factors, epsilon), f)
    assert abs(got - want) <= 1e-14 * _scale(factors, f, epsilon)


@settings(max_examples=200, deadline=None)
@given(certificates(BASE_SPECS))
def test_verify_trace_matches_convolution(case):
    spec, factors, f, epsilon = case
    want = _oracle_classes(factors, f, epsilon)
    got = verify_trace(_cert(spec, factors, epsilon, trace=True), f)
    # the oracle drops the classes whose sum it rounds below the purge
    # threshold, the verifier lists every class of the supports: a class
    # missing from one side is 0
    scale = _scale(factors, f, epsilon)
    for k in set(want) | set(got):
        assert abs(got.get(k, 0j) - want.get(k, 0j)) <= 1e-14 * scale


def _support_classes(factors, f):
    """The conjugacy classes of S^-1 S, supp f and the unit, S the union of
    the factors' supports, in sort_key order."""
    S = {w for xi in factors for w in xi.terms}
    words = {multiply(inverse(s), t) for s in S for t in S}
    words |= set(f.terms) | {unit(f.spec)}
    return sorted({conjugacy_canonical(w) for w in words}, key=sort_key)


@settings(max_examples=200, deadline=None)
@given(certificates(BASE_SPECS, coeffs=DYADIC))
def test_verify_trace_exact_data_same_classes(case):
    spec, factors, f, epsilon = case
    want = _oracle_classes(factors, f, epsilon)
    got = verify_trace(_cert(spec, factors, epsilon, trace=True), f)
    assert list(got) == _support_classes(factors, f)
    scale = _scale(factors, f, epsilon)
    for k in set(want) | set(got):
        assert abs(got.get(k, 0j) - want.get(k, 0j)) <= 1e-14 * scale


def _dyadic_trace_certificate():
    xi = element(F2, {unit(F2): 0.5, g(1): -0.25 + 0.125j,
                      multiply(g(2), g(1)): 0.75})
    eta = element(F2, {g(2): 1.0, g(1, -1): -0.5j})
    return [xi, eta], convolve(involve(xi), xi) + convolve(involve(eta), eta)


def test_exact_trace_certificate_lists_every_support_class():
    # every residual is exactly 0, and every class is still listed
    factors, f = _dyadic_trace_certificate()
    got = verify_trace(_cert(F2, factors, 0.0, trace=True), f)
    assert list(got) == _support_classes(factors, f)
    assert len(got) > 1 and not any(got.values())


def test_trace_classes_do_not_move_with_rounding():
    factors, f = _dyadic_trace_certificate()
    want = list(verify_trace(_cert(F2, factors, 0.0, trace=True), f))
    scale = 1.0 + 2.0 ** -52
    bumped = [element(F2, {w: c * scale for w, c in xi.terms.items()})
              for xi in factors]
    got = verify_trace(_cert(F2, bumped, 0.0, trace=True), f)
    assert list(got) == want
    assert 0 < max(abs(v) for v in got.values()) <= 1e-14


def test_verify_trace_product_group_raises_like_the_oracle():
    a = pair_word(PRODUCT, generator(PRODUCT.left, 1),
                  generator(PRODUCT.right, 2))
    xi = element(PRODUCT, {unit(PRODUCT): 1.0, a: 0.5})
    with pytest.raises(ValueError, match="base groups"):
        _oracle_classes([xi], one(PRODUCT), 0.0)
    with pytest.raises(ValueError, match="base groups"):
        verify_trace(_cert(PRODUCT, [xi], 0.0, trace=True), one(PRODUCT))


def test_factor_over_another_group_raises():
    f = one(F2)
    other = element(F3, {unit(F3): 1.0})
    mine = element(F2, {unit(F2): 1.0})
    for trace in (False, True):
        verify = verify_trace if trace else verify_sos
        for factors, spec in (([mine, other], F2), ([other], F2),
                              ([mine], F3)):
            with pytest.raises(ValueError, match="different group"):
                verify(_cert(spec, factors, 0.0, trace), f)


def _trace_residual(cert, f):
    return max(abs(v) for v in verify_trace(cert, f).values())


def test_perturbed_coefficient_is_rejected():
    rng = random.Random(6)
    E = grounded_set(F2, {unit(F2), g(1), g(2), multiply(g(1), g(2))})
    for trial in range(10):
        xi = element(F2, {w: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for w in E})
        f = convolve(involve(xi), xi)
        for certify, residual in ((certify_sos, verify_sos),
                                  (certify_trace, _trace_residual)):
            cert = certify(f, E, epsilon=1e-3, tol=1e-9)
            assert residual(cert, f) <= 1e-9
            # one coefficient of the dominant factor moves by 1e-6
            k = max(range(len(cert.factors)),
                    key=lambda i: cert.factors[i].max_coeff())
            w = rng.choice(list(cert.factors[k].terms))
            bad = list(cert.factors)
            bad[k] = bad[k] + delta(w, 1e-6)
            tampered = type(cert)(cert.E, cert.epsilon, cert.gram, bad,
                                  cert.residual)
            assert residual(tampered, f) > 1e-8


# ------------------------------------------------- constraint order pinned

def _constraints(inst):
    return [([tuple(e[:2]) for e in c["entries"]], c["rhs"])
            for c in instance_to_json(inst)["constraints"]]


def test_gram_instance_constraint_order():
    f = delta(unit(F2), 3.0) - delta(g(1)) - delta(g(1, -1))
    E = grounded_set(F2, {unit(F2), g(1), g(2), multiply(g(1), g(2))})
    assert E.elements == (unit(F2), g(1), g(2), multiply(g(1), g(2)))
    third = [-1 / 3, 0.0]
    zero_rhs = [0.0, 0.0]
    # one constraint per quotient s^-1 t, in row-major order of first
    # appearance, its pairs in row-major order
    sos = [
        ([(0, 0), (1, 1), (2, 2), (3, 3)], [1.0, 0.0]),  # e
        ([(0, 1)], third),                                # g1
        ([(0, 2), (1, 3)], zero_rhs),                     # g2
        ([(0, 3)], zero_rhs),                             # g1 g2
        ([(1, 0)], third),                                # g1^-1
        ([(1, 2)], zero_rhs),                             # g1^-1 g2
        ([(2, 0), (3, 1)], zero_rhs),                     # g2^-1
        ([(2, 1)], zero_rhs),                             # g2^-1 g1
        ([(2, 3)], zero_rhs),                             # g2^-1 g1 g2
        ([(3, 0)], zero_rhs),                             # g2^-1 g1^-1
        ([(3, 2)], zero_rhs),                             # g2^-1 g1^-1 g2
    ]
    # one per conjugacy class, in order of first appearance: g2^-1 g1 g2
    # joins g1, and g2^-1 g1^-1 g2 joins g1^-1
    trace = [
        ([(0, 0), (1, 1), (2, 2), (3, 3)], [1.0, 0.0]),  # e
        ([(0, 1), (2, 3)], third),                        # g1
        ([(0, 2), (1, 3)], zero_rhs),                     # g2
        ([(0, 3)], zero_rhs),                             # g1 g2
        ([(1, 0), (3, 2)], third),                        # g1^-1
        ([(1, 2)], zero_rhs),                             # g1^-1 g2
        ([(2, 0), (3, 1)], zero_rhs),                     # g2^-1
        ([(2, 1)], zero_rhs),                             # g1 g2^-1
        ([(3, 0)], zero_rhs),                             # g1^-1 g2^-1
    ]
    for mode, want in ((False, sos), (True, trace)):
        inst, fscale = gram_instance(f, E, trace=mode)
        assert fscale == 3.0 and inst.n == 4
        assert _constraints(inst) == want


def test_moment_instance_constraint_order():
    chsh = BellFunctional.from_correlators([[1, 1], [1, -1]])
    inst, E = moment_instance(BellScenario(2, 2), chsh, 1)
    assert [str(w) for w in E] == ["(e)x(e)", "(e)x(g1^1)", "(e)x(g2^1)",
                                   "(g1^1)x(e)", "(g2^1)x(e)"]
    units = [([(i, i)], [1.0, 0.0]) for i in range(5)]
    # ties to the first pair of each class; g^-1 = g, so (j, i) ties to
    # (i, j)
    ties = [([(i, j), (j, i)], [0.0, 0.0]) for i, j in (
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4))]
    assert _constraints(inst) == units + ties
    signs = [[e[2] for e in con["entries"]]
             for con in instance_to_json(inst)["constraints"][5:]]
    assert signs == [[-1.0, 1.0]] * 8
    objective = [(r, c, round(z.real, 12)) for r, c, z in inst.objective]
    assert objective == [(0, 0, 0.0), (0, 1, 0.0), (0, 2, 0.0), (0, 3, 0.0),
                         (0, 4, 0.0), (1, 3, 1.0), (1, 4, 1.0), (2, 3, 1.0),
                         (2, 4, -1.0)]
