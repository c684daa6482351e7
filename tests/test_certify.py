import json
import random

import numpy as np
import pytest

from freecert.algebra import (
    convolve,
    delta,
    element,
    eval_rep,
    involve,
    one,
    zero,
)
from freecert.certify import (
    FalsifyReport,
    NotCertified,
    SosCertificate,
    TraceCertificate,
    certificate_from_json,
    certificate_to_json,
    certify_sos,
    certify_trace,
    dilate_contraction,
    falsify,
    verify_sos,
    verify_trace,
)
from freecert.denselin import psd_floor
from freecert.grounded import double_set, grounded_hull, grounded_set
from freecert.words import (
    conjugacy_canonical,
    free_group,
    generator,
    inverse,
    multiply,
    unit,
)

F2 = free_group(2)
U = unit(F2)


def g(i, e=1):
    return generator(F2, i, e)


def toy_f():
    return (one(F2) - delta(g(1), 0.5) - delta(g(1, -1), 0.5))


def test_certify_sos_toy():
    E = grounded_set(F2, {U, g(1)})
    cert = certify_sos(toy_f(), E, epsilon=0.0, tol=1e-9)
    assert isinstance(cert, SosCertificate)
    assert len(cert.factors) <= 2
    assert cert.residual <= 1e-9
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.max(np.abs(cert.gram - expected)) <= 1e-6
    assert verify_sos(cert, toy_f()) <= 1e-9


def test_certify_sos_unit():
    E = grounded_set(F2, {U})
    cert = certify_sos(one(F2), E)
    assert isinstance(cert, SosCertificate)
    assert len(cert.factors) == 1
    assert np.allclose(cert.gram, [[1.0]])


def test_certify_sos_refuted():
    E = grounded_set(F2, {U, g(1)})
    f = delta(g(1)) + delta(g(1, -1))
    out = certify_sos(f, E, epsilon=0.0, tol=1e-9)
    assert isinstance(out, NotCertified)
    rep = falsify(f, "operator", [1], 1000, seed=5)
    assert rep.worst <= -1.9


def test_certify_sos_preconditions():
    E = grounded_set(F2, {U, g(1)})
    with pytest.raises(ValueError):
        certify_sos(delta(g(2)), E)  # support outside E^-1E
    with pytest.raises(ValueError):
        certify_sos(delta(g(1), 1.0), E)  # not hermitian


def test_verify_sos_detects_perturbation():
    E = grounded_set(F2, {U, g(1)})
    cert = certify_sos(toy_f(), E)
    xi = cert.factors[0]
    bad = xi + delta(g(1), 1e-3)
    tampered = SosCertificate(cert.E, cert.epsilon, cert.gram,
                              [bad] + cert.factors[1:], cert.residual)
    assert verify_sos(tampered, toy_f()) >= 1e-4


def test_verify_sos_empty_factors():
    E = grounded_set(F2, {U})
    cert = SosCertificate(E, 0.0, np.zeros((1, 1)), [], 0.0)
    assert verify_sos(cert, zero(F2)) == 0.0


def random_grounded(rng, max_size):
    words = {U}
    while len(words) < rng.randrange(1, max_size + 1):
        base = rng.choice(sorted(words, key=str))
        words.add(multiply(generator(F2, rng.randrange(1, 3),
                                     rng.choice([-1, 1])), base))
    return grounded_set(F2, words)


def random_supported_element(rng, E):
    f = zero(F2)
    for w in E:
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = f + delta(w, c)
    return f


def test_sos_round_trip_random():
    rng = random.Random(81)
    for trial in range(100):
        E = random_grounded(rng, 6)
        k = rng.randrange(1, 4)
        f = zero(F2)
        for _ in range(k):
            xi = random_supported_element(rng, E)
            f = f + convolve(involve(xi), xi)
        cert = certify_sos(f, E, epsilon=0.0, tol=1e-7)
        assert isinstance(cert, SosCertificate), f"trial {trial} not certified"
        assert cert.residual <= 1e-7
        assert len(cert.factors) <= len(E)


def grown_grounded(rng, size):
    words = {U}
    while len(words) < size:
        base = rng.choice(sorted(words, key=str))
        words.add(multiply(generator(F2, rng.randrange(1, 3),
                                     rng.choice([-1, 1])), base))
    return grounded_set(F2, words)


def count_solves(monkeypatch):
    import freecert.certify as certify_mod

    solves = []
    solve = certify_mod.solve_feasibility

    def counting(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(certify_mod, "solve_feasibility", counting)
    return solves


@pytest.mark.parametrize("scale", [1.0, 10.0, 1000.0])
def test_exact_sos_certified_in_one_solve(monkeypatch, scale):
    # exact sums of 1-3 squares: their Gram matrices lie on the boundary of
    # the PSD cone, and the tolerance of the one solve scales with f
    solves = count_solves(monkeypatch)
    rng = random.Random(84)
    for trial in range(8):
        E = grown_grounded(rng, rng.randint(9, 15))
        f = zero(F2)
        for _ in range(rng.randint(1, 3)):
            xi = random_supported_element(rng, E)
            f = f + convolve(involve(xi), xi)
        f = scale * f
        solves.clear()
        cert = certify_sos(f, E, tol=1e-9)
        assert isinstance(cert, SosCertificate), f"trial {trial}: {cert}"
        assert len(solves) == 1
        assert verify_sos(cert, f) <= 1e-9


def test_rejected_converged_solve_reports_verified_residual(monkeypatch):
    import freecert.certify as certify_mod

    solve = certify_mod.solve_feasibility
    # a loose solve converges to a Gram matrix the verifier rejects
    monkeypatch.setattr(certify_mod, "solve_feasibility",
                        lambda inst, tol: solve(inst, tol=1e-2))
    E = grown_grounded(random.Random(85), 12)
    xi = random_supported_element(random.Random(86), E)
    out = certify_sos(convolve(involve(xi), xi), E, tol=1e-9)
    assert isinstance(out, NotCertified) and out.status == "converged"
    residual = float(out.message.split("verified residual ")[1].split()[0])
    assert 1e-9 < residual < 1.0


def test_sos_soundness_bridge():
    rng = random.Random(82)
    nprng = np.random.default_rng(83)
    from freecert.algebra import random_rep

    for trial in range(10):
        E = random_grounded(rng, 5)
        xi = random_supported_element(rng, E)
        f = convolve(involve(xi), xi)
        cert = certify_sos(f, E, tol=1e-7)
        assert isinstance(cert, SosCertificate)
        bound = cert.residual * len(double_set(E))
        for _ in range(5):
            rep = random_rep(F2, 3, nprng)
            target = f + delta(U, cert.epsilon)
            assert psd_floor(eval_rep(target, rep)) >= -bound - 1e-10


def commutator_hermitian(x, y):
    c = convolve(x, y) - convolve(y, x)
    return c + involve(c)


def test_certify_trace_constructed():
    # f = xi^* xi + hermitian commutator part, certified via class sums
    E = grounded_set(F2, {U, g(1)})
    xi = one(F2) - delta(g(1))
    f = convolve(involve(xi), xi) + commutator_hermitian(
        delta(g(2)), delta(multiply(g(1), g(2, -1))))
    cert = certify_trace(f, E, epsilon=0.0, tol=1e-7)
    assert isinstance(cert, TraceCertificate)
    assert cert.residual <= 1e-7
    rep = falsify(f, "trace", [2, 3], 200, seed=9)
    assert rep.worst >= -1e-6


def test_certify_trace_spec_example():
    # 2 d1 - 2(ds1 + ds1inv) + (d_{s2 s1 s2^-1} + d_{s2 s1^-1 s2^-1})
    w = multiply(multiply(g(2), g(1)), g(2, -1))
    wi = multiply(multiply(g(2), g(1, -1)), g(2, -1))
    f = (delta(U, 2.0) - delta(g(1), 2.0) - delta(g(1, -1), 2.0)
         + delta(w) + delta(wi))
    E = grounded_set(F2, {U, g(1)})
    cert = certify_trace(f, E, tol=1e-7)
    assert isinstance(cert, TraceCertificate)
    assert cert.residual <= 1e-7
    # the witness matches the class sums of 2*d1 - ds1 - ds1inv
    total = zero(F2)
    for xi in cert.factors:
        total = total + convolve(involve(xi), xi)
    assert total.coeff(U).real == pytest.approx(2.0, abs=1e-6)


def test_certify_trace_unit():
    E = grounded_set(F2, {U})
    cert = certify_trace(one(F2), E)
    assert isinstance(cert, TraceCertificate)
    assert cert.residual <= 1e-9


def test_certify_trace_pure_commutator_zero_gram():
    w = multiply(multiply(g(2), g(1)), g(2, -1))
    wi = multiply(multiply(g(2), g(1, -1)), g(2, -1))
    f = (delta(g(1)) + delta(g(1, -1))) - (delta(w) + delta(wi))
    E = grounded_set(F2, {U, g(1)})
    cert = certify_trace(f, E, tol=1e-9)
    assert isinstance(cert, TraceCertificate)
    assert np.max(np.abs(cert.gram)) <= 1e-8
    assert not cert.factors
    assert cert.residual <= 1e-9


def test_certify_trace_coverage_error():
    E = grounded_set(F2, {U, g(1)})
    f = delta(g(2)) + delta(g(2, -1))
    with pytest.raises(ValueError):
        certify_trace(f, E)


def test_dilate_contraction_examples():
    U2 = dilate_contraction(np.array([[0.6]]))
    assert np.allclose(U2, [[0.6, 0.8], [0.8, -0.6]])
    U4 = dilate_contraction(np.eye(2))
    assert np.allclose(U4, np.block([[np.eye(2), np.zeros((2, 2))],
                                     [np.zeros((2, 2)), -np.eye(2)]]))


def test_dilate_contraction_random():
    rng = np.random.default_rng(84)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = Z / (np.linalg.svd(Z, compute_uv=False)[0] * (1 + rng.uniform(0, 1)))
        Ud = dilate_contraction(X)
        assert np.max(np.abs(Ud.conj().T @ Ud - np.eye(2 * n))) <= 1e-10
        assert np.array_equal(Ud[:n, :n], X)  # exact block recovery


def test_dilate_contraction_norm_error():
    with pytest.raises(ValueError):
        dilate_contraction(np.array([[1.5]]))


def test_dilate_contraction_clips_marginal():
    Ud = dilate_contraction(np.array([[1.0 + 5e-7]]))
    assert Ud[0, 0] == pytest.approx(1.0)
    assert np.max(np.abs(Ud.conj().T @ Ud - np.eye(2))) <= 1e-10


def test_falsify_unit_and_modes():
    rep = falsify(one(F2), "operator", [1, 2], 12, seed=1)
    assert rep.worst == pytest.approx(1.0, abs=1e-12)
    rep = falsify(one(F2), "trace", [1, 2], 12, seed=1)
    assert rep.worst == pytest.approx(1.0, abs=1e-12)


def test_falsify_nonnegative_element():
    f = toy_f()
    rep = falsify(f, "operator", [1, 2, 4], 300, seed=3)
    assert rep.worst >= -1e-10


def test_falsify_deterministic():
    f = delta(g(1)) + delta(g(1, -1))
    r1 = falsify(f, "operator", [1, 2], 50, seed=42)
    r2 = falsify(f, "operator", [1, 2], 50, seed=42)
    assert r1.worst == r2.worst


def test_falsify_validates_args():
    with pytest.raises(ValueError):
        falsify(one(F2), "nope", [1], 10, seed=0)
    with pytest.raises(ValueError):
        falsify(one(F2), "operator", [1], 0, seed=0)
    with pytest.raises(ValueError):
        falsify(one(F2), "operator", [], 10, seed=0)


def test_certificate_json_roundtrip():
    E = grounded_set(F2, {U, g(1)})
    cert = certify_sos(toy_f(), E)
    blob = json.dumps(certificate_to_json(cert))
    back = certificate_from_json(json.loads(blob))
    assert isinstance(back, SosCertificate)
    assert back.epsilon == cert.epsilon
    assert np.allclose(back.gram, cert.gram)
    assert verify_sos(back, toy_f()) <= 1e-9

    w = multiply(multiply(g(2), g(1)), g(2, -1))
    wi = multiply(multiply(g(2), g(1, -1)), g(2, -1))
    fT = (delta(g(1)) + delta(g(1, -1))) - (delta(w) + delta(wi))
    certT = certify_trace(fT, E)
    backT = certificate_from_json(json.loads(json.dumps(certificate_to_json(certT))))
    assert isinstance(backT, TraceCertificate)
    residuals = verify_trace(backT, fT)
    assert max((abs(v) for v in residuals.values()), default=0.0) <= 1e-9


@pytest.mark.parametrize("runner", [certify_sos, certify_trace])
@pytest.mark.parametrize("which", ["criterion3", "square_minus_unit"])
def test_refutation_ends_at_first_certificate(monkeypatch, runner, which):
    solves = count_solves(monkeypatch)
    xi = one(F2) - delta(g(1))
    f = {"criterion3": delta(g(1)) + delta(g(1, -1)),
         "square_minus_unit": convolve(involve(xi), xi) - delta(U, 0.25)}[which]
    E = grounded_set(F2, {U, g(1)})
    out = runner(f, E, tol=1e-9)
    assert isinstance(out, NotCertified)
    assert len(solves) == 1 and out.iterations < 200
    assert out.status == "infeasible"
    # reported in the units of f, beyond the verifier's tolerance
    assert out.certified_gap == pytest.approx(
        solves[0].certified_gap * max(1.0, f.max_coeff()))
    assert out.certified_gap > 1e-9


def test_gram_instance_is_normalized():
    from freecert.certify import gram_instance

    f = delta(U, 3.0) - delta(g(1)) - delta(g(1, -1))
    E = grounded_set(F2, {U, g(1)})
    for trace in (False, True):
        inst, fscale = gram_instance(f, E, epsilon=0.5, trace=trace)
        assert fscale == 3.5
        rhs = sorted(r.real for r in inst.rhs)
        assert rhs == pytest.approx([-1 / 3.5, -1 / 3.5, 1.0])


@pytest.mark.parametrize("trace, message", [
    (False, "support not contained in E^-1E"),
    (True, "conjugacy classes of the support are not reachable from E^-1E"),
])
def test_gram_instance_rejects_words_outside_the_table(trace, message):
    from freecert.certify import gram_instance

    # g1 g2 g1 and its inverse have length 3, conjugate to no word of
    # length <= 2: outside E^-1E and its conjugacy classes
    w = multiply(multiply(g(1), g(2)), g(1))
    f = one(F2) + delta(w) + delta(inverse(w))
    E = grounded_set(F2, {U, g(1), g(2)})
    with pytest.raises(ValueError) as err:
        gram_instance(f, E, trace=trace)
    assert str(err.value) == (f"{message}: "
                              f"{sorted(map(str, (w, inverse(w))))}")
