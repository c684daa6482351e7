"""Acceptance suite: eleven numbered criteria with pinned tolerances, shared
by the CLI `selftest` subcommand and the pytest acceptance module."""

from __future__ import annotations

import random
import time

import numpy as np

from .algebra import convolve, delta, involve, one, zero
from .bell import (
    BellFunctional,
    BellScenario,
    correlation_of,
    inner_bound,
    outer_bound,
)
from .certify import (
    NotCertified,
    SosCertificate,
    TraceCertificate,
    certify_sos,
    certify_trace,
    dilate_contraction,
    falsify,
    verify_sos,
)
from .denselin import PartialBlockMatrix, complete_block, psd_floor
from .extendpt import extend_to, random_positive_type
from .gnsrep import gns
from .grounded import double_set, extension_chain, grounded_set
from .words import free_group, generator, inverse, multiply, unit

F2 = free_group(2)
ROOT2 = float(np.sqrt(2.0))


def _g(i, e=1):
    return generator(F2, i, e)


def _toy_element():
    return one(F2) - delta(_g(1), 0.5) - delta(_g(1, -1), 0.5)


def _random_grounded(rng, max_size):
    words = {unit(F2)}
    while len(words) < rng.randrange(1, max_size + 1):
        base = rng.choice(sorted(words, key=str))
        words.add(multiply(generator(F2, rng.randrange(1, 3),
                                     rng.choice([-1, 1])), base))
    return grounded_set(F2, words)


def _random_factor(rng, E):
    f = zero(F2)
    for w in E:
        f = f + delta(w, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return f


def criterion_1():
    """SOS toy certificate at tolerance 1e-9 in under a second."""
    E = grounded_set(F2, {unit(F2), _g(1)})
    f = _toy_element()
    t0 = time.perf_counter()
    cert = certify_sos(f, E, epsilon=0.0, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = (isinstance(cert, SosCertificate)
          and verify_sos(cert, f) <= 1e-9
          and len(cert.factors) <= 2
          and elapsed < 1.0)
    return ok, f"residual={cert.residual:.2e} n={len(cert.factors)} t={elapsed:.2f}s"


def criterion_2():
    """100 seeded SOS round trips, residual 1e-7, under 60 s total."""
    rng = random.Random(20240801)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        E = _random_grounded(rng, 6)
        f = zero(F2)
        for _ in range(rng.randrange(1, 4)):
            xi = _random_factor(rng, E)
            f = f + convolve(involve(xi), xi)
        cert = certify_sos(f, E, epsilon=0.0, tol=1e-7)
        if not isinstance(cert, SosCertificate):
            return False, f"trial {trial} not certified"
        if len(cert.factors) > len(E):
            return False, f"trial {trial} produced too many factors"
        worst = max(worst, cert.residual)
    elapsed = time.perf_counter() - t0
    return elapsed < 60.0, f"worst residual={worst:.2e} t={elapsed:.1f}s"


def criterion_3():
    """SOS refutation of delta_s1 + delta_s1inv with falsifier agreement."""
    E = grounded_set(F2, {unit(F2), _g(1)})
    f = delta(_g(1)) + delta(_g(1, -1))
    out = certify_sos(f, E, epsilon=0.0, tol=1e-9)
    refuted = isinstance(out, NotCertified)
    report = falsify(f, "operator", [1], 1000, seed=20240803)
    return (refuted and report.worst <= -1.9,
            f"refuted={refuted} worst={report.worst:.4f}")


def criterion_4():
    """500 random three-block completions stay PSD."""
    rng = np.random.default_rng(20240804)
    worst_rel = 0.0
    for _ in range(500):
        n0, n1, n2 = (int(rng.integers(0, 7)) for _ in range(3))
        n = n0 + n1 + n2
        if n == 0:
            continue
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = Z @ Z.conj().T
        lam = float(np.max(np.linalg.eigvalsh(M)))
        P = PartialBlockMatrix(
            M[:n0, :n0], M[:n0, n0:n0 + n1], M[n0:n0 + n1, n0:n0 + n1],
            M[n0:n0 + n1, n0 + n1:], M[n0 + n1:, n0 + n1:])
        _, full = complete_block(P)
        floor = psd_floor(full)
        if floor < -1e-7 * lam:
            return False, f"floor {floor:.2e} below -1e-7*{lam:.2e}"
        worst_rel = max(worst_rel, -floor / lam if lam else 0.0)
    return True, f"worst relative floor {worst_rel:.2e}"


def criterion_5():
    """200 tree extensions: PSD floors, exact restriction, quotient scan."""
    rng = random.Random(20240805)
    for trial in range(200):
        E = _random_grounded(rng, 8)
        dim = rng.randrange(1, 5)
        base = random_positive_type(E, dim=dim, seed=trial)
        scale = base.scale()
        current = base
        for _ in range(rng.randrange(1, 5)):
            words = set(current.E)
            anchor = rng.choice(sorted(words, key=str))
            new = multiply(generator(F2, rng.randrange(1, 3),
                                     rng.choice([-1, 1])), anchor)
            if new in words:
                continue
            target = grounded_set(F2, words | {new})
            current = extend_to(current, target)
            if psd_floor(current.gram()) < -1e-7 * scale:
                return False, f"trial {trial}: intermediate floor violated"
            M = current.gram()
            elements = list(current.E)
            seen = {}
            for i, s in enumerate(elements):
                si = inverse(s)
                for j, t in enumerate(elements):
                    q = multiply(si, t)
                    if q in seen and M[i, j] != seen[q]:
                        return False, f"trial {trial}: quotient scan failed"
                    seen[q] = M[i, j]
        for w, v in base.values.items():
            if current.values[w] != v:
                return False, f"trial {trial}: restriction not exact"
    return True, "200 chains preserved PSD, restriction, and quotients"


def criterion_6():
    """CHSH two-sided: outer and inner meet at 2 sqrt(2) within 1e-3."""
    chsh = BellFunctional.from_correlators([[1.0, 1.0], [1.0, -1.0]])
    s = BellScenario(2, 2)
    t0 = time.perf_counter()
    outer = outer_bound(s, chsh, "1ab").value
    inner = inner_bound(s, chsh, dim=2, iters=60, seed=20240806,
                        restarts=8)[0]
    elapsed = time.perf_counter() - t0
    target = 2.0 * ROOT2
    ok = (abs(outer - target) <= 1e-3
          and inner >= target - 1e-3
          and outer - inner <= 2e-3
          and elapsed < 120.0)
    return ok, (f"outer={outer:.6f} inner={inner:.6f} "
                f"gap={outer - inner:.2e} t={elapsed:.1f}s")


def criterion_7():
    """Classical CHSH baseline: see-saw at dim 1 reaches exactly 2."""
    chsh = BellFunctional.from_correlators([[1.0, 1.0], [1.0, -1.0]])
    s = BellScenario(2, 2)
    value = inner_bound(s, chsh, dim=1, iters=20, seed=20240807,
                        restarts=8)[0]
    brute = max(a1 * (b1 + b2) + a2 * (b1 - b2)
                for a1 in (-1, 1) for a2 in (-1, 1)
                for b1 in (-1, 1) for b2 in (-1, 1))
    return value == 2.0 and brute == 2, f"value={value!r} brute={brute}"


def criterion_8():
    """Sandwich and hierarchy monotonicity on 20 random functionals."""
    rng = np.random.default_rng(20240808)
    s = BellScenario(2, 2)
    worst_sandwich = -np.inf
    worst_mono = -np.inf
    for trial in range(20):
        c = rng.uniform(-1.0, 1.0, size=(2, 2, 2, 2))
        f = BellFunctional(c)
        inner = inner_bound(s, f, dim=2, iters=40, seed=trial, restarts=4)[0]
        o_ab = outer_bound(s, f, "1ab").value
        o_1 = outer_bound(s, f, 1).value
        if inner > o_ab + 1e-6 or o_ab > o_1 + 1e-6:
            return False, (f"trial {trial}: inner={inner:.8f} "
                           f"outer1ab={o_ab:.8f} outer1={o_1:.8f}")
        worst_sandwich = max(worst_sandwich, inner - o_ab)
        worst_mono = max(worst_mono, o_ab - o_1)
    return True, (f"max(inner-outer1ab)={worst_sandwich:.2e} "
                  f"max(outer1ab-outer1)={worst_mono:.2e}")


def criterion_9():
    """50 trace certificates with falsifier agreement plus the
    pure-commutator fixture."""
    rng = random.Random(20240809)
    for trial in range(50):
        E = _random_grounded(rng, 5)
        dom = double_set(E)
        f = zero(F2)
        for _ in range(rng.randrange(1, 3)):
            xi = _random_factor(rng, E)
            f = f + convolve(involve(xi), xi)
        for _ in range(rng.randrange(0, 3)):
            # commutator of two deltas: delta_{g a g^-1} - delta_a keeps the
            # support conjugate into E^-1 E
            a = rng.choice(dom)
            gconj = _random_grounded(rng, 3).elements[-1]
            alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            comm = alpha * (delta(multiply(multiply(gconj, a), inverse(gconj)))
                            - delta(a))
            f = f + comm + involve(comm)
        cert = certify_trace(f, E, epsilon=0.0, tol=1e-7)
        if not isinstance(cert, TraceCertificate):
            return False, f"trial {trial} not certified"
        report = falsify(f, "trace", [2, 3], 60, seed=trial)
        if report.worst < -1e-6:
            return False, f"trial {trial}: trace falsifier saw {report.worst:.2e}"
    w = multiply(multiply(_g(2), _g(1)), _g(2, -1))
    wi = multiply(multiply(_g(2), _g(1, -1)), _g(2, -1))
    fixture = (delta(_g(1)) + delta(_g(1, -1))) - (delta(w) + delta(wi))
    E = grounded_set(F2, {unit(F2), _g(1)})
    cert = certify_trace(fixture, E, epsilon=0.0, tol=1e-9)
    ok = (isinstance(cert, TraceCertificate)
          and float(np.max(np.abs(cert.gram))) <= 1e-8)
    return ok, "50 instances certified; pure commutator has zero Gram"


def criterion_10():
    """GNS: delta state, constant state, and state recovery."""
    E = grounded_set(F2, {unit(F2), _g(1), _g(2), multiply(_g(1), _g(2))})
    dom = double_set(E)
    from .extendpt import partial_positive_type

    delta_state = partial_positive_type(
        E, {w: (1.0 + 0j if w.is_unit else 0j) for w in dom})
    data = gns(delta_state)
    if not (np.allclose(data.gram, np.eye(len(E))) and data.rank == len(E)):
        return False, "delta state data wrong"
    const_state = partial_positive_type(E, {w: 1.0 + 0j for w in dom})
    if gns(const_state).rank != 1:
        return False, "constant state rank wrong"
    unit_idx = list(E).index(unit(F2))
    for seed in range(10):
        state = random_positive_type(E, dim=2, seed=seed)
        d = gns(state)
        one_hat = d.coords[:, unit_idx]
        for idx, t in enumerate(E):
            got = complex(np.vdot(one_hat, d.coords[:, idx]))
            if abs(got - state.values[t]) > 1e-8:
                return False, f"state recovery failed at seed {seed}"
    return True, "delta/constant/recovery checks passed"


def criterion_11():
    """100 Choi dilations: unitary within 1e-10, exact corner block."""
    rng = np.random.default_rng(20240811)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = Z / (np.linalg.svd(Z, compute_uv=False)[0] * (1 + rng.uniform(0, 1)))
        U = dilate_contraction(X)
        if np.max(np.abs(U.conj().T @ U - np.eye(2 * n))) > 1e-10:
            return False, f"trial {trial}: unitarity violated"
        if not np.array_equal(U[:n, :n], X):
            return False, f"trial {trial}: corner block not exact"
    return True, "100 dilations unitary with exact corners"


CRITERIA = [
    ("1 SOS toy certificate", criterion_1),
    ("2 SOS round trip", criterion_2),
    ("3 SOS refutation", criterion_3),
    ("4 completion", criterion_4),
    ("5 tree extension", criterion_5),
    ("6 CHSH two-sided", criterion_6),
    ("7 classical baseline", criterion_7),
    ("8 sandwich & monotonicity", criterion_8),
    ("9 trace certificates", criterion_9),
    ("10 GNS", criterion_10),
    ("11 Choi dilation", criterion_11),
]


def run_all(write=print) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
    return all_ok
