"""Sum-of-hermitian-squares certificates, tracial certificates, and
representation-based falsifiers for hermitian group algebra elements.

A certificate factors f + eps*delta_1 as sum_i xi_i^* * xi_i with supp xi_i
inside a grounded set E. The Gram matrix b over E is found by SDP
feasibility (the diagonal-sum constraints sum_{s^-1 t = a} b[s,t] = f(a) are
the constructive replacement for the completely-positive extension step).
Every certificate is re-verified independently of the solver, without
convolution: the coefficient of sum_i xi_i^* * xi_i at w is the sum of
(Xi^* Xi)[s, t] over the pairs with s^-1 t = w, where Xi stacks the factor
coefficients over the union S of their supports. The verifier forms S's
quotient table from the factor words and the Gram product Xi^* Xi in
floating point, and scatter-adds it by quotient label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (FiniteRep, GroupAlgebraElement, delta, element,
                      element_from_json, element_to_json, eval_rep,
                      json_float, random_rep)
from .denselin import eigh, psd_floor
from .grounded import GroundedSet, grounded_set
from .quotients import QuotientTable
from .sdpcore import SdpInstance, class_sums, solve_feasibility
from .words import (GroupSpec, Word, WordReader, conjugacy_canonical,
                    format_word, sort_key, unit)

__all__ = [
    "SosCertificate",
    "TraceCertificate",
    "NotCertified",
    "FalsifyReport",
    "gram_instance",
    "certify_sos",
    "verify_sos",
    "certify_trace",
    "verify_trace",
    "dilate_contraction",
    "falsify",
    "certificate_to_json",
    "certificate_from_json",
]

# the default bound on a certificate's verified residual
CERTIFY_DEFAULT_TOL = 1e-9


@dataclass
class SosCertificate:
    """Factorization witness: f + epsilon*delta_1 = sum_i xi_i^* * xi_i."""

    E: GroundedSet
    epsilon: float
    gram: np.ndarray
    factors: list[GroupAlgebraElement]
    residual: float


@dataclass
class TraceCertificate(SosCertificate):
    """Tracial witness: every conjugacy class sum of f + epsilon*delta_1
    matches the class sum of sum_i xi_i^* * xi_i."""

    class_residuals: dict[Word, complex] = field(default_factory=dict)


@dataclass
class NotCertified:
    """The solve's residuals, iterations and stop reason, all in the units
    of f's coefficients: `certified_gap` is the class-sum residual below
    which a dual certificate excludes every PSD Gram matrix (None without
    one). When the solve converged, `message` gives the verified residual
    that the verifier rejected."""

    psd_residual: float
    affine_residual: float
    iterations: int
    message: str = ""
    status: str = ""
    certified_gap: float | None = None


@dataclass
class FalsifyReport:
    """The worst value that falsify met and the representation that gave
    it."""

    worst: float
    witness: FiniteRep


def gram_instance(f: GroupAlgebraElement, E: GroundedSet,
                  epsilon: float = 0.0, trace: bool = False):
    """The normalized Gram SDP of f + eps*delta_1 over E and its scale
    fscale = max(1, max|f| + |eps|): one sum class per word a of E^-1E
    (per conjugacy class of E^-1E when `trace`), labelled by the quotient
    table of E, whose entries b[s,t] add up to
    (f + eps*delta_1)(class) / fscale. Returns (SdpInstance, fscale);
    b = G / fscale for the Gram matrix G."""
    if not f.is_hermitian():
        raise ValueError("element is not hermitian")
    table = E.quotients
    labels, keys, index = table.labels, table.classes, table.index
    what = "support not contained in E^-1E"
    if trace:
        of_class, keys = table.conjugacy
        labels = of_class[table.labels]
        label = {q: k for k, q in enumerate(keys)}
        index = {w: label[a] for w in f.terms
                 if (a := conjugacy_canonical(w)) in label}
        what = ("conjugacy classes of the support are not reachable from "
                "E^-1E")
    sums = class_sums(f.terms, index, what)
    # class 0, at (0, 0), holds the unit
    sums[0] = sums.get(0, 0j) + epsilon
    fscale = max(1.0, f.max_coeff() + abs(epsilon))
    rhs = [sums.get(k, 0j) / fscale for k in range(len(keys))]
    return SdpInstance(labels, rhs), fscale


def _factor_gram(E, b) -> tuple[list[GroupAlgebraElement], np.ndarray]:
    """Develop the positive part of b into factor elements: every
    eigenpair with lam_i > 0 gives xi_i(t) = sqrt(lam_i) * conj(U[t,i]).
    No rank cut: a dropped small eigenvalue would move the class sums by
    its mass, which the solve's tolerance does not account for."""
    elements = list(E)
    w, U = eigh(b)
    keep = [k for k in range(len(w)) if w[k] > 0.0]
    factors = []
    for k in keep:
        coeffs = np.sqrt(w[k]) * U[:, k].conj()
        factors.append(element(E.spec, {t: coeffs[idx]
                                        for idx, t in enumerate(elements)}))
    rebuilt = np.zeros_like(b)
    for k in keep:
        col = U[:, k:k + 1]
        rebuilt += w[k] * (col @ col.conj().T)
    return factors, rebuilt


def certify_sos(f: GroupAlgebraElement, E: GroundedSet, epsilon: float = 0.0,
                tol: float = CERTIFY_DEFAULT_TOL, instance=None):
    """Search for a sum-of-hermitian-squares factorization of f + eps*delta_1
    with factors supported in E. Returns an SosCertificate or NotCertified.
    `instance` is gram_instance(f, E, epsilon) if the caller has built it."""
    return _certify(f, E, epsilon, tol, instance, trace=False)


def _certify(f, E, epsilon, tol, instance, trace):
    """Solve the (normalized) Gram SDP once, factor its solution and let
    the symbolic verifier decide; the solver verdict never gates the
    acceptance.

    The verified residual of b = G / fscale is at most fscale times its
    affine residual plus the class-sum mass of the negative part that
    _factor_gram clips. An SOS class has at most n entries, so that mass is
    at most n times the PSD floor the solve reaches, and the solve runs at
    tol / (fscale n)."""
    inst, fscale = instance or gram_instance(f, E, epsilon, trace)
    res = solve_feasibility(inst, tol=max(tol / (fscale * inst.n), 1e-15))
    factors, gram = _factor_gram(E, fscale * res.b)
    if trace:
        cert = TraceCertificate(E, float(epsilon), gram, factors, np.inf)
        cert.class_residuals = verify_trace(cert, f)
        cert.residual = max((abs(v) for v in cert.class_residuals.values()),
                            default=0.0)
    else:
        cert = SosCertificate(E, float(epsilon), gram, factors, np.inf)
        cert.residual = verify_sos(cert, f)
    if cert.residual <= tol:
        return cert
    if res.status == "converged":
        message = (f"the verified residual {cert.residual:.3g} of the "
                   f"solver's Gram matrix exceeds tol {tol:g}")
    elif trace:
        message = "class-sum Gram SDP found no PSD solution"
    else:
        message = "Gram SDP found no PSD solution within tolerance"
    gap = res.certified_gap
    return NotCertified(res.psd_residual * fscale,
                        res.affine_residual * fscale,
                        res.iterations, message, res.status,
                        gap * fscale if gap is not None else None)


def _residual_terms(cert: SosCertificate,
                    f: GroupAlgebraElement) -> dict[Word, complex]:
    """f + epsilon*delta_1 - sum_i xi_i^* * xi_i at every word of S^-1 S,
    of supp f and at the unit, S the union of the factors' supports: the
    words depend on the supports alone, never on rounding.

    With Xi the factor coefficients stacked over S, the coefficient of
    sum_i xi_i^* * xi_i at w is the sum of (Xi^* Xi)[s, t] over the pairs
    with s^-1 t = w: one matrix product, scattered by the labels of S's own
    quotient table."""
    spec = f.spec
    if cert.E.spec != spec or any(xi.spec != spec for xi in cert.factors):
        raise ValueError("elements live in different group algebras")
    support = tuple(dict.fromkeys(w for xi in cert.factors for w in xi.terms))
    # a table is a function of its word tuple alone: when the factors list
    # E's words in E's order (as every certificate made by certify does),
    # E's own table is that table
    table = (cert.E.quotients if support == cert.E.elements
             else QuotientTable(support))
    column = {w: j for j, w in enumerate(table.words)}
    Xi = np.zeros((len(cert.factors), len(column)), dtype=complex)
    for k, xi in enumerate(cert.factors):
        for w, c in xi.terms.items():
            Xi[k, column[w]] = c
    G = (Xi.conj().T @ Xi).ravel()
    labels = table.labels.ravel()
    sums = (np.bincount(labels, G.real, len(table))
            + 1j * np.bincount(labels, G.imag, len(table)))
    diff = dict((f + delta(unit(spec), cert.epsilon)).terms)
    diff.setdefault(unit(spec), 0j)
    for w, c in zip(table.classes, sums.tolist()):
        diff[w] = diff.get(w, 0j) - c
    return diff


def verify_sos(cert: SosCertificate, f: GroupAlgebraElement) -> float:
    """Independent symbolic check: the max coefficient deviation of
    sum_i xi_i^* * xi_i from f + epsilon*delta_1. The sum is formed from the
    factors alone, through the quotient table of their supports and one
    Gram product of their coefficients, never from the SDP instance or the
    solver's Gram matrix."""
    return max((abs(c) for c in _residual_terms(cert, f).values()),
               default=0.0)


def certify_trace(f: GroupAlgebraElement, E: GroundedSet,
                  epsilon: float = 0.0, tol: float = CERTIFY_DEFAULT_TOL,
                  instance=None):
    """Certify trace positivity: find a Gram matrix whose factorization
    matches f + eps*delta_1 on every conjugacy class sum. Words of supp f
    must be conjugate into E^-1E. `instance` is gram_instance(f, E,
    epsilon, trace=True) if the caller has built it."""
    return _certify(f, E, epsilon, tol, instance, trace=True)


def verify_trace(cert: SosCertificate, f: GroupAlgebraElement) -> dict[Word, complex]:
    """Symbolic class-sum check: signed residual per conjugacy class of
    f + epsilon*delta_1 - sum_i xi_i^* * xi_i, summed from the word-by-word
    residual of verify_sos, for every conjugacy class of S^-1 S, of supp f
    and of the unit (S the union of the factors' supports), zero or not."""
    residuals: dict[Word, complex] = {}
    for w, c in _residual_terms(cert, f).items():
        key = conjugacy_canonical(w)
        residuals[key] = residuals.get(key, 0j) + c
    return {k: v for k, v in sorted(residuals.items(),
                                    key=lambda kv: sort_key(kv[0]))}


def dilate_contraction(X: np.ndarray) -> np.ndarray:
    """Choi's unitary dilation of a contraction:

        U = [ X                (1 - XX*)^(1/2) ]
            [ (1 - X*X)^(1/2)  -X*             ]

    Singular values are clipped to 1; a norm above 1 + 1e-6 is an error.
    The upper-left block of U is X itself (bit for bit when no clipping
    occurs)."""
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    p, q = X.shape
    W, sig, Vh = np.linalg.svd(X)
    if sig.size and sig[0] > 1.0 + 1e-6:
        raise ValueError(f"operator norm {sig[0]:g} exceeds 1 + 1e-6")
    clipped = np.minimum(sig, 1.0)
    if sig.size and sig[0] > 1.0:
        X = (W[:, :len(clipped)] * clipped) @ Vh[:len(clipped)]
    # defect square roots via the same SVD triple keeps U unitary to rounding
    r = len(clipped)
    d = np.sqrt(np.maximum(1.0 - clipped ** 2, 0.0))
    DW = W @ np.diag(np.concatenate([d, np.ones(p - r)])) @ W.conj().T
    DV = Vh.conj().T @ np.diag(np.concatenate([d, np.ones(q - r)])) @ Vh
    U = np.block([[X, DW], [DV, -X.conj().T]])
    return U


def _sample_rep(spec, dim, rng, use_dilation):
    # dilations of random compressions explore non-Haar corners of the
    # unitary group; they rarely have finite order, so cyclic and product
    # specs always sample Haar-style
    if use_dilation and spec.kind == "free":
        gens = []
        for _ in range(spec.d):
            Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            sig = np.linalg.svd(Z, compute_uv=False)[0]
            X = Z / (sig * (1.0 + rng.uniform(0.0, 1.0)))
            gens.append(dilate_contraction(X))
        return FiniteRep(spec, 2 * dim, tuple(gens))
    return random_rep(spec, dim, rng)


def falsify(f: GroupAlgebraElement, mode: str, dims: list[int],
            samples: int, seed) -> FalsifyReport:
    """Sample random finite-dimensional unitary representations and report
    the worst operator floor (mode "operator") or worst normalized trace
    (mode "trace"). A clearly negative worst value disproves membership in
    the archimedean closure of the corresponding cone."""
    if mode not in ("operator", "trace"):
        raise ValueError("mode must be 'operator' or 'trace'")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not dims:
        raise ValueError("dims must be nonempty")
    worst = np.inf
    witness = None
    for k in range(samples):
        rng = np.random.default_rng([int(seed), k])
        dim = int(dims[k % len(dims)])
        rep = _sample_rep(f.spec, dim, rng, use_dilation=(k % 3 == 2))
        M = eval_rep(f, rep)
        if mode == "operator":
            value = psd_floor(M)
        else:
            value = float(np.trace(M).real) / rep.dim
        if value < worst:
            worst = value
            witness = rep
    return FalsifyReport(float(worst), witness)


def certificate_to_json(cert: SosCertificate) -> dict:
    out = {
        "support": [format_word(w) for w in cert.E],
        "group": cert.E.spec.to_json(),
        "epsilon": cert.epsilon,
        "gram": [[[z.real, z.imag] for z in row] for row in cert.gram],
        "factors": [element_to_json(xi) for xi in cert.factors],
        "residual": cert.residual,
    }
    if isinstance(cert, TraceCertificate):
        out["kind"] = "trace"
        out["class_residuals"] = {
            format_word(w): [v.real, v.imag]
            for w, v in cert.class_residuals.items()}
    else:
        out["kind"] = "sos"
    return out


def certificate_from_json(obj: dict,
                          read: WordReader | None = None) -> SosCertificate:
    """The certificate of obj. One reader parses its support, every factor
    and its class residuals: a factor lists each support word again."""
    spec = GroupSpec.from_json(obj["group"])
    if read is None or read.spec != spec:
        read = WordReader(spec)
    spec = read.spec
    E = grounded_set(spec, {read(s) for s in obj["support"]})
    gram = np.array([[complex(json_float(re), json_float(im))
                      for re, im in row] for row in obj["gram"]],
                    dtype=complex)
    if gram.size == 0:
        gram = np.zeros((len(E), len(E)), dtype=complex)
    factors = [element_from_json(e, read) for e in obj["factors"]]
    epsilon, residual = json_float(obj["epsilon"]), json_float(obj["residual"])
    if not np.isfinite(epsilon):  # verify_sos's max would skip a NaN term
        raise ValueError(f"epsilon must be finite, got {epsilon!r}")
    if obj.get("kind") == "trace":
        cert = TraceCertificate(E, epsilon, gram, factors, residual)
        cert.class_residuals = {
            read(w): complex(json_float(re), json_float(im))
            for w, (re, im) in obj.get("class_residuals", {}).items()}
        return cert
    return SosCertificate(E, epsilon, gram, factors, residual)
