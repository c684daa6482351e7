"""Independent checks of freecert's outputs.

Nothing here imports freecert: words are reduced by ``fwords``, elements are
evaluated under random unitary representations with numpy, and Bell values
are recomputed from the reported measurements and state. Every check raises
``CheckError`` with a one-line reason.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import fwords as F

class CheckError(Exception):
    """An output failed an independent check."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def min_eig(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=complex)


# ---------------------------------------------------------------- certify

def check_certificate(f: dict, cert: dict, trace: bool, seed: int,
                      tol: float = 1e-8, reps: int = 3):
    """The factors reproduce f + eps*delta_e under random unitary
    representations (operator identity for SOS, equal traces for tracial
    certificates), and the Gram matrix is PSD."""
    require(cert.get("kind") == ("trace" if trace else "sos"),
            f"certificate kind {cert.get('kind')!r}")
    eps = float(cert["epsilon"])
    target = F.add_into(dict(f), {F.UNIT: eps})
    factors = [F.element_from_json(xi) for xi in cert["factors"]]
    support = {F.parse(w) for w in cert["support"]}
    for xi in factors:
        require(set(xi) <= support, "factor leaves the certificate support")
    scale = 1.0 + max((abs(c) for c in target.values()), default=0.0)
    rng = np.random.default_rng([seed, 7])
    for r in range(reps):
        U = F.random_rep(2, 1 + r, rng)
        lhs = F.rep_element(U, target)
        rhs = np.zeros_like(lhs)
        for xi in factors:
            X = F.rep_element(U, xi)
            rhs += X.conj().T @ X
        if trace:
            gap = abs(np.trace(lhs) - np.trace(rhs))
        else:
            gap = float(np.linalg.norm(lhs - rhs, 2))
        require(gap <= tol * scale * len(target),
                f"factors miss f under a dim-{1 + r} representation "
                f"by {gap:.3e}")
    gram = matrix_from_json(cert["gram"])
    if gram.size:
        floor = min_eig(gram)
        require(floor >= -tol * scale, f"Gram matrix floor {floor:.3e}")


def check_refutation(f: dict, report: dict):
    """A refuted element is negative at the trivial character."""
    require(report.get("certified") is False,
            "non-positive element was reported certified")
    trivial = sum(f.values()).real
    require(trivial < 0.0,
            f"trivial-character value {trivial:.3e} is not negative")


def check_verify(report: dict):
    require(report.get("ok") is True, "verify did not accept the certificate")


# ------------------------------------------------------------------- bell

def classical_max(c: np.ndarray) -> float:
    d, _, m, _ = c.shape
    best = -math.inf
    for a in itertools.product(range(m), repeat=d):
        for b in itertools.product(range(m), repeat=d):
            best = max(best, sum(c[k, l, a[k], b[l]]
                                 for k in range(d) for l in range(d)))
    return float(best)


def trivial_upper(c: np.ndarray) -> float:
    """sum_kl max_ij c[k,l,i,j] bounds every correlation."""
    return float(np.sum(np.max(c, axis=(2, 3))))


def seesaw_value(c: np.ndarray, report: dict) -> float:
    """Recompute the see-saw value from the reported PVMs and state, after
    checking that the measurements are projective and the state a unit
    vector."""
    A = [[matrix_from_json(P) for P in pvm] for pvm in report["alice"]]
    B = [[matrix_from_json(Q) for Q in pvm] for pvm in report["bob"]]
    psi = np.array([complex(re, im) for re, im in report["state"]])
    d, _, m, _ = c.shape
    require(len(A) == d and len(B) == d, "wrong number of settings")
    for fam in (A, B):
        for pvm in fam:
            require(len(pvm) == m, "wrong number of outcomes")
            eye = np.eye(pvm[0].shape[0])
            require(np.max(np.abs(sum(pvm) - eye)) <= 1e-8,
                    "effects do not sum to the identity")
            for P in pvm:
                require(np.max(np.abs(P - P.conj().T)) <= 1e-8,
                        "effect is not hermitian")
                require(np.max(np.abs(P @ P - P)) <= 1e-8,
                        "effect is not a projection")
    require(abs(np.linalg.norm(psi) - 1.0) <= 1e-9, "state is not a unit vector")
    value = 0.0
    for k, l, i, j in itertools.product(range(d), range(d), range(m), range(m)):
        if c[k, l, i, j] != 0.0:
            op = np.kron(A[k][i], B[l][j])
            value += c[k, l, i, j] * float(np.vdot(psi, op @ psi).real)
    return value


def check_bell(c: np.ndarray, outer: dict, inner: dict,
               quantum: float | None = None):
    """``outer`` maps level -> bell-outer report and ``inner`` is the
    bell-inner report for the same functional. ``quantum`` is the known
    quantum value, where there is one."""
    tol = 1e-6
    upper = trivial_upper(c)
    classical = classical_max(c)
    values = {lvl: float(rep["value"]) for lvl, rep in outer.items()}
    for lvl, v in values.items():
        require(v <= upper + tol, f"outer({lvl})={v:.9f} above trivial {upper:.9f}")
        require(classical <= v + tol,
                f"classical {classical:.9f} above outer({lvl})={v:.9f}")
        if quantum is not None:
            require(abs(v - quantum) <= tol,
                    f"outer({lvl})={v:.9f} is not {quantum:.9f}")
    order = [lvl for lvl in ("1", "1ab", "2") if lvl in values]
    for lo, hi in zip(order[1:], order):
        require(values[lo] <= values[hi] + tol,
                f"outer({lo})={values[lo]:.9f} above outer({hi})={values[hi]:.9f}")
    reported = float(inner["value"])
    recomputed = seesaw_value(c, inner)
    require(abs(reported - recomputed) <= 1e-9 * (1.0 + abs(recomputed)),
            f"see-saw value {reported!r} but the PVMs give {recomputed!r}")
    tightest = min(values.values())
    require(reported <= tightest + tol,
            f"inner {reported:.9f} above outer {tightest:.9f}")
    if quantum is not None:
        require(quantum - 1e-3 <= reported <= quantum + 1e-9,
                f"inner {reported:.9f} off the quantum value {quantum:.9f}")


# ------------------------------------------------------------- extension

def toeplitz(values: dict, E) -> np.ndarray:
    n = len(E)
    M = np.empty((n, n), dtype=complex)
    for i, s in enumerate(E):
        si = F.inv(s)
        for j, t in enumerate(E):
            q = F.mul(si, t)
            require(q in values, f"no value for quotient {F.fmt(q)}")
            M[i, j] = values[q]
    return M


def values_from_json(obj: dict) -> dict:
    return {F.parse(t["word"]): complex(t["re"], t["im"])
            for t in obj["values"]}


def check_extension(given: dict, targets, out: dict, gns_report: dict):
    """The extension keeps every input value bit for bit, is hermitian,
    grounded and PSD on the enlarged set, and its GNS data recover it."""
    in_vals = values_from_json(given)
    out_vals = values_from_json(out)
    for w, v in in_vals.items():
        got = out_vals.get(w)
        require(got is not None and got.real == v.real and got.imag == v.imag,
                f"input value at {F.fmt(w)} changed")
    E = [F.parse(w) for w in out["domain"]]
    want = {F.parse(w) for w in given["domain"]} | set(targets)
    require(set(E) == want, "extended domain is not input domain + targets")
    require(F.is_grounded(E), "extended domain is not grounded")
    require(set(out_vals) == F.quotients(E), "values do not cover E^-1 E")
    scale = 1.0 + max(abs(v) for v in out_vals.values())
    for w, v in out_vals.items():
        require(abs(out_vals[F.inv(w)] - v.conjugate()) <= 1e-12 * scale,
                f"hermitian symmetry fails at {F.fmt(w)}")
    T = toeplitz(out_vals, E)
    floor = min_eig(T)
    require(floor >= -1e-7 * scale, f"extended Toeplitz floor {floor:.3e}")

    support = [F.parse(w) for w in gns_report["support"]]
    require(support == E, "GNS support differs from the extended domain")
    gram = matrix_from_json(gns_report["gram"])
    require(np.max(np.abs(gram - T)) <= 1e-12 * scale,
            "GNS Gram matrix is not the Toeplitz matrix of the values")
    Q = matrix_from_json(gns_report["basis"])
    coords = matrix_from_json(gns_report["coords"])
    r = int(gns_report["rank"])
    require(Q.shape == (len(E), r) and coords.shape == (r, len(E)),
            "GNS shapes do not match the rank")
    require(np.max(np.abs(Q.conj().T @ gram @ Q - np.eye(r))) <= 1e-8 * scale,
            "Q* M Q is not the identity")
    one_hat = coords[:, E.index(F.UNIT)]
    for idx, t in enumerate(E):
        got = complex(np.vdot(one_hat, coords[:, idx]))
        require(abs(got - out_vals[t]) <= 1e-8 * scale,
                f"GNS does not recover g({F.fmt(t)})")
