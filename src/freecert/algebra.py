"""Group algebra elements (finitely supported complex functions on a group),
convolution, involution, Toeplitz compressions, and evaluation under
finite-dimensional unitary representations."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .denselin import HERMITIAN_TOL, hermitian
from .quotients import QuotientTable
from .words import (
    CYCLIC,
    FREE,
    GroupSpec,
    Word,
    WordReader,
    format_word,
    inverse,
    multiply,
    sort_key,
    unit,
)

__all__ = [
    "COEFF_PURGE",
    "GroupAlgebraElement",
    "FiniteRep",
    "element",
    "delta",
    "zero",
    "one",
    "convolve",
    "involve",
    "toeplitz_matrix",
    "hermitian_toeplitz",
    "eval_rep",
    "rep_matrix",
    "random_rep",
    "tensor_rep",
    "element_to_json",
    "element_from_json",
    "complex_from_json",
    "json_float",
]

# coefficients below this are treated as exact zeros and dropped
COEFF_PURGE = 1e-15


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Finitely supported function Word -> complex over a fixed group."""

    spec: GroupSpec
    terms: dict[Word, complex] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        spec = self.spec
        for w, c in self.terms.items():
            if w.spec is not spec and w.spec != spec:
                raise ValueError("term word spec mismatch")
            c = complex(c)
            if abs(c) >= COEFF_PURGE:
                cleaned[w] = c
        object.__setattr__(self, "terms", cleaned)

    def coeff(self, w: Word) -> complex:
        return self.terms.get(w, 0j)

    def support(self) -> list[Word]:
        return sorted(self.terms, key=sort_key)

    def is_hermitian(self) -> bool:
        scale = 1.0 + max((abs(c) for c in self.terms.values()), default=0.0)
        return all(abs(c - self.coeff(inverse(w)).conjugate())
                   <= HERMITIAN_TOL * scale
                   for w, c in self.terms.items())

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.spec != other.spec:
            raise ValueError("elements live in different group algebras")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0j) + c
        return GroupAlgebraElement(self.spec, out)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return convolve(self, other)
        return GroupAlgebraElement(
            self.spec, {w: complex(other) * c for w, c in self.terms.items()})

    __rmul__ = __mul__

    def star(self) -> "GroupAlgebraElement":
        return involve(self)

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


def element(spec: GroupSpec, terms: dict[Word, complex]) -> GroupAlgebraElement:
    return GroupAlgebraElement(spec, dict(terms))


def delta(w: Word, coeff: complex = 1.0) -> GroupAlgebraElement:
    return GroupAlgebraElement(w.spec, {w: complex(coeff)})


def zero(spec: GroupSpec) -> GroupAlgebraElement:
    return GroupAlgebraElement(spec, {})


def one(spec: GroupSpec) -> GroupAlgebraElement:
    return delta(unit(spec))


def convolve(f: GroupAlgebraElement, g: GroupAlgebraElement) -> GroupAlgebraElement:
    """(f*g)(s) = sum_t f(st^{-1}) g(t)."""
    if f.spec != g.spec:
        raise ValueError("elements live in different group algebras")
    out: dict[Word, complex] = {}
    for wf, cf in f.terms.items():
        for wg, cg in g.terms.items():
            w = multiply(wf, wg)
            out[w] = out.get(w, 0j) + cf * cg
    return GroupAlgebraElement(f.spec, out)


def involve(f: GroupAlgebraElement) -> GroupAlgebraElement:
    """f^*(s) = conj(f(s^{-1}))."""
    return GroupAlgebraElement(
        f.spec, {inverse(w): c.conjugate() for w, c in f.terms.items()})


def toeplitz_matrix(g, E) -> np.ndarray:
    """The compression [g(s^{-1}t)]_{s,t in E} of the right regular
    representation applied to g; E is a word list or its QuotientTable.

    g may be a GroupAlgebraElement (total: absent words are 0) or a plain
    dict (partial: a missing value for some s^{-1}t is an error).
    """
    table = E if isinstance(E, QuotientTable) else QuotientTable(E)
    if isinstance(g, GroupAlgebraElement):
        lookup = g.coeff
    else:
        def lookup(w, _values=g):
            if w not in _values:
                raise KeyError(f"value missing for quotient {format_word(w)}")
            return _values[w]

    values = np.array([lookup(w) for w in table.classes], dtype=complex)
    return hermitian_toeplitz(values[table.labels])


def hermitian_toeplitz(M: np.ndarray) -> np.ndarray:
    """Check that the gathered compression M[s, t] = g(s^{-1}t) respects
    g(a^{-1}) = conj(g(a)) within HERMITIAN_TOL of its scale; return its
    hermitian part."""
    return hermitian(
        M, "values break hermitian symmetry g(a^{-1}) = conj(g(a))")


@dataclass(frozen=True)
class FiniteRep:
    """A finite-dimensional unitary representation given by one unitary per
    generator; direct-product reps pair two base reps acting by U (x) I and
    I (x) V."""

    spec: GroupSpec
    dim: int
    gens: tuple[np.ndarray, ...] = ()
    left: "FiniteRep | None" = None
    right: "FiniteRep | None" = None

    def __post_init__(self):
        if self.spec.is_product:
            if self.left is None or self.right is None:
                raise ValueError("product rep needs left/right components")
            if self.left.spec != self.spec.left or self.right.spec != self.spec.right:
                raise ValueError("component rep spec mismatch")
            if self.dim != self.left.dim * self.right.dim:
                raise ValueError("product rep dimension mismatch")
            return
        if len(self.gens) != self.spec.d:
            raise ValueError("need one unitary per generator")
        eye = np.eye(self.dim)
        for U in self.gens:
            if U.shape != (self.dim, self.dim):
                raise ValueError("generator matrix dimension mismatch")
            if np.max(np.abs(U.conj().T @ U - eye)) > 1e-10:
                raise ValueError("generator matrix is not unitary")
            if self.spec.kind == CYCLIC:
                if np.max(np.abs(np.linalg.matrix_power(U, self.spec.m) - eye)) > 1e-8:
                    raise ValueError("generator does not have the cyclic order")


def rep_matrix(rep: FiniteRep, w: Word) -> np.ndarray:
    """pi(w): the ordered product of generator unitaries along w's letters."""
    if w.spec != rep.spec:
        raise ValueError("word and representation spec mismatch")
    if rep.spec.is_product:
        L = rep_matrix(rep.left, w.pair[0])
        R = rep_matrix(rep.right, w.pair[1])
        return np.kron(L, R)
    M = np.eye(rep.dim, dtype=complex)
    for g, e in w.letters:
        U = rep.gens[g - 1]
        if e < 0:
            U = U.conj().T
            e = -e
        for _ in range(e):
            M = M @ U
    return M


def eval_rep(f: GroupAlgebraElement, rep: FiniteRep) -> np.ndarray:
    """sum_t f(t) pi(t)."""
    if f.spec != rep.spec:
        raise ValueError("element and representation spec mismatch")
    M = np.zeros((rep.dim, rep.dim), dtype=complex)
    for w, c in f.terms.items():
        M += c * rep_matrix(rep, w)
    return M


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    # fix phases so the distribution is Haar and the output deterministic
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_rep(spec: GroupSpec, dim: int, rng: np.random.Generator) -> FiniteRep:
    """Haar-style random representation; cyclic generators get eigenvalues on
    the m-th roots of unity so that U^m = I."""
    if spec.is_product:
        return tensor_rep(random_rep(spec.left, dim, rng),
                          random_rep(spec.right, dim, rng))
    gens = []
    for _ in range(spec.d):
        if spec.kind == CYCLIC:
            V = _haar_unitary(dim, rng)
            phases = np.exp(2j * np.pi * rng.integers(0, spec.m, size=dim) / spec.m)
            gens.append(V @ np.diag(phases) @ V.conj().T)
        else:
            gens.append(_haar_unitary(dim, rng))
    return FiniteRep(spec, dim, tuple(gens))


def tensor_rep(left: FiniteRep, right: FiniteRep) -> FiniteRep:
    from .words import direct_product

    spec = direct_product(left.spec, right.spec)
    return FiniteRep(spec, left.dim * right.dim, left=left, right=right)


def element_to_json(f: GroupAlgebraElement) -> dict:
    terms = [{"word": format_word(w), "re": c.real, "im": c.imag}
             for w, c in f.terms.items()]
    terms.sort(key=lambda t: t["word"])
    return {"group": f.spec.to_json(), "terms": terms}


def element_from_json(obj: dict,
                      read: WordReader | None = None) -> GroupAlgebraElement:
    """The element of obj. Its words go through `read` when that reader's
    group is the element's, so the words of one file are parsed once and
    share one GroupSpec; otherwise through a reader of its own."""
    spec = GroupSpec.from_json(obj["group"])
    if read is None or read.spec != spec:
        read = WordReader(spec)
    terms: dict[Word, complex] = {}
    for t in obj["terms"]:
        w = read(t["word"])
        terms[w] = terms.get(w, 0j) + complex_from_json(t)
    return GroupAlgebraElement(read.spec, terms)


def json_float(value) -> float:
    """value when JSON wrote it as a number: not a bool or text."""
    if type(value) not in (int, float):
        raise ValueError(f"a coefficient must be a number, got {value!r}")
    return float(value)


def complex_from_json(t: dict) -> complex:
    """The finite complex number {"re": x, "im": y}; NaN and infinities,
    which JSON readers accept, are rejected rather than purged."""
    z = complex(json_float(t["re"]), json_float(t["im"]))
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite coefficient {t['re']!r} + {t['im']!r}i")
    return z
