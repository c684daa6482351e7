"""Free-group words, group-algebra elements and unitary representations,
written from scratch so that the benchmark's checks share no code with
freecert.

A word of F_d is a tuple of nonzero ints: ``i`` is the letter g_i and ``-i``
its inverse. Words are kept freely reduced. The text form is freecert's
public one: space-separated ``g<i>^<e>`` runs, ``e`` for the unit.
"""

from __future__ import annotations

import re

import numpy as np

UNIT: tuple[int, ...] = ()
_TOKEN = re.compile(r"^g(\d+)(?:\^(-?\d+))?$")


def reduce_word(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def mul(a, b) -> tuple[int, ...]:
    return reduce_word(a + b)


def inv(a) -> tuple[int, ...]:
    return tuple(-x for x in reversed(a))


def parse(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "e":
        return UNIT
    letters: list[int] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"malformed word token {token!r}")
        g = int(m.group(1))
        e = int(m.group(2)) if m.group(2) is not None else 1
        letters.extend([g if e > 0 else -g] * abs(e))
    return reduce_word(letters)


def fmt(a) -> str:
    if not a:
        return "e"
    runs: list[list[int]] = []
    for x in a:
        g, s = abs(x), (1 if x > 0 else -1)
        if runs and runs[-1][0] == g:
            runs[-1][1] += s
        else:
            runs.append([g, s])
    return " ".join(f"g{g}^{e}" for g, e in runs)


def is_grounded(words) -> bool:
    """Contains the unit and is closed under dropping the first letter."""
    pool = set(words)
    return UNIT in pool and all(not w or w[1:] in pool for w in pool)


def grow_grounded(rng, words, size: int, d: int = 2) -> list[tuple[int, ...]]:
    """Grow a grounded set to ``size`` words by prefixing letters to members
    (a prefixed word's first-letter drop is the member itself)."""
    pool = set(words) | {UNIT}
    order = sorted(pool, key=lambda w: (len(w), w))
    while len(order) < size:
        base = order[rng.randrange(len(order))]
        x = rng.choice([g * s for g in range(1, d + 1) for s in (1, -1)])
        if base and base[0] == -x:
            continue
        w = (x,) + base
        if w not in pool:
            pool.add(w)
            order.append(w)
    return order


def quotients(E) -> set[tuple[int, ...]]:
    """E^-1 E."""
    return {mul(inv(s), t) for s in E for t in E}


# ---------------------------------------------------------------- elements

def star(f: dict) -> dict:
    return {inv(w): complex(c).conjugate() for w, c in f.items()}


def convolve(f: dict, g: dict) -> dict:
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            w = mul(a, b)
            out[w] = out.get(w, 0j) + ca * cb
    return out


def add_into(acc: dict, f: dict, scale: complex = 1.0) -> dict:
    for w, c in f.items():
        acc[w] = acc.get(w, 0j) + scale * c
    return acc


def hermitize(f: dict) -> dict:
    """(f + f^*)/2 with f(w^-1) == conj(f(w)) holding bit for bit."""
    out = {}
    for w in set(f) | {inv(w) for w in f}:
        out[w] = 0.5 * (f.get(w, 0j) + complex(f.get(inv(w), 0j)).conjugate())
    return out


def element_json(f: dict, d: int = 2) -> dict:
    terms = [{"word": fmt(w), "re": float(c.real), "im": float(c.imag)}
             for w, c in sorted(f.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    return {"group": {"kind": "free", "d": d}, "terms": terms}


def element_from_json(obj: dict) -> dict:
    out: dict = {}
    for t in obj["terms"]:
        w = parse(t["word"])
        out[w] = out.get(w, 0j) + complex(float(t["re"]), float(t["im"]))
    return out


# --------------------------------------------------------- representations

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_rep(d: int, dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [haar_unitary(dim, rng) for _ in range(d)]


def rep_word(U: list[np.ndarray], w) -> np.ndarray:
    dim = U[0].shape[0]
    M = np.eye(dim, dtype=complex)
    for x in w:
        M = M @ (U[x - 1] if x > 0 else U[-x - 1].conj().T)
    return M


def rep_element(U: list[np.ndarray], f: dict) -> np.ndarray:
    dim = U[0].shape[0]
    M = np.zeros((dim, dim), dtype=complex)
    for w, c in f.items():
        M += c * rep_word(U, w)
    return M
