"""Seeded inputs for the three workloads, the CLI steps of each item, and the
independent check of each item's outputs.

An item is one user-level job: a certificate and its verification, one Bell
functional's two-sided bound, or one extension plus its GNS data. Items come
in rounds of fixed make-up; round ``r`` of seed ``s`` is drawn from
``random.Random(f"{workload}:{s}:{r}")``, so the same seed gives the same
inputs and every round holds the same kinds of item in the same order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
import fwords as F

WORKLOADS = ("certify", "bell", "extend_gns")


@dataclass
class Item:
    """``steps`` are CLI argument lists with their expected exit codes;
    ``check`` reads the outputs (the steps' stdout and the files in the item
    directory) and raises ``checks.CheckError``."""

    kind: str
    files: dict[str, object]
    steps: list[tuple[list[str], int]]
    check: Callable[[list[str]], None]

    def write_inputs(self, d: Path) -> None:
        for name, obj in self.files.items():
            write_json(d / name, obj)


def write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _read(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _rc(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


# ---------------------------------------------------------------- certify

def _sos(rng, E, factors):
    f: dict = {}
    for _ in range(factors):
        xi = {w: _rc(rng) for w in E}
        F.add_into(f, F.convolve(F.star(xi), xi))
    return f


def _with_margin(rng, f: dict) -> dict:
    """Add 2-5% of f(e) at the unit, which puts f inside the SOS cone on E.

    On the boundary (a Gram matrix of rank 1-3 on up to 17 words) about one
    item in 40 fails the first solve and retries with up to 400k
    iterations, 10 s on a 6-word trace element; how many such items a run
    meets depends on the seed, which swung throughput between 6 and 15
    items/s. Refutations still take the retry path every time."""
    return F.add_into(f, {F.UNIT: rng.uniform(0.02, 0.05) * f[F.UNIT].real})


def _certify_item(kind: str, f: dict, E, d: Path, seed: int) -> Item:
    fpath, cpath = str(d / "f.json"), str(d / "cert.json")
    support = ",".join(F.fmt(w) for w in E)
    if kind == "refute":
        steps = [(["certify", "--input", fpath, "--support", support,
                   "--out", cpath], 2)]

        def check(outs):
            C.check_refutation(f, _read(Path(cpath)))
        return Item(kind, {"f.json": F.element_json(f)}, steps, check)

    trace = kind == "trace"
    cmd = "certify-trace" if trace else "certify"
    steps = [([cmd, "--input", fpath, "--support", support, "--out", cpath], 0),
             (["verify", "--cert", cpath, "--input", fpath], 0)]

    def check(outs):
        C.check_certificate(f, _read(Path(cpath)), trace, seed)
        C.check_verify(json.loads(outs[1]))
    return Item(kind, {"f.json": F.element_json(f)}, steps, check)


# (support size, factors) of the SOS items and support sizes of the trace
# items in every round: fixed, so that rounds cost about the same whatever
# the seed; the seed draws the words, coefficients and order
SOS_SHAPES = [(4, 1), (6, 2), (7, 3), (9, 1), (11, 2), (13, 3), (15, 2), (17, 1)]
TRACE_SIZES = [4, 7, 10]


def certify_round(seed: int, r: int, d: Path, tiny: bool = False) -> list[Item]:
    """8 SOS elements on 4-17 words, 3 trace-positive elements (SOS plus
    commutators) on 4-10 words, both with a margin at the unit, and 1
    non-positive element on 2-8 words."""
    rng = random.Random(f"certify:{seed}:{r}")
    shapes = [(4, 1), (6, 2)] if tiny else list(SOS_SHAPES)
    sizes = [4] if tiny else list(TRACE_SIZES)
    rng.shuffle(shapes)
    items = []
    for k, (size, factors) in enumerate(shapes):
        E = F.grow_grounded(rng, [], size)
        f = F.hermitize(_with_margin(rng, _sos(rng, E, factors)))
        items.append(_certify_item("sos", f, E, d, seed * 1000 + k))
    for k, size in enumerate(sizes):
        E = F.grow_grounded(rng, [], size)
        f = _with_margin(rng, _sos(rng, E, 1 + k % 2))
        dom = sorted(F.quotients(E))
        for _ in range(rng.randint(1, 2)):
            # g a g^-1 - a keeps the support conjugate into E^-1 E
            a = rng.choice(dom)
            g = F.grow_grounded(rng, [], 3)[-1]
            alpha = _rc(rng)
            comm = {F.mul(F.mul(g, a), F.inv(g)): alpha}
            F.add_into(comm, {a: -alpha})
            F.add_into(f, comm)
            F.add_into(f, F.star(comm))
        items.append(_certify_item("trace", F.hermitize(f), E, d,
                                   seed * 1000 + 100 + k))
    E = F.grow_grounded(rng, [], rng.randint(2, 8))
    xi = {w: _rc(rng) for w in E}
    f = F.convolve(F.star(xi), xi)
    # xi^* xi - c with c above |sum xi|^2: negative at the trivial character
    F.add_into(f, {F.UNIT: -(abs(sum(xi.values())) ** 2 + rng.uniform(0.1, 1.0))})
    items.append(_certify_item("refute", F.hermitize(f), E, d, seed))
    return items


def certify_warmup(d: Path) -> list[Item]:
    rng = random.Random("certify:warmup")
    E = F.grow_grounded(rng, [], 4)
    return [_certify_item("sos", F.hermitize(_sos(rng, E, 1)), E, d, 0)]


# ------------------------------------------------------------------- bell

def correlator_functional(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return w[:, :, None, None] * sign[None, None, :, :]


def relabel(rng: random.Random, w: np.ndarray) -> np.ndarray:
    """A correlator matrix under a seeded relabelling (setting permutations,
    outcome flips, party swap), which keeps its classical and quantum
    values."""
    d = w.shape[0]
    w = w[rng.sample(range(d), d)][:, rng.sample(range(d), d)]
    w = w * np.array([rng.choice([-1.0, 1.0]) for _ in range(d)])[:, None]
    w = w * np.array([rng.choice([-1.0, 1.0]) for _ in range(d)])[None, :]
    return w.T if rng.random() < 0.5 else w


CHSH = np.array([[1.0, 1.0], [1.0, -1.0]])
CHSH_QUANTUM = 2.0 * np.sqrt(2.0)
# chained inequality, three settings: <A1B1> + <A2B1> + <A2B2> + <A3B2>
# + <A3B3> - <A1B3>; classical 4, quantum 6 cos(pi/6) = 3 sqrt(3)
CHAINED3 = np.array([[1.0, 0.0, -1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
CHAINED3_QUANTUM = 3.0 * np.sqrt(3.0)


def cglmp3() -> np.ndarray:
    """The CGLMP functional for two settings and three outcomes."""
    m = 3
    c = np.zeros((2, 2, m, m))
    for a in range(m):
        for b in range(m):
            # P(A1 = B1) + P(B1 = A2 + 1) + P(A2 = B2) + P(B2 = A1), minus
            # the same events shifted by one
            c[0, 0, a, b] += (a == b) - (b == (a - 1) % m)
            c[1, 0, a, b] += (b == (a + 1) % m) - (b == a)
            c[1, 1, a, b] += (a == b) - (a == (b - 1) % m)
            c[0, 1, a, b] += (b == a) - (b == (a - 1) % m)
    return c


def _bell_item(kind: str, c: np.ndarray, levels, inner_args, d: Path,
               quantum: float | None = None, tol: str | None = None) -> Item:
    """bell-outer at each level plus bell-inner for one functional; with
    ``quantum`` the checks also pin both bounds to that known value."""
    dd, _, m, _ = c.shape
    spath = str(d / "functional.json")
    steps = []
    for lvl in levels:
        argv = ["bell-outer", "--scenario", spath, "--level", lvl,
                "--out", str(d / f"outer_{lvl}.json")]
        if tol is not None:
            argv += ["--tol", tol]
        steps.append((argv, 0))
    steps.append((["bell-inner", "--scenario", spath, "--out",
                   str(d / "inner.json")] + inner_args, 0))

    def check(outs):
        outer = {lvl: _read(d / f"outer_{lvl}.json") for lvl in levels}
        if tol is None:
            C.check_bell(c, outer, _read(d / "inner.json"), quantum)
    files = {"functional.json": {"d": dd, "m": m, "coeff": c.tolist()}}
    return Item(kind, files, steps, check)


def bell_round(seed: int, r: int, d: Path, tiny: bool = False) -> list[Item]:
    """The 3-setting chained inequality at 1ab (n = 16) and CHSH at levels
    1, 1ab and 2, both under a seeded relabelling and each with a dim-2
    see-saw from a seeded start; the fixed CGLMP functional at level 1 with
    a two-step see-saw whose updates are SDPs.

    Relabelling keeps a functional's values and its cost (30525 iterations
    for the chained one whatever the relabelling), so the median item is
    always CHSH, between the chained item and CGLMP."""
    rng = random.Random(f"bell:{seed}:{r}")
    base = rng.randrange(1 << 30)

    def inner2(k):
        return ["--dim", "2", "--iters", "50", "--restarts", "4",
                "--seed", str(base + k)]
    chsh = correlator_functional(relabel(rng, CHSH))
    if tiny:
        return [_bell_item("chsh", chsh, ["1"], inner2(0), d, CHSH_QUANTUM)]
    chained = correlator_functional(relabel(rng, CHAINED3))
    return [
        _bell_item("chained3", chained, ["1ab"], inner2(1), d,
                   CHAINED3_QUANTUM),
        _bell_item("chsh", chsh, ["1", "1ab", "2"], inner2(0), d,
                   CHSH_QUANTUM),
        # fixed functional and see-saw seed: a seeded 3-outcome functional
        # moves this item alone by 12-45 s
        _bell_item("cglmp", cglmp3(), ["1"],
                   ["--dim", "2", "--iters", "2", "--restarts", "1",
                    "--seed", "2"], d),
    ]


def bell_warmup(d: Path) -> list[Item]:
    return [_bell_item("chsh", correlator_functional(CHSH), ["1"],
                       ["--dim", "2", "--iters", "5", "--restarts", "1",
                        "--seed", "1"], d, tol="1e-2")]


# ------------------------------------------------------------- extend_gns

def positive_type(rng: random.Random, E, dim: int) -> dict:
    """g = (1 - lam) <pi(w) xi, xi> + lam delta_e on E^-1 E, for a random
    unitary pi, a unit xi and lam in [0.05, 0.1], symmetrized so that
    g(w^-1) == conj(g(w)) exactly and g(e) = 1.

    The delta_e share keeps the Toeplitz matrix of full rank: on the
    rank-deficient functions of a bare dim-1..4 representation, about one
    extension in 1500 to 12-24 words exits 1 with "completion failed to stay
    PSD" (see CHANGES.md), and an operation that fails on some seeds only
    cannot be counted steadily."""
    nrng = np.random.default_rng(rng.randrange(1 << 62))
    U = F.random_rep(2, dim, nrng)
    xi = nrng.standard_normal(dim) + 1j * nrng.standard_normal(dim)
    xi /= np.linalg.norm(xi)
    lam = rng.uniform(0.05, 0.1)
    dom = F.quotients(E)
    raw = {w: (1.0 - lam) * complex(np.vdot(xi, F.rep_word(U, w) @ xi))
           for w in dom}
    vals = {w: 0.5 * (raw[w] + raw[F.inv(w)].conjugate()) for w in dom}
    vals[F.UNIT] = 1.0 + 0j
    return vals


def _extend_item(rng: random.Random, d: Path, size: int, target: int) -> Item:
    E = F.grow_grounded(rng, [], size)
    vals = positive_type(rng, E, rng.randint(1, 4))
    Fset = F.grow_grounded(rng, E, target)
    targets = [w for w in Fset if w not in set(E)]
    given = {
        "group": {"kind": "free", "d": 2},
        "domain": [F.fmt(w) for w in E],
        "values": [{"word": F.fmt(w), "re": v.real, "im": v.imag}
                   for w, v in sorted(vals.items())],
    }
    gpath, epath, npath = (str(d / n) for n in ("g.json", "ext.json", "gns.json"))
    steps = [(["extend", "--input", gpath, "--target",
               ",".join(F.fmt(w) for w in targets), "--out", epath], 0),
             (["gns", "--input", epath, "--out", npath], 0)]

    def check(outs):
        C.check_extension(given, targets, _read(Path(epath)),
                          _read(Path(npath)))
    return Item("extend", {"g.json": given}, steps, check)


# (domain size, extended size) of the items in every round
EXTEND_SHAPES = [(4, 12), (5, 14), (6, 15), (7, 17), (8, 19), (4, 21),
                 (6, 22), (8, 24)]


def extend_round(seed: int, r: int, d: Path, tiny: bool = False) -> list[Item]:
    """8 positive-type functions on 4-8 words, each extended to 12-24 words
    and then turned into GNS data (no SDP is involved)."""
    rng = random.Random(f"extend_gns:{seed}:{r}")
    shapes = [(3, 6), (4, 8)] if tiny else list(EXTEND_SHAPES)
    rng.shuffle(shapes)
    return [_extend_item(rng, d, size, target) for size, target in shapes]


def extend_warmup(d: Path) -> list[Item]:
    return [_extend_item(random.Random("extend_gns:warmup"), d, 4, 8)]


ROUNDS = {"certify": certify_round, "bell": bell_round,
          "extend_gns": extend_round}
WARMUPS = {"certify": certify_warmup, "bell": bell_warmup,
           "extend_gns": extend_warmup}
