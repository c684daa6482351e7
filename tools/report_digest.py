"""Digest of every CLI output on the benchmark's inputs: run it on two
checkouts to see whether a change keeps the program's output byte for byte.

Usage (from the repository root):

    python3 tools/report_digest.py SRC_DIR

SRC_DIR is the `src` directory of the checkout to run (this one's, or that
of a copy of another commit). The items come from `bench/workloads.py` of
this checkout: every CLI step of seeds 901-903, rounds 0-1, of each
workload, run in process, plus a rerun of each `certify`, `certify-trace`
and `bell-outer` step with `--dump-sdp`, and `falsify` in operator and
trace modes (seeded) on the element of each `certify` and `certify-trace`
step. A `complete` entry adds `complete` on seeded PSD block files, one of
them with an empty block. A `failures` entry adds two runs that exit 1:
`extend` on a seeded positive-type function whose unit value is lowered
just outside the cone, so that its chain fails, and `gns` on one lowered
further, which fails its PSD check. Every subcommand but `selftest` is
covered. A step's hash covers its argv, exit code, stdout, stderr without
the wall-time line, and every file in the item directory after it, with
the temporary directory's path replaced by a fixed name (reports echo
`--out`). Prints one SHA-256 per entry and one over all of them; writes
only under a temporary directory.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, as in the benchmark: set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (901, 902, 903)
ROUNDS = (0, 1)
DUMPED = ("certify", "certify-trace", "bell-outer")
FALSIFIED = ("certify", "certify-trace")
FALSIFY = ("--samples", "30", "--seed", "7")
# (seed, sizes of the blocks A, B and C, rank) of the PSD matrices whose
# blocks `complete` reads; a rank below the size makes B singular
COMPLETE = ((1, (2, 3, 2), 7), (2, (3, 2, 4), 3), (3, (1, 4, 2), 2),
            (4, (3, 2, 0), 5))
# the domain and the targets of an extension chain through near-singular
# middle blocks, (seed, dim) of the representation whose positive-type
# function on it the `failures` entry lowers, and the lowerings of its unit
# value for `extend` and for `gns`
LOWERED_E = ("e", "g2", "g1^-1 g2", "g2^-1", "g1^-1 g2^-1")
LOWERED_T = ("g1^-1", "g2^-1 g1^-1", "g1^-2 g2", "g2^-1 g1^-1 g2^-1",
             "g1^-1 g2^-1 g1^-1 g2^-1", "g2^-1 g1^-2 g2", "g2^-2 g1^-1 g2^-1")
LOWERED = (2, 2)
LOWER_EXTEND, LOWER_GNS = 5e-9, 1e-6
TMP = b"$TMP"


def _field(data: bytes) -> bytes:
    """data with its length in front, so that fields cannot run together."""
    return b"%d:" % len(data) + data


def _step(main, argv, d: Path) -> bytes:
    """The record of one CLI call: argv, exit code, stdout, stderr without
    the wall-time line, then the name and bytes of every file in d."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except Exception as exc:  # a traceback is output too
            code = f"raised {type(exc).__name__}: {exc}"
    err_lines = [line for line in err.getvalue().splitlines(keepends=True)
                 if not line.startswith("wall time: ")]
    parts = [p.encode() for p in ("\0".join(argv), code, out.getvalue(),
                                  "".join(err_lines))]
    for path in sorted(d.iterdir()):
        parts += [path.name.encode(), path.read_bytes()]
    return b"".join(_field(p.replace(bytes(d), TMP)) for p in parts)


def _bench_jobs(workloads, name: str, d: Path):
    """(input files, CLI calls) of each item of the workload: every step,
    followed by its --dump-sdp rerun and, on a certify step, by falsify on
    its element in both modes."""
    for seed in SEEDS:
        for r in ROUNDS:
            for item in workloads.ROUNDS[name](seed, r, d):
                runs = []
                for argv, _ in item.steps:
                    runs.append(argv)
                    if argv[0] in DUMPED:
                        runs.append([*argv, "--dump-sdp",
                                     str(d / "sdp.json")])
                    if argv[0] in FALSIFIED:
                        element = argv[argv.index("--input") + 1]
                        runs += [["falsify", "--input", element, "--mode",
                                  mode, *FALSIFY]
                                 for mode in ("operator", "trace")]
                yield item.files, runs


def _blocks(seed: int, sizes, rank: int) -> dict:
    """The blocks A, X, B, Y and C of a seeded PSD matrix of the given
    rank: each entry as [re, im], but the diagonal of A, B and C as plain
    numbers."""
    rng = np.random.default_rng(seed)
    shape = (sum(sizes), rank)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M = G @ G.conj().T
    a, b = sizes[0], sizes[0] + sizes[1]
    cut = {"A": M[:a, :a], "X": M[:a, a:b], "B": M[a:b, a:b],
           "Y": M[a:b, b:], "C": M[b:, b:]}
    return {k: [[z.real if k in "ABC" and i == j else [z.real, z.imag]
                 for j, z in enumerate(row)]
                for i, row in enumerate(v.tolist())]
            for k, v in cut.items()}


def _complete_jobs(d: Path):
    for seed, sizes, rank in COMPLETE:
        yield ({"blocks.json": _blocks(seed, sizes, rank)},
               [["complete", "--blocks", str(d / "blocks.json")]])


def _lowered(F, delta: float) -> dict:
    """<pi(w) xi, xi> on E^-1 E for a seeded unitary pi and unit xi,
    symmetrized, its unit value 1 - delta: a function of rank <= dim just
    outside the PSD cone."""
    seed, dim = LOWERED
    rng = np.random.default_rng(seed)
    U = F.random_rep(2, dim, rng)
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xi /= np.linalg.norm(xi)
    raw = {w: complex(np.vdot(xi, F.rep_word(U, w) @ xi))
           for w in F.quotients([F.parse(t) for t in LOWERED_E])}
    vals = {w: 0.5 * (raw[w] + raw[F.inv(w)].conjugate()) for w in raw}
    vals[F.UNIT] = complex(1.0 - delta)
    return {"group": {"kind": "free", "d": 2}, "domain": list(LOWERED_E),
            "values": [{"word": F.fmt(w), "re": v.real, "im": v.imag}
                       for w, v in sorted(vals.items())]}


def _failure_jobs(F, d: Path):
    yield ({"g.json": _lowered(F, LOWER_EXTEND)},
           [["extend", "--input", str(d / "g.json"), "--target",
             ",".join(LOWERED_T)]])
    yield ({"g.json": _lowered(F, LOWER_GNS)},
           [["gns", "--input", str(d / "g.json")]])


def digest(workloads, main, root: Path) -> dict[str, tuple[int, str]]:
    """(steps, SHA-256) of each workload, of `complete` and of `failures`,
    and of all of them under "all"."""
    jobs = {name: functools.partial(_bench_jobs, workloads, name)
            for name in workloads.WORKLOADS}
    jobs["complete"] = _complete_jobs
    jobs["failures"] = functools.partial(_failure_jobs, workloads.F)
    total, out = hashlib.sha256(), {}
    steps = 0
    for name, make in jobs.items():
        h, count = hashlib.sha256(), 0
        d = root / name
        for files, runs in make(d):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            for fname, obj in files.items():
                workloads.write_json(d / fname, obj)
            for run in runs:
                record = _field(_step(main, run, d))
                h.update(record)
                total.update(record)
                count += 1
        out[name] = (count, h.hexdigest())
        steps += count
    out["all"] = (steps, total.hexdigest())
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/report_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "freecert" / "cli.py").is_file():
        print(f"error: no freecert sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    from freecert import cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: freecert was imported from {cli.__file__}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="report_digest_") as tmp:
        result = digest(workloads, cli.main, Path(tmp).resolve())
    for name, (count, sha) in result.items():
        print(f"{name:<11} {count:4d} steps  {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
