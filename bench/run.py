"""freecert benchmark: drives the public CLI in-process on seeded inputs and
checks every output independently.

Usage (from the repository root):

    python3 bench/run.py --workload {certify,bell,extend_gns} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it times whole rounds of items until ``S`` seconds of
item time have passed and prints the end-to-end metrics. With ``--trace 1``
it runs a fixed number of rounds twice, untraced and then traced, and prints
the per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_runs"

SETUP_PROBES = 5
PROBE_REF_S = 0.005
# rounds of the traced run: fixed, so that its counts repeat exactly
TRACE_ROUNDS = {"certify": 10, "bell": 1, "extend_gns": 6}


class ItemFailed(Exception):
    """A CLI step raised or exited with an unexpected code."""


def _run_steps(cli_main, steps) -> list[str]:
    outs = []
    for argv, expected in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli_main(argv)
            except Exception as exc:  # a traceback is a failed operation
                raise ItemFailed(f"{argv[0]}: {type(exc).__name__}: {exc}") from exc
        if code != expected:
            raise ItemFailed(f"{argv[0]} exited {code}, expected {expected}: "
                             f"{err.getvalue().strip()[:200]}")
        outs.append(buf.getvalue())
    return outs


class Runner:
    """Runs items of one workload and keeps the tallies."""

    def __init__(self, workload: str, seed: int, workdir: Path, tiny: bool):
        from freecert import cli

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.cli_main = cli.main
        self.attempted = 0
        self.failed = 0
        self.spent = 0.0
        self.errors: list[str] = []

    def round(self, r: int):
        return W.ROUNDS[self.workload](self.seed, r, self.workdir, self.tiny)

    def run_item(self, item) -> float | None:
        """Item wall time in seconds, or None when it failed. Input files
        are written before and outputs checked after the timed part."""
        item.write_inputs(self.workdir)
        self.attempted += 1
        t0 = perf_counter()
        try:
            outs = _run_steps(self.cli_main, item.steps)
        except ItemFailed as exc:
            self.spent += perf_counter() - t0
            self.failed += 1
            self.errors.append(f"failed {item.kind}: {exc}")
            return None
        elapsed = perf_counter() - t0
        self.spent += elapsed
        try:
            item.check(outs)
        except W.C.CheckError as exc:
            self.errors.append(f"wrong {item.kind}: {exc}")
        return elapsed

    def run_items(self, items) -> float:
        return sum(self.run_item(item) or 0.0 for item in items)

    def warm_up(self):
        for item in W.WARMUPS[self.workload](self.workdir):
            item.write_inputs(self.workdir)
            _run_steps(self.cli_main, item.steps)


def measure_setup(workload: str, workdir: Path, probes: int) -> list[float]:
    """Cold starts in fresh processes; the first one (which may compile
    bytecode) is not counted."""
    probe_dir = workdir / "setup"
    probe_dir.mkdir(parents=True, exist_ok=True)
    steps_path = probe_dir / "steps.json"
    steps = []
    for item in W.WARMUPS[workload](probe_dir):
        item.write_inputs(probe_dir)
        steps.extend(item.steps)
    W.write_json(steps_path, steps)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for k in range(probes + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(steps_path)],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        if k:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                           ["setup_s"])
    return samples


def percentile_summary(times_ms: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above
    it (none below forty samples)."""
    out = {"samples": len(times_ms), "p50_ms": statistics.median(times_ms)}
    if len(times_ms) >= 40:
        ordered = sorted(times_ms)
        for p in (99.9, 99, 90):
            if len(ordered) * (1 - p / 100) >= 10:
                out[f"p{p:g}_ms"] = ordered[int(len(ordered) * p / 100)]
                break
    return out


def probe() -> float:
    """Seconds taken by a fixed calibration kernel that is none of
    freecert's (median of three): small complex eigensolves in numpy and
    free-group convolution in pure Python, the two kinds of work the items
    are made of. It tells how fast the machine runs at the moment."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(150):
            w, U = np.linalg.eigh(_PROBE_MATRIX)
            (U * np.maximum(w, 0.0)) @ U.conj().T
        W.F.convolve(W.F.star(_PROBE_ELEMENT), _PROBE_ELEMENT)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


_rng = np.random.default_rng(0)
_PROBE_MATRIX = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.conj().T
_PROBE_ELEMENT = {w: complex(k, 1) for k, w in enumerate(
    W.F.grow_grounded(random.Random(0), [], 12))}


def timed_run(runner: Runner, seconds: float, setup: list[float]) -> dict:
    """Item times are scaled to a machine on which ``probe()`` takes
    PROBE_REF_S, using the mean of the probes run just before and just
    after each item: the speed of this machine drifts by a third for
    identical work (see README), far more than a bound could allow."""
    raw: list[float] = []
    scaled: list[float] = []
    probes = [probe()]
    by_kind: dict[str, list[float]] = {}
    r = 0
    while r == 0 or runner.spent < seconds:
        for item in runner.round(r):
            t = runner.run_item(item)
            probes.append(probe())
            if t is not None:
                raw.append(t)
                scaled.append(t * PROBE_REF_S / (0.5 * (probes[-2] + probes[-1])))
                by_kind.setdefault(item.kind, []).append(1000.0 * t)
        r += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spent_scaled = sum(scaled) + (runner.spent - sum(raw)) * (
        PROBE_REF_S / statistics.median(probes))
    scaled_ms = [1000.0 * t for t in scaled] or [0.0]
    raw_ms = [1000.0 * t for t in raw] or [0.0]
    return {
        "metrics": {
            "items_per_s": {"value": len(scaled) / spent_scaled, "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(scaled_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
        "detail": {"rounds": r,
                   "raw_items_per_s": len(raw) / runner.spent,
                   "raw_item_times": percentile_summary(raw_ms),
                   "scaled_item_times": percentile_summary(scaled_ms),
                   "probe_median_s": statistics.median(probes),
                   "raw_kind_p50_ms": {k: statistics.median(v)
                                       for k, v in by_kind.items()},
                   "setup_samples_s": setup},
    }


def traced_run(runner: Runner, rounds: int, trace_path: Path) -> dict:
    import tracer as T
    from freecert import cli

    items = [item for r in range(rounds) for item in runner.round(r)]
    untraced = runner.run_items(items)

    tr = T.Tracer()
    tr.install()
    runner.cli_main = tr.wrap("cli.main", cli.main)
    traced = 0.0
    try:
        for item_id, item in enumerate(items):
            tr.item_id = item_id
            traced += runner.run_item(item) or 0.0
    finally:
        tr.uninstall()
        runner.cli_main = cli.main
    tr.save(trace_path)
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in T.layer_metrics(tr).items()}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return {"metrics": metrics,
            "detail": {"rounds": rounds, "untraced_s": untraced,
                       "traced_s": traced, "trace_file": str(trace_path)}}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, setup_probes: int = SETUP_PROBES,
        trace_rounds: int | None = None) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if trace else measure_setup(workload, workdir, setup_probes)
        runner = Runner(workload, seed, workdir, tiny)
        runner.warm_up()
        if trace:
            rounds = trace_rounds or TRACE_ROUNDS[workload]
            body = traced_run(runner, rounds,
                              OUT / f"trace-{workload}-{seed}.npz")
        else:
            body = timed_run(runner, seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": body["metrics"]}
    detail = dict(body["detail"], workload=workload, seed=seed,
                  errors=runner.errors[:20])
    with open(OUT / f"result-{workload}-{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    for line in runner.errors[:20]:
        print(line, file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "freecert" / "cli.py").is_file():
        print(f"error: freecert sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(1, str(SRC))
    sys.exit(main())
