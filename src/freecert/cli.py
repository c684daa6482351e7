"""Command-line front end: certificates, extensions, completions,
falsification, GNS data, and Bell bounds over stable JSON formats.

Exit codes: 0 success, 2 mathematically negative answer (refutation,
falsification, failed verification), 1 input or usage errors, unreadable
inputs, unwritable --out or --dump-sdp paths (the line starts with the
path) and any library ValueError or SdpError, which `main` alone turns into
one `error:` line. Each input is read once; a report's `inputs` is the
SHA-256 of the bytes parsed, then of the flags. Randomized subcommands take
a seed and print it back; reports are byte-identical for identical inputs
and seeds (wall time goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from . import selftest
from .algebra import (complex_from_json, element_from_json, element_to_json,
                      json_float)
from .bell import (
    OUTER_DEFAULT_TOL,
    BellFunctional,
    BellScenario,
    correlation_of,
    inner_bound,
    moment_instance,
    outer_bound,
    parse_level,
)
from .certify import (
    CERTIFY_DEFAULT_TOL,
    NotCertified,
    TraceCertificate,
    certificate_from_json,
    certificate_to_json,
    certify_sos,
    certify_trace,
    falsify,
    gram_instance,
    verify_sos,
    verify_trace,
)
from .denselin import PartialBlockMatrix, complete_block, psd_floor
from .extendpt import PartialPositiveType, extend_to, partial_positive_type
from .gnsrep import gns
from .grounded import grounded_hull, grounded_set
from .sdpcore import SdpError, instance_to_json
from .words import GroupSpec, WordReader, format_word, json_int

__all__ = ["main"]


class InputError(Exception):
    """Bad file contents or arguments; mapped to exit code 1."""


def _load(path, parse):
    """parse(obj) of the JSON document in the file at `path`, and the bytes
    read. A fault of the file, of its UTF-8 or JSON text or of what parse
    finds in it becomes one InputError that starts with the path."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return parse(json.loads(raw.decode("utf-8"))), raw
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _digest(raws, extra=""):
    return hashlib.sha256(b"".join((*raws, extra.encode()))).hexdigest()


_SEQUENCES = (list, tuple)
# json's spelling of the floats whose repr is not a JSON number
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.cache
def _newline(level: int) -> str:
    return "\n" + "  " * level


def _float_array_text(seq, level: int) -> str | None:
    """The text of a regular nested list (or tuple) of floats that starts
    at indentation `level`, or None when `seq` is anything else.

    The leaves are formatted by one map of float.__repr__ and joined with
    their separators in one pass: the separator after a leaf that ends r
    innermost lists closes them, writes the comma and reopens r lists.
    The separators hold no letters, so non-finite leaves can be respelled
    afterwards.
    """
    shape = []
    x = seq
    while isinstance(x, _SEQUENCES):
        if not x:
            return None
        shape.append(len(x))
        x = x[0]
    flat = seq
    for d in shape[1:]:
        if (not all(issubclass(t, _SEQUENCES) for t in set(map(type, flat)))
                or set(map(len, flat)) != {d}):
            return None
        flat = list(itertools.chain.from_iterable(flat))
    try:
        leaves = list(map(float.__repr__, flat))
    except TypeError:  # a leaf that is not a float
        return None
    k = len(shape)
    nl = [_newline(level + j) for j in range(k + 1)]
    opens = ["".join("[" + nl[j] for j in range(k - r + 1, k + 1))
             for r in range(k + 1)]
    closes = ["".join(nl[k - 1 - j] + "]" for j in range(r))
              for r in range(k + 1)]
    seps: tuple = ()
    for r, d in enumerate(reversed(shape)):
        seps = ((*seps, closes[r] + "," + nl[k - r] + opens[r]) * d)[:-1]
    text = opens[k] + "".join(map(operator.add, leaves,
                                  (*seps, closes[k])))
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _scalar_text(obj) -> str | None:
    """The JSON text of a str, None, bool, int or float (subclasses
    included, as json reads them), or None for anything else."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    return None


def _encode(obj, level: int, out: list):
    text = _scalar_text(obj)
    if text is None and isinstance(obj, _SEQUENCES):
        text = _float_array_text(obj, level) if obj else "[]"
    if text is not None:
        out.append(text)
        return
    if not isinstance(obj, (list, tuple, dict)):
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        f"is not JSON serializable")
    if not obj:  # an empty dict: empty lists were written above
        out.append("{}")
        return
    sep = "," + _newline(level + 1)
    if isinstance(obj, dict):
        out.append("{" + _newline(level + 1))
        for i, (key, value) in enumerate(sorted(obj.items())):
            text = key if isinstance(key, str) else _scalar_text(key)
            if text is None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            if i:
                out.append(sep)
            out.append(encode_basestring_ascii(text) + ": ")
            _encode(value, level + 1, out)
        out.append(_newline(level) + "}")
    else:
        out.append("[" + _newline(level + 1))
        for i, value in enumerate(obj):
            if i:
                out.append(sep)
            _encode(value, level + 1, out)
        out.append(_newline(level) + "]")


def json_text(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), the format of
    every report and file the CLI writes.

    json runs its pure-Python encoder once `indent` is set; this writer
    recurses only over dicts and lists and formats each regular nested
    list of floats (matrix rows, [re, im] pairs, stacks of matrices) in
    bulk. Objects are assumed acyclic.
    """
    out: list[str] = []
    _encode(obj, 0, out)
    return "".join(out)


def _emit(report: dict, out_path: str | None):
    text = json_text(report)
    if not out_path:
        print(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"{out_path}: {exc.strerror or exc}") from exc


def _parse_words(read: WordReader, blob: str):
    return [read(tok.strip()) for tok in blob.split(",") if tok.strip()]


def _element(obj):
    """The element of obj and the reader of its words, which goes on to
    read the words given on the command line."""
    read = WordReader(GroupSpec.from_json(obj["group"]))
    return element_from_json(obj, read), read


def _certificate(obj):
    read = WordReader(GroupSpec.from_json(obj["group"]))
    return certificate_from_json(obj, read), read


def _support_set(f, read: WordReader, blob: str | None):
    try:
        if blob is None or blob == "auto":
            return grounded_hull(f.spec, f.terms.keys())
        return grounded_set(f.spec, set(_parse_words(read, blob)))
    except ValueError as exc:
        raise InputError(f"--support: {exc}") from exc


def _partial(obj) -> tuple[PartialPositiveType, WordReader]:
    read = WordReader(GroupSpec.from_json(obj["group"]))
    E = grounded_set(read.spec, {read(s) for s in obj["domain"]})
    values = {}
    for t in obj["values"]:
        w = read(t["word"])
        if w in values:
            raise ValueError(f"values: word {format_word(w)} is listed twice")
        values[w] = complex_from_json(t)
    return partial_positive_type(E, values), read


def _partial_to_json(g: PartialPositiveType) -> dict:
    values = [{"word": format_word(w), "re": v.real, "im": v.imag}
              for w, v in g.values.items()]
    values.sort(key=lambda t: t["word"])
    return {
        "group": g.spec.to_json(),
        "domain": [format_word(w) for w in g.E],
        "values": values,
    }


def _matrix_to_json(M):
    A = np.atleast_2d(M)
    return np.stack((A.real, A.imag), axis=-1).tolist()


def _entry(e) -> complex:
    """A block entry: a JSON number or [re, im], finite."""
    re, im = e if isinstance(e, list) and len(e) == 2 else (e, 0)
    z = complex(json_float(re), json_float(im))
    if not np.isfinite(z):
        raise ValueError(f"non-finite entry {e!r}")
    return z


def _matrix_from_json(rows, what):
    try:
        M = np.array([[_entry(e) for e in row] for row in rows],
                     dtype=complex)
    except (TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what}: malformed matrix ({exc})") from exc
    return M if M.size else M.reshape((len(rows), 0) if rows else (0, 0))


def _blocks(obj) -> PartialBlockMatrix:
    A, X, B, Y, C = (_matrix_from_json(obj[k], k) for k in "AXBYC")
    # JSON writes an empty n x 0 or 0 x n matrix as [] or [[]]: an empty X
    # or Y takes its shape from the diagonal blocks beside it
    X, Y = (M.reshape(len(P), len(R)) if M.size == len(P) * len(R) == 0
            else M for M, P, R in ((X, A, B), (Y, B, C)))
    return PartialBlockMatrix(A, X, B, Y, C)


def _functional(obj):
    d, m = (json_int(obj[k], k) for k in "dm")
    entries = np.asarray(obj["coeff"], dtype=object)
    coeff = np.fromiter(map(json_float, entries.flat), float, entries.size)
    return BellScenario(d, m), BellFunctional(coeff.reshape(d, d, m, m))


def _cmd_certify(args, trace: bool):
    (f, read), raw = _load(args.input, _element)
    E = _support_set(f, read, args.support)
    runner = certify_trace if trace else certify_sos
    built = gram_instance(f, E, args.epsilon, trace)
    result = runner(f, E, epsilon=args.epsilon, tol=args.tol, instance=built)
    if args.dump_sdp:  # the instance that was solved
        _emit(instance_to_json(built[0]), args.dump_sdp)
    report = {
        "command": "certify-trace" if trace else "certify",
        "inputs": _digest([raw], f"{args.support}|{args.epsilon}|{args.tol}"),
        "epsilon": args.epsilon,
        "tol": args.tol,
        "support": [format_word(w) for w in E],
    }
    if isinstance(result, NotCertified):
        report["certified"] = False
        report["solver"] = dataclasses.asdict(result)
        _emit(report, args.out)
        return 2
    report["certified"] = True
    report["residual"] = result.residual
    report["factors"] = len(result.factors)
    if args.out:
        _emit(certificate_to_json(result), args.out)
        report["certificate"] = args.out
    else:
        report["certificate"] = certificate_to_json(result)
    _emit(report, None)
    return 0


def _cmd_verify(args):
    (cert, read), cert_raw = _load(args.cert, _certificate)
    f, raw = _load(args.input, functools.partial(element_from_json,
                                                  read=read))
    trace = isinstance(cert, TraceCertificate)
    try:
        checked = verify_trace(cert, f) if trace else verify_sos(cert, f)
    except ValueError as exc:  # a certificate over another group than f
        raise InputError(f"{args.cert}: {exc}") from exc
    if trace:
        residual = max((abs(v) for v in checked.values()), default=0.0)
        detail = {format_word(w): [v.real, v.imag] for w, v in checked.items()}
        report = {"command": "verify", "kind": "trace", "residual": residual,
                  "class_residuals": detail}
    else:
        residual = checked
        report = {"command": "verify", "kind": "sos", "residual": residual}
    report["inputs"] = _digest([cert_raw, raw], str(args.tol))
    report["tol"] = args.tol
    report["ok"] = residual <= args.tol
    _emit(report, args.out)
    return 0 if residual <= args.tol else 2


def _cmd_extend(args):
    (g, read), _ = _load(args.input, _partial)
    targets = _parse_words(read, args.target)
    F = grounded_set(g.spec, g.E.as_set() | set(targets))
    out = extend_to(g, F)
    report = _partial_to_json(out)
    _emit(report, args.out)
    return 0


def _cmd_complete(args):
    P, raw = _load(args.blocks, _blocks)
    Z, full = complete_block(P)
    report = {
        "command": "complete",
        "inputs": _digest([raw]),
        "Z": _matrix_to_json(Z),
        "full": _matrix_to_json(full),
        "psd_floor": psd_floor(full),
    }
    _emit(report, args.out)
    return 0


def _cmd_falsify(args):
    (f, _), raw = _load(args.input, _element)
    try:
        dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"--dims: {exc}") from exc
    if not dims or min(dims) < 1:
        raise InputError("--dims entries must be >= 1")
    report = falsify(f, args.mode, dims, args.samples, args.seed)
    falsified = report.worst < -10.0 * args.tol
    out = {
        "command": "falsify",
        "inputs": _digest([raw], f"{args.mode}|{args.dims}|"
                          f"{args.samples}|{args.seed}|{args.tol}"),
        "mode": args.mode,
        "samples": args.samples,
        "dims": dims,
        "seed": args.seed,
        "worst": report.worst,
        "falsified": falsified,
        "witness_dim": report.witness.dim,
    }
    _emit(out, args.out)
    return 2 if falsified else 0


def _cmd_gns(args):
    (g, _), raw = _load(args.input, _partial)
    data = gns(g)
    gens = {}
    for (i, sign), (L, mask) in sorted(data.gens.items()):
        gens[f"g{i}^{sign:+d}"] = {
            "matrix": _matrix_to_json(L),
            "mask": [bool(b) for b in mask],
        }
    report = {
        "command": "gns",
        "inputs": _digest([raw]),
        "support": [format_word(w) for w in data.E],
        "rank": data.rank,
        "gram": _matrix_to_json(data.gram),
        "basis": _matrix_to_json(data.basis),
        "coords": _matrix_to_json(data.coords),
        "generators": gens,
    }
    _emit(report, args.out)
    return 0


def _cmd_bell_outer(args):
    (scenario, functional), raw = _load(args.scenario, _functional)
    try:
        level = parse_level(args.level)
    except ValueError as exc:
        raise InputError(f"--{exc}") from exc
    inst = None
    if args.dump_sdp:
        # the dumped instance is the one solved
        inst, _ = moment_instance(scenario, functional, level)
        _emit(instance_to_json(inst), args.dump_sdp)
    try:
        res = outer_bound(scenario, functional, level, tol=args.tol,
                          instance=inst)
    except SdpError as exc:
        raise InputError(f"the moment relaxation was not solved at --tol "
                         f"{args.tol:g}: {exc}") from exc
    report = {
        "command": "bell-outer",
        "inputs": _digest([raw], f"{args.level}|{args.tol}"),
        "level": str(args.level),
        "tol": args.tol,
        "value": res.value,
        "solver": {"matrix_size": len(res.b), "iterations": res.iterations,
                   "gap": res.gap, "psd_floor": psd_floor(res.b)},
    }
    _emit(report, args.out)
    return 0


def _cmd_bell_inner(args):
    (scenario, functional), raw = _load(args.scenario, _functional)
    try:
        value, A, B, xi, info = inner_bound(
            scenario, functional, dim=args.dim, iters=args.iters,
            seed=args.seed, restarts=args.restarts)
    except SdpError as exc:
        raise InputError(f"a see-saw measurement update was not solved: "
                         f"{exc}") from exc
    corr = correlation_of(A, B, xi)
    pvm_residual = float(max(np.max(np.abs(P @ P - P))
                             for P in (A.settings, B.settings)))
    report = {
        "command": "bell-inner",
        "inputs": _digest([raw],
                          f"{args.dim}|{args.restarts}|{args.seed}|{args.iters}"),
        "dim": args.dim,
        "restarts": args.restarts,
        "iters": args.iters,
        "seed": args.seed,
        "value": value,
        "solver": info,
        "pvm_residual": pvm_residual,
        "state_norm_error": abs(float(np.linalg.norm(xi)) - 1.0),
        "correlation": corr.data.tolist(),
        "alice": _matrix_to_json(A.settings),
        "bob": _matrix_to_json(B.settings),
        "state": [[z.real, z.imag] for z in np.asarray(xi).reshape(-1)],
    }
    _emit(report, args.out)
    return 0


def _check_numbers(args):
    for name in ("tol", "epsilon"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise InputError(f"--{name} must be a finite number, got {value}")
    if getattr(args, "tol", 1.0) <= 0.0:
        raise InputError(f"--tol must be positive, got {args.tol}")
    if getattr(args, "iters", 0) < 0:
        raise InputError(f"--iters must be >= 0, got {args.iters}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")


def _cmd_selftest(args):
    ok = selftest.run_all(write=print)
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="freecert",
        description=("Positivity certificates in free group algebras and "
                     "bounds on quantum correlation sets"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="sum-of-hermitian-squares certificate")
    p.add_argument("--input", required=True, help="element JSON file")
    p.add_argument("--support", default="auto",
                   help="comma-separated grounded support words, or 'auto'")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=CERTIFY_DEFAULT_TOL)
    p.add_argument("--out", help="certificate output path")
    p.add_argument("--dump-sdp", help="write the Gram SDP instance JSON")
    p.set_defaults(fn=lambda a: _cmd_certify(a, trace=False))

    p = sub.add_parser("certify-trace", help="tracial certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--support", default="auto")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=CERTIFY_DEFAULT_TOL)
    p.add_argument("--out")
    p.add_argument("--dump-sdp")
    p.set_defaults(fn=lambda a: _cmd_certify(a, trace=True))

    p = sub.add_parser("verify", help="re-verify a certificate symbolically")
    p.add_argument("--cert", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("extend", help="positive-type extension on the tree")
    p.add_argument("--input", required=True,
                   help="partial function JSON with a 'domain' array")
    p.add_argument("--target", required=True,
                   help="comma-separated words to adjoin to the domain")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("complete", help="three-block positive completion")
    p.add_argument("--blocks", required=True,
                   help="JSON file with blocks A, X, B, Y, C")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("falsify", help="random-representation falsifier")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("operator", "trace"), default="operator")
    p.add_argument("--dims", default="1,2,4")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_falsify)

    p = sub.add_parser("gns", help="truncated GNS data of a positive-type "
                                   "function")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gns)

    p = sub.add_parser("bell-outer", help="moment hierarchy upper bound")
    p.add_argument("--scenario", required=True,
                   help="functional JSON: {d, m, coeff}")
    p.add_argument("--level", default="1ab")
    p.add_argument("--tol", type=float, default=OUTER_DEFAULT_TOL)
    p.add_argument("--out")
    p.add_argument("--dump-sdp")
    p.set_defaults(fn=_cmd_bell_outer)

    p = sub.add_parser("bell-inner", help="see-saw lower bound")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bell_inner)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        start = time.perf_counter()
        _check_numbers(args)
        code = args.fn(args)
    except (InputError, ValueError, SdpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wall time: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
