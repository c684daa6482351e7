"""Every subcommand but selftest, run in-process on mutated small valid
inputs and on drawn flag values: a rejected input exits 1 with one `error:`
line and no traceback, an accepted one repeats byte for byte, and every
certificate written passes `verify`."""

import cmath
import contextlib
import copy
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freecert.algebra import delta, element_to_json, one
from freecert.certify import certificate_to_json, certify_sos
from freecert.cli import main
from freecert.grounded import grounded_set
from freecert.words import free_group, generator, unit

F2 = free_group(2)


@functools.cache
def _documents():
    s1 = generator(F2, 1)
    f = one(F2) - delta(s1, 0.5) - delta(~s1, 0.5)
    cert = certify_sos(f, grounded_set(F2, {unit(F2), s1}))
    c = [[[[w * (-1) ** (i + j) for j in range(2)] for i in range(2)]
          for w in row] for row in ([1.0, 1.0], [1.0, -1.0])]
    return {
        "element": element_to_json(f),
        "certificate": certificate_to_json(cert),
        "partial": {"group": {"kind": "free", "d": 2},
                    "domain": ["e", "g1^1"],
                    "values": [{"word": "e", "re": 1.0, "im": 0.0},
                               {"word": "g1^1", "re": 0.5, "im": 0.25},
                               {"word": "g1^-1", "re": 0.5, "im": -0.25}]},
        "blocks": {"A": [[1.0]], "X": [[[0.5, 0.25]]], "B": [[1.0]],
                   "Y": [[[0.5, -0.25]]], "C": [[1.0]]},
        "functional": {"d": 2, "m": 2, "coeff": c},
    }


# the inputs each subcommand reads, by document name, and its other flags;
# {out} is the directory of the files it writes
COMMANDS = {
    "certify": ["--input", "{element}", "--out", "{out}/cert.json",
                "--dump-sdp", "{out}/sdp.json"],
    "certify-trace": ["--input", "{element}", "--out", "{out}/cert.json",
                      "--dump-sdp", "{out}/sdp.json"],
    "verify": ["--cert", "{certificate}", "--input", "{element}"],
    "extend": ["--input", "{partial}", "--target", "g1^2",
               "--out", "{out}/extended.json"],
    "complete": ["--blocks", "{blocks}"],
    "falsify": ["--input", "{element}", "--dims", "1,2", "--samples", "3",
                "--seed", "1"],
    "gns": ["--input", "{partial}"],
    "bell-outer": ["--scenario", "{functional}", "--level", "1",
                   "--dump-sdp", "{out}/sdp.json"],
    "bell-inner": ["--scenario", "{functional}", "--dim", "1",
                   "--restarts", "1", "--iters", "2", "--seed", "1"],
}
CASES = [(command, arg[1:-1]) for command, argv in COMMANDS.items()
         for arg in argv if arg[:1] == "{" and arg[-1:] == "}"]

_KEYS = ("kind", "d", "m", "left", "right", "word", "re", "im", "terms",
         "domain", "values", "coeff", "A", "X", "factors", "gram")
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=3),
    st.sampled_from(["e", "g1^1", "g2^-1", "g1^1 g2^1", "free",
                     "cyclic_free_product", "direct_product"]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_KEYS)
                                     | st.text(max_size=2), inner,
                                     max_size=3)),
    max_leaves=6)


def _paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, (*path, key))


def _retype(value):
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, str):
        return [value]
    if value is None:
        return {}
    return str(value)


@st.composite
def _mutated(draw, doc):
    """doc with one value, at any depth, replaced, dropped or retyped."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    ops = ("replace", "retype", "drop") if path else ("replace", "retype")
    op = draw(st.sampled_from(ops))
    if not path:
        return draw(_VALUES) if op == "replace" else _retype(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    else:
        parent[key] = (draw(_VALUES) if op == "replace"
                       else _retype(parent[key]))
    return doc


def _run(argv, out_dir: Path):
    for p in out_dir.iterdir():
        p.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, stdout.getvalue(), stderr.getvalue(), files


def _inputs(tmp: Path, name=None, doc=None) -> dict:
    """Write every document, `doc` in place of the one called `name`, and
    return the fields of COMMANDS: each document's path and {out}."""
    paths = {"out": str(tmp / "out")}
    (tmp / "out").mkdir()
    for key, value in _documents().items():
        paths[key] = str(tmp / f"{key}.json")
        Path(paths[key]).write_text(json.dumps(doc if key == name else value))
    return paths


def _check(argv, out_dir: Path):
    """Run argv once or twice and check the exit contract; return the exit
    code and the files written."""
    code, out, err, files = _run(argv, out_dir)
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.splitlines()
        assert out == "" and err.endswith("\n")
        assert lines[-1].startswith("error: ")
        assert not any(line.startswith("error:") for line in lines[:-1])
    else:
        again = _run(argv, out_dir)
        assert (again[0], again[1], again[3]) == (code, out, files)
    return code, files


def _check_reverifies(files, paths, tol=()):
    """The certificate in `files` passes `verify` on the element file."""
    cert = Path(paths["out"]).parent / "emitted.json"
    cert.write_bytes(files["cert.json"])
    code, _, err, _ = _run(["verify", "--cert", str(cert),
                            "--input", paths["element"], *tol],
                           Path(paths["out"]))
    assert code == 0, err


@pytest.mark.parametrize("command, name", CASES)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_mutated_input(command, name, data):
    doc = data.draw(_mutated(_documents()[name]), label=name)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _inputs(Path(tmp), name, doc)
        argv = [command] + [a.format(**paths) for a in COMMANDS[command]]
        code, files = _check(argv, Path(paths["out"]))
        if command.startswith("certify") and code == 0:
            _check_reverifies(files, paths)


def _margin_element(a, c):
    """1.5 - (g1 + g1^-1)/2 on {e, g1}, its unit term moved by a and its
    g1 term by c (g1^-1 by conj(c)): positive with margin 0.35 for |a|,
    |c| <= 0.05."""
    s1 = generator(F2, 1)
    f = (delta(unit(F2), 1.5 + a) + delta(s1, -0.5 + c)
         + delta(~s1, -0.5 + c.conjugate()))
    return element_to_json(f)


@pytest.mark.parametrize("command", ["certify", "certify-trace"])
def test_perturbed_positive_element_reverifies(command):
    """Hermitian perturbations of an element with margin: each run keeps
    the exit contract, and every certificate written passes `verify`."""
    codes = []

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(a=st.floats(-0.05, 0.05), r=st.floats(0.0, 0.05),
           angle=st.floats(-math.pi, math.pi))
    def run(a, r, angle):
        doc = _margin_element(a, cmath.rect(r, angle))
        with tempfile.TemporaryDirectory() as tmp:
            paths = _inputs(Path(tmp), "element", doc)
            argv = [command] + [x.format(**paths) for x in COMMANDS[command]]
            code, files = _check(argv, Path(paths["out"]))
            if code == 0:
                _check_reverifies(files, paths)
        codes.append(code)

    run()
    assert 0 in codes


def _counts(hi):
    """Text for a size flag: an integer of at most `hi`, or a non-integer."""
    return st.integers(-2, hi).map(str) | st.sampled_from(
        ["", "x", "1.5", "nan", "inf", "-inf", "1e3"])


def _lists(item):
    return st.lists(item, max_size=3).map(",".join)


_WORDS = st.sampled_from(["", " ", "x", "auto", "1ab", "nan", "-inf", "e",
                          "g1^1", "g1^-2", "g2^-1 g1^1", "g3^1"])
_NUMBERS = (st.floats().map(repr) | st.integers(-5, 5).map(str)
            | st.sampled_from(["1e-300", "1e300", "-0"]) | _WORDS)
# drawn text for each flag; sizes and levels stay small, so that no value
# asks for a large allocation or a long run
FLAGS = {
    "--support": _lists(_WORDS | st.text(max_size=3)),
    "--target": _lists(_WORDS | st.text(max_size=3)),
    "--epsilon": _NUMBERS,
    "--tol": _NUMBERS,
    "--mode": st.sampled_from(["operator", "trace", "", "x"]),
    "--dims": _lists(_counts(4)),
    "--samples": _counts(20),
    "--seed": st.integers(-3, 2**64).map(str) | _WORDS,
    "--level": _counts(3) | st.sampled_from(["1ab", "1+AB", "2ab"]),
    "--dim": _counts(4),
    "--restarts": _counts(4),
    "--iters": _counts(20),
}
FLAG_CASES = [(command, flag) for command, flags in {
    "certify": ("--support", "--epsilon", "--tol"),
    "certify-trace": ("--support", "--epsilon", "--tol"),
    "verify": ("--tol",),
    "extend": ("--target",),
    "falsify": ("--mode", "--dims", "--samples", "--seed", "--tol"),
    "bell-outer": ("--level", "--tol"),
    "bell-inner": ("--dim", "--restarts", "--iters", "--seed"),
}.items() for flag in flags]


@pytest.mark.parametrize("command, flag", FLAG_CASES)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_mutated_flag(command, flag, data):
    value = data.draw(FLAGS[flag], label=flag)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _inputs(Path(tmp))
        argv = [command] + [a.format(**paths) for a in COMMANDS[command]]
        if flag in argv:  # the flag's value is replaced, not repeated
            i = argv.index(flag)
            del argv[i:i + 2]
        code, files = _check([*argv, f"{flag}={value}"], Path(paths["out"]))
        if command.startswith("certify") and code == 0:
            _check_reverifies(files, paths,
                              [f"--tol={value}"] if flag == "--tol" else [])
