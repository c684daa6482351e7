import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from freecert.cli import main
from freecert.algebra import delta, element_to_json, one
from freecert.words import free_group, generator, unit

F2 = free_group(2)


def g(i, e=1):
    return generator(F2, i, e)


def toy_json():
    f = one(F2) - delta(g(1), 0.5) - delta(g(1, -1), 0.5)
    return element_to_json(f)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_certify_and_verify_roundtrip(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    cert_path = str(tmp_path / "cert.json")
    code, out = run(capsys, ["certify", "--input", fpath, "--support",
                             "e,g1^1", "--tol", "1e-9",
                             "--out", cert_path])
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["residual"] <= 1e-9

    code, out = run(capsys, ["verify", "--cert", cert_path,
                             "--input", fpath, "--tol", "1e-8"])
    assert code == 0
    assert json.loads(out)["ok"] is True


# an exact sum of 3 squares on 13 words whose Gram matrices lie on the
# boundary of the PSD cone: the benchmark's SOS generator without its unit
# margin (bench/workloads.py, random.Random(5), the 93rd draw of a shape,
# a grounded set and hermitize(_sos(...)))
BOUNDARY_SUPPORT = ("e,g1^-1,g2^1,g1^-2,g2^2,g1^-1 g2^1,g2^1 g1^-1,g1^1 g2^2,"
                    "g1^-1 g2^2,g1^-2 g2^2,g2^1 g1^-1 g2^1,g2^-1,"
                    "g2^1 g1^-2 g2^2")


def test_certify_boundary_element(tmp_path, capsys):
    fpath = str(Path(__file__).parent / "data" / "boundary_sos_13.json")
    cert_path = str(tmp_path / "cert.json")
    code, out = run(capsys, ["certify", "--input", fpath, "--support",
                             BOUNDARY_SUPPORT, "--out", cert_path])
    assert code == 0
    assert json.loads(out)["certified"] is True
    code, out = run(capsys, ["verify", "--cert", cert_path, "--input", fpath,
                             "--tol", "1e-9"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_certify_auto_support(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    code, out = run(capsys, ["certify", "--input", fpath])
    assert code == 0


def test_certify_refuted_exit_code(tmp_path, capsys):
    f = delta(g(1)) + delta(g(1, -1))
    fpath = write(tmp_path, "f.json", element_to_json(f))
    code, out = run(capsys, ["certify", "--input", fpath,
                             "--support", "e,g1^1"])
    assert code == 2
    report = json.loads(out)
    assert report["certified"] is False
    assert report["solver"]["status"] == "infeasible"
    assert report["solver"]["certified_gap"] > report["tol"]
    # the stop reason is deterministic: the report repeats byte for byte
    assert run(capsys, ["certify", "--input", fpath,
                        "--support", "e,g1^1"]) == (code, out)


@pytest.mark.parametrize("command", ["certify", "certify-trace"])
def test_dump_sdp_is_the_solved_instance(tmp_path, capsys, monkeypatch,
                                         command):
    import freecert.certify as certify_mod
    from freecert.sdpcore import instance_to_json

    solved = []
    solve = certify_mod.solve_feasibility

    def recording(inst, *args, **kwargs):
        solved.append(instance_to_json(inst))
        return solve(inst, *args, **kwargs)

    monkeypatch.setattr(certify_mod, "solve_feasibility", recording)
    f = one(F2) * 3.0 - delta(g(1)) - delta(g(1, -1))
    fpath = write(tmp_path, "f.json", element_to_json(f))
    dump = str(tmp_path / "sdp.json")
    code, _ = run(capsys, [command, "--input", fpath, "--support", "e,g1^1",
                           "--dump-sdp", dump])
    assert code == 0
    assert json.loads(open(dump).read()) == solved[0]


@pytest.mark.parametrize("command", ["certify", "certify-trace"])
@pytest.mark.parametrize("dump", [False, True])
def test_one_gram_instance_per_certify(tmp_path, capsys, monkeypatch,
                                       command, dump):
    import freecert.certify as certify_mod
    import freecert.cli as cli_mod

    calls = []
    build = certify_mod.gram_instance

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for mod in (certify_mod, cli_mod):
        monkeypatch.setattr(mod, "gram_instance", counting)
    f = one(F2) * 3.0 - delta(g(1)) - delta(g(1, -1))
    fpath = write(tmp_path, "f.json", element_to_json(f))
    argv = [command, "--input", fpath, "--support", "e,g1^1"]
    if dump:
        argv += ["--dump-sdp", str(tmp_path / "sdp.json")]
    code, _ = run(capsys, argv)
    assert code == 0
    assert len(calls) == 1


def test_verify_tampered_certificate(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["certify", "--input", fpath, "--support", "e,g1^1",
                 "--out", cert_path])
    cert = json.loads(open(cert_path).read())
    cert["factors"][0]["terms"][0]["re"] += 1e-3
    tampered = write(tmp_path, "tampered.json", cert)
    code, out = run(capsys, ["verify", "--cert", tampered, "--input", fpath])
    assert code == 2
    assert json.loads(out)["ok"] is False


def test_certify_trace_cli(tmp_path, capsys):
    from freecert.words import multiply

    w = multiply(multiply(g(2), g(1)), g(2, -1))
    wi = multiply(multiply(g(2), g(1, -1)), g(2, -1))
    f = (delta(g(1)) + delta(g(1, -1))) - (delta(w) + delta(wi))
    fpath = write(tmp_path, "f.json", element_to_json(f))
    code, out = run(capsys, ["certify-trace", "--input", fpath,
                             "--support", "e,g1^1"])
    assert code == 0
    assert json.loads(out)["certified"] is True


def test_extend_cli(tmp_path, capsys):
    obj = {
        "group": {"kind": "free", "d": 2},
        "domain": ["e", "g1^1"],
        "values": [
            {"word": "e", "re": 1.0, "im": 0.0},
            {"word": "g1^1", "re": 0.5, "im": 0.0},
            {"word": "g1^-1", "re": 0.5, "im": 0.0},
        ],
    }
    ipath = write(tmp_path, "g.json", obj)
    code, out = run(capsys, ["extend", "--input", ipath,
                             "--target", "g1^2"])
    assert code == 0
    result = json.loads(out)
    assert "g1^2" in result["domain"]
    got = {t["word"]: t["re"] for t in result["values"]}
    assert got["g1^2"] == pytest.approx(0.25)
    # output re-parses as a valid input (round trip)
    opath = write(tmp_path, "g2.json", result)
    code, _ = run(capsys, ["extend", "--input", opath, "--target", "g1^3"])
    assert code == 0


def test_complete_cli(tmp_path, capsys):
    blocks = {
        "A": [[1.0]], "X": [[0.5]], "B": [[1.0]], "Y": [[0.5]], "C": [[1.0]],
    }
    bpath = write(tmp_path, "blocks.json", blocks)
    code, out = run(capsys, ["complete", "--blocks", bpath])
    assert code == 0
    result = json.loads(out)
    assert result["Z"][0][0][0] == pytest.approx(0.25)
    assert result["psd_floor"] >= -1e-10


@pytest.mark.parametrize("blocks, Z", [
    ({"A": [[1.0]], "X": [[]], "B": [], "Y": [], "C": [[1.0]]}, [[[0.0, 0.0]]]),
    ({"A": [], "X": [], "B": [[1.0]], "Y": [[0.5]], "C": [[1.0]]}, []),
])
def test_complete_cli_empty_outer_block(tmp_path, capsys, blocks, Z):
    # an empty A or B block beside non-empty ones: X or Y is written empty
    bpath = write(tmp_path, "blocks.json", blocks)
    code, out = run(capsys, ["complete", "--blocks", bpath])
    assert code == 0
    result = json.loads(out)
    assert result["Z"] == Z
    assert result["psd_floor"] >= -1e-10


def test_falsify_cli(tmp_path, capsys):
    f = delta(g(1)) + delta(g(1, -1))
    fpath = write(tmp_path, "f.json", element_to_json(f))
    code, out = run(capsys, ["falsify", "--input", fpath, "--mode",
                             "operator", "--dims", "1", "--samples", "200",
                             "--seed", "7"])
    assert code == 2
    result = json.loads(out)
    assert result["falsified"] is True
    assert result["worst"] <= -1.9


def test_falsify_deterministic_output(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    argv = ["falsify", "--input", fpath, "--dims", "1,2", "--samples", "50",
            "--seed", "11"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    assert json.loads(out1)["falsified"] is False
    # the verdict depends on --tol, so the inputs digest does too
    _, out3 = run(capsys, argv + ["--tol", "1e-6"])
    assert json.loads(out3)["inputs"] != json.loads(out1)["inputs"]


def test_gns_cli(tmp_path, capsys):
    obj = {
        "group": {"kind": "free", "d": 2},
        "domain": ["e", "g1^1"],
        "values": [
            {"word": "e", "re": 1.0, "im": 0.0},
            {"word": "g1^1", "re": 0.5, "im": 0.0},
            {"word": "g1^-1", "re": 0.5, "im": 0.0},
        ],
    }
    ipath = write(tmp_path, "g.json", obj)
    code, out = run(capsys, ["gns", "--input", ipath])
    assert code == 0
    result = json.loads(out)
    assert result["rank"] == 2
    assert "g1^+1" in result["generators"]
    assert len(result["generators"]["g1^+1"]["mask"]) == 2


def chsh_scenario():
    c = [[[[0.0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    w = [[1.0, 1.0], [1.0, -1.0]]
    for k in range(2):
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    c[k][l][i][j] = w[k][l] * ((-1) ** (i + j))
    return {"d": 2, "m": 2, "coeff": c}


def test_bell_outer_cli(tmp_path, capsys):
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    dump = str(tmp_path / "sdp.json")
    code, out = run(capsys, ["bell-outer", "--scenario", spath,
                             "--level", "1ab", "--dump-sdp", dump])
    assert code == 0
    result = json.loads(out)
    assert result["value"] == pytest.approx(2 * np.sqrt(2), abs=1e-3)
    solver = result["solver"]
    assert 2 * np.sqrt(2) <= result["value"] <= 2 * np.sqrt(2) + 2e-7
    assert set(solver) == {"matrix_size", "iterations", "gap", "psd_floor"}
    assert solver["matrix_size"] == 9 and solver["iterations"] > 0
    assert 0.0 <= solver["gap"] <= 2e-7
    # the report is the library's result on the same input, field by field
    from freecert.bell import BellFunctional, BellScenario, outer_bound
    from freecert.denselin import psd_floor

    res = outer_bound(BellScenario(2, 2),
                      BellFunctional(np.array(chsh_scenario()["coeff"])),
                      "1ab")
    assert result["value"] == res.value
    assert solver == {"matrix_size": len(res.b),
                      "iterations": res.iterations, "gap": res.gap,
                      "psd_floor": psd_floor(res.b)}
    sdp = json.loads(open(dump).read())
    assert sdp["n"] == 9
    assert sdp["constraints"]


def test_bell_inner_cli(tmp_path, capsys):
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    code, out = run(capsys, ["bell-inner", "--scenario", spath, "--dim", "2",
                             "--restarts", "4", "--seed", "3"])
    assert code == 0
    result = json.loads(out)
    assert result["value"] >= 2 * np.sqrt(2) - 1e-3
    assert len(result["alice"]) == 2
    assert len(result["state"]) == 4


def test_bell_inner_deterministic(tmp_path, capsys):
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    argv = ["bell-inner", "--scenario", spath, "--dim", "1", "--restarts",
            "2", "--seed", "5"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize("command, extra", [
    ("bell-inner", ["--seed", "1", "--restarts", "0"]),
    ("bell-inner", ["--seed", "1", "--dim", "0"]),
    ("bell-outer", ["--level", "0", "--dump-sdp", "{tmp}/sdp.json"]),
])
def test_bell_bad_arguments_exit_one(tmp_path, capsys, command, extra):
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    extra = [a.format(tmp=tmp_path) for a in extra]
    code = main([command, "--scenario", spath, *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, extra, flag", [
    ("bell-outer", ["--level", "x"], "--level"),
    ("bell-outer", ["--level", "0"], "--level"),
    ("bell-outer", ["--level", "-1", "--dump-sdp", "{tmp}/sdp.json"],
     "--level"),
    ("bell-inner", ["--seed", "-5"], "--seed"),
    ("falsify", ["--seed", "-5"], "--seed"),
])
def test_bad_level_or_seed_names_the_flag(tmp_path, capsys, command, extra,
                                          flag):
    path = (write(tmp_path, "f.json", toy_json()) if command == "falsify"
            else write(tmp_path, "chsh.json", chsh_scenario()))
    option = "--input" if command == "falsify" else "--scenario"
    extra = [a.format(tmp=tmp_path) for a in extra]
    code = main([command, option, path, *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "sdp.json").exists()


def test_falsify_bad_dims_exit_one(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    for dims in ("1,x", "0", "-3", "2,0", ","):
        code = main(["falsify", "--input", fpath, "--dims", dims,
                     "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --dims") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["certify", "certify-trace"])
@pytest.mark.parametrize("support", [[], ["--support", "auto"]])
def test_non_free_group_auto_support_exit_one(tmp_path, capsys, command,
                                              support):
    # grounded sets, and so the automatic support, need a free group
    fpath = write(tmp_path, "cyc.json", {
        "group": {"kind": "cyclic_free_product", "d": 2, "m": 3},
        "terms": [{"word": "e", "re": 1.0, "im": 0.0}]})
    code = main([command, "--input", fpath, *support])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: --support: grounded sets are defined "
                            "over free groups only\n")


@pytest.mark.parametrize("command, message", [
    ("certify", "support not contained in E^-1E"),
    ("certify-trace",
     "conjugacy classes of the support are not reachable from E^-1E"),
])
def test_support_word_outside_the_table_exits_one(tmp_path, capsys, command,
                                                  message):
    # g1 g2 g1 and its inverse are not quotients of {e, g1, g2}, nor
    # conjugate to one
    fpath = write(tmp_path, "f.json", {
        "group": {"kind": "free", "d": 2},
        "terms": [{"word": w, "re": c, "im": 0.0} for w, c in (
            ("e", 2.0), ("g1 g2 g1", 0.5), ("g1^-1 g2^-1 g1^-1", 0.5))]})
    code = main([command, "--input", fpath, "--support", "e,g1,g2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {message}: ['g1^-1 g2^-1 g1^-1', "
                            f"'g1^1 g2^1 g1^1']\n")


def test_complete_non_object_blocks_exit_one(tmp_path, capsys):
    for blocks in ([1, 2], "A", 3, None):
        bpath = write(tmp_path, "blocks.json", blocks)
        code = main(["complete", "--blocks", bpath])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "Traceback" not in captured.err
        assert (captured.err.startswith(f"error: {bpath}: ")
                and captured.err.count("\n") == 1)


def _nan_element():
    # 1 + NaN g1 + NaN g1^-1: the NaN terms must not be purged as zeros
    f = toy_json()
    for t in f["terms"]:
        if t["word"] != "e":
            t["re"] = float("nan")
    return f


def _inf_partial():
    return {"group": {"kind": "free", "d": 2}, "domain": ["e", "g1^1"],
            "values": [{"word": "e", "re": 1.0, "im": 0.0},
                       {"word": "g1^1", "re": float("inf"), "im": 0.0},
                       {"word": "g1^-1", "re": float("inf"), "im": 0.0}]}


def _nan_functional():
    scenario = chsh_scenario()
    scenario["coeff"][0][1][1][0] = float("nan")
    return scenario


def _fractional_d_functional():
    # int(2.9) == 2 would fit CHSH's 16 coefficients
    return {**chsh_scenario(), "d": 2.9}


def _boolean_d_functional():
    # int(True) == 1 would fit four coefficients
    return {"d": True, "m": 2, "coeff": [1.0, -1.0, -1.0, 1.0]}


@pytest.mark.parametrize("command, blob, flag, extra", [
    ("certify", _nan_element, "--input", []),
    ("extend", _inf_partial, "--input", ["--target", "g1^2"]),
    ("bell-outer", _nan_functional, "--scenario", []),
    ("bell-outer", _fractional_d_functional, "--scenario", []),
    ("bell-inner", _boolean_d_functional, "--scenario", ["--seed", "1"]),
])
def test_non_finite_numbers_exit_one(tmp_path, capsys, command, blob, flag,
                                     extra):
    path = write(tmp_path, "in.json", blob())
    code = main([command, flag, path, *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _numeric_word_inputs(tmp_path, capsys, where):
    # the input files of each command, with the number 5 for one word
    element = toy_json()
    partial = _partial_json()
    cert_path = str(tmp_path / "cert.json")
    fpath = write(tmp_path, "f.json", element)
    assert main(["certify", "--input", fpath, "--support", "e,g1^1",
                 "--out", cert_path]) == 0
    capsys.readouterr()
    cert = json.loads(Path(cert_path).read_text())
    if where == "element":
        element["terms"][1]["word"] = 5
    elif where == "certificate":
        cert["support"][1] = 5
    else:
        partial[where][1 if where == "domain" else 0] = (
            5 if where == "domain" else {**partial[where][0], "word": 5})
    return (write(tmp_path, "f.json", element),
            write(tmp_path, "cert.json", cert),
            write(tmp_path, "g.json", partial))


@pytest.mark.parametrize("command, where", [
    ("falsify", "element"),
    ("certify", "element"),
    ("certify-trace", "element"),
    ("verify", "certificate"),
    ("verify", "element"),
    ("extend", "domain"),
    ("extend", "values"),
    ("gns", "domain"),
])
def test_numeric_word_exit_one(tmp_path, capsys, command, where):
    fpath, cert_path, gpath = _numeric_word_inputs(tmp_path, capsys, where)
    argv = {
        "falsify": ["--input", fpath, "--dims", "1", "--samples", "1",
                    "--seed", "1"],
        "certify": ["--input", fpath, "--support", "e,g1^1"],
        "certify-trace": ["--input", fpath, "--support", "e,g1^1"],
        "verify": ["--cert", cert_path, "--input", fpath],
        "extend": ["--input", gpath, "--target", "g1^2"],
        "gns": ["--input", gpath],
    }[command]
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "word must be a string, got 5" in captured.err


def test_python_m_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import freecert

    src = str(Path(freecert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "freecert", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: freecert")


def test_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["certify", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "bad.json" in err


def test_bad_support_exit_one(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    code = main(["certify", "--input", fpath, "--support", "g1^2"])
    assert code == 1  # {g1^2} is not grounded (missing unit chain)


def test_missing_file_exit_one(tmp_path, capsys):
    code = main(["certify", "--input", str(tmp_path / "nope.json")])
    assert code == 1


def _command_inputs(tmp_path, command):
    fpath = write(tmp_path, "f.json", toy_json())
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    return {
        "certify": ["--input", fpath],
        "certify-trace": ["--input", fpath],
        "verify": ["--cert", fpath, "--input", fpath],
        "falsify": ["--input", fpath, "--seed", "1"],
        "bell-outer": ["--scenario", spath],
        "bell-inner": ["--scenario", spath, "--seed", "1"],
    }[command]


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--tol", "nan"),
    ("certify", "--epsilon", "nan"),
    ("certify-trace", "--tol", "inf"),
    ("certify-trace", "--epsilon", "-inf"),
    ("verify", "--tol", "nan"),
    ("falsify", "--tol", "inf"),
    ("bell-outer", "--tol", "-inf"),
])
def test_non_finite_arguments_exit_one(tmp_path, capsys, command, flag,
                                       value):
    code = main([command, *_command_inputs(tmp_path, command),
                 f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, flag, value", [
    ("certify", "--tol", "-1"),
    ("certify", "--tol", "0"),
    ("certify-trace", "--tol", "0"),
    ("verify", "--tol", "-1e-9"),
    ("falsify", "--tol", "-1"),
    ("bell-outer", "--tol", "0"),
    ("bell-inner", "--iters", "-3"),
    # positive, but no interior-point iterate gets that close
    ("bell-outer", "--tol", "1e-300"),
])
def test_out_of_range_arguments_exit_one(tmp_path, capsys, command, flag,
                                         value):
    code = main([command, *_command_inputs(tmp_path, command),
                 f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.err.count("\n") == 1


def test_reused_parser_matches_fresh_processes(tmp_path, capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import freecert

    fpath = write(tmp_path, "f.json", toy_json())
    calls = [
        ["certify", "--input", fpath, "--support", "e,g1^1", "--tol", "1e-8",
         "--epsilon", "1e-3"],
        ["falsify", "--input", fpath, "--dims", "1", "--samples", "20",
         "--seed", "3", "--tol", "1e-6"],
        ["certify", "--input", fpath],  # defaults again after the flags
    ]
    in_process = [run(capsys, argv) for argv in calls]

    src = str(Path(freecert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for argv, (code, out) in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "freecert", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out)
    assert json.loads(in_process[0][1])["epsilon"] == 1e-3
    assert json.loads(in_process[2][1])["epsilon"] == 0.0


def _run_process(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import freecert

    src = str(Path(freecert.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "freecert", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("command", ["certify", "certify-trace"])
@pytest.mark.parametrize("mismatch", ["element", "factor"])
def test_verify_group_mismatch_exit_one(tmp_path, capsys, command, mismatch):
    F3 = free_group(3)
    fpath = write(tmp_path, "f.json", toy_json())
    cert_path = str(tmp_path / "cert.json")
    code, _ = run(capsys, [command, "--input", fpath, "--support", "e,g1^1",
                           "--out", cert_path])
    assert code == 0
    if mismatch == "element":
        # a certificate over F2 checked against an element of F3
        h = one(F3) - delta(generator(F3, 1), 0.5) \
            - delta(generator(F3, 1, -1), 0.5)
        fpath = write(tmp_path, "f3.json", element_to_json(h))
    else:
        cert = json.loads(open(cert_path).read())
        cert["factors"][0]["group"] = F3.to_json()
        cert_path = write(tmp_path, "mixed.json", cert)
    proc = _run_process(["verify", "--cert", cert_path, "--input", fpath])
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "different group" in proc.stderr


@pytest.fixture
def table_sizes(monkeypatch):
    """The word count of every QuotientTable formed, in order."""
    from freecert import quotients

    sizes = []
    init = quotients.QuotientTable.__init__

    def counting(self, words):
        init(self, words)
        sizes.append(len(self.words))

    monkeypatch.setattr(quotients.QuotientTable, "__init__", counting)
    return sizes


@pytest.mark.parametrize("command", ["certify", "certify-trace"])
def test_one_quotient_table_per_word_list(tmp_path, capsys, table_sizes,
                                          command):
    # certify forms E's table for the Gram instance and its verifier reuses
    # it, since the factors list E's words in E's order; verify forms the
    # table of the factor words it reads
    fpath = str(Path(__file__).parent / "data" / "boundary_sos_13.json")
    cert_path = str(tmp_path / "cert.json")
    code, _ = run(capsys, [command, "--input", fpath, "--support",
                           BOUNDARY_SUPPORT, "--out", cert_path,
                           "--dump-sdp", str(tmp_path / "sdp.json")])
    assert code == 0 and table_sizes == [13]
    table_sizes.clear()
    code, _ = run(capsys, ["verify", "--cert", cert_path, "--input", fpath])
    assert code == 0 and table_sizes == [13]
    table_sizes.clear()
    ipath = write(tmp_path, "g.json", _partial_json())
    code, _ = run(capsys, ["extend", "--input", ipath, "--target",
                           "g1^2,g2^1,g2^1 g1^1"])
    assert code == 0 and table_sizes == [2, 5]
    table_sizes.clear()
    code, _ = run(capsys, ["gns", "--input", ipath])
    assert code == 0 and table_sizes == [2]


def _partial_json():
    return {"group": {"kind": "free", "d": 2}, "domain": ["e", "g1^1"],
            "values": [{"word": "e", "re": 1.0, "im": 0.0},
                       {"word": "g1^1", "re": 0.5, "im": 0.25},
                       {"word": "g1^-1", "re": 0.5, "im": -0.25}]}


@pytest.mark.parametrize("command", ["extend", "gns"])
def test_asymmetric_partial_function_exit_one(tmp_path, capsys, command):
    obj = _partial_json()
    obj["values"][2]["im"] = 0.0  # g(g1^-1) is no longer conj(g(g1))
    ipath = write(tmp_path, "g.json", obj)
    argv = [command, "--input", ipath]
    code = main(argv + (["--target", "g1^2"] if command == "extend" else []))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "hermitian symmetry" in captured.err


@pytest.mark.parametrize("command", ["extend", "gns"])
@pytest.mark.parametrize("text", ["g1^1", "g1"])
def test_partial_function_lists_each_word_once(tmp_path, capsys, command,
                                               text):
    # the file lists g1 (spelled `text`) and g1^-1 again, with values that
    # are symmetric on their own: no value may replace another
    obj = _partial_json()
    obj["values"] += [{"word": text, "re": 0.9, "im": 0.0},
                      {"word": "g1^-1", "re": 0.9, "im": 0.0}]
    ipath = write(tmp_path, "g.json", obj)
    argv = [command, "--input", ipath]
    code = main(argv + (["--target", "g2"] if command == "extend" else []))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {ipath}: values: word g1^1 is "
                            f"listed twice\n")


def test_every_written_json_is_canonical(tmp_path, capsys):
    # each report and file must read back to the exact text that json.dumps
    # (indent=2, sort_keys=True) gives for what it holds
    from freecert.words import multiply

    fpath = write(tmp_path, "f.json", toy_json())
    w = multiply(multiply(g(2), g(1)), g(2, -1))
    wi = multiply(multiply(g(2), g(1, -1)), g(2, -1))
    tpath = write(tmp_path, "t.json", element_to_json(
        (delta(g(1)) + delta(g(1, -1))) - (delta(w) + delta(wi))))
    refuted = write(tmp_path, "r.json",
                    element_to_json(delta(g(1)) + delta(g(1, -1))))
    ppath = write(tmp_path, "p.json", _partial_json())
    bpath = write(tmp_path, "blocks.json", {
        "A": [[1.0]], "X": [[0.5, 0.25]], "B": [[1.0, 0.0], [0.0, 1.0]],
        "Y": [[0.5], [0.1]], "C": [[1.0]]})
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    files = {name: str(tmp_path / name) for name in (
        "cert.json", "sdp.json", "tcert.json", "tsdp.json", "verify.json",
        "bsdp.json", "inner.json")}
    calls = [
        ["certify", "--input", fpath, "--support", "e,g1^1",
         "--out", files["cert.json"], "--dump-sdp", files["sdp.json"]],
        ["certify", "--input", fpath, "--epsilon", "1e-3"],
        ["certify", "--input", refuted, "--support", "e,g1^1"],
        ["certify-trace", "--input", tpath, "--support", "e,g1^1",
         "--out", files["tcert.json"], "--dump-sdp", files["tsdp.json"]],
        ["verify", "--cert", files["cert.json"], "--input", fpath,
         "--out", files["verify.json"]],
        ["verify", "--cert", files["tcert.json"], "--input", tpath],
        ["extend", "--input", ppath, "--target", "g1^2,g2^1"],
        ["gns", "--input", ppath],
        ["complete", "--blocks", bpath],
        ["falsify", "--input", fpath, "--dims", "1,2", "--samples", "20",
         "--seed", "3"],
        ["bell-outer", "--scenario", spath, "--dump-sdp", files["bsdp.json"]],
        ["bell-inner", "--scenario", spath, "--restarts", "2", "--seed", "1"],
        ["bell-inner", "--scenario", spath, "--restarts", "1", "--seed", "2",
         "--out", files["inner.json"]],
    ]
    texts = []
    for argv in calls:
        code, out = run(capsys, argv)
        assert code in (0, 2), argv
        if out:
            texts.append(out)
    texts.extend(open(path).read() for path in files.values())
    assert len(texts) == len(calls) - 2 + len(files)
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"


@pytest.mark.parametrize("tol", ["1e-2", "10", "100"])
def test_bell_outer_coarse_tol_is_a_bound(tmp_path, capsys, tol):
    # a coarse tol loosens the bound, never below 2 sqrt 2
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    code, out = run(capsys, ["bell-outer", "--scenario", spath, "--level",
                             "1", "--tol", tol])
    assert code == 0
    result = json.loads(out)
    assert 2 * np.sqrt(2) <= result["value"]
    assert result["solver"]["gap"] <= float(tol)


def test_bell_outer_fine_tol_is_a_bound(tmp_path, capsys):
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    code, out = run(capsys, ["bell-outer", "--scenario", spath, "--level",
                             "1", "--tol", "1e-13"])
    assert code == 0
    result = json.loads(out)
    assert result["solver"]["gap"] <= 1e-13
    assert 2 * np.sqrt(2) - 1e-12 <= result["value"] <= 2 * np.sqrt(2) + 1e-12


def test_bell_outer_rerun_byte_identical(tmp_path, capsys):
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    argv = ["bell-outer", "--scenario", spath, "--level", "2"]
    first = run(capsys, argv)
    assert first[0] == 0 and run(capsys, argv) == first


@pytest.mark.parametrize("level", ["1", "1ab", "2"])
@pytest.mark.parametrize("m", [2, 3])
def test_bell_outer_dump_sdp_rerun_byte_identical(tmp_path, capsys, m,
                                                  level):
    # the real (m = 2) and the complex (m = 3) solve give the same report
    # and the same instance on every run
    spath = write(tmp_path, "f.json", chsh_scenario() if m == 2
                  else three_outcome_scenario())
    outputs = []
    for r in range(2):
        dump = tmp_path / f"sdp{r}.json"
        code, out = run(capsys, ["bell-outer", "--scenario", spath,
                                 "--level", level, "--dump-sdp", str(dump)])
        assert code == 0
        outputs.append((out, dump.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("dump", [False, True])
def test_bell_outer_builds_the_moment_instance_once(tmp_path, capsys,
                                                    monkeypatch, dump):
    # --dump-sdp writes the instance that outer_bound then solves
    import freecert.bell as bell
    import freecert.cli as cli

    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return moment_instance(*args, **kwargs)

    moment_instance = bell.moment_instance
    monkeypatch.setattr(bell, "moment_instance", counted)
    monkeypatch.setattr(cli, "moment_instance", counted)
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    argv = ["bell-outer", "--scenario", spath, "--level", "1ab"]
    if dump:
        argv += ["--dump-sdp", str(tmp_path / "sdp.json")]
    code, out = run(capsys, argv)
    assert code == 0 and len(built) == 1
    monkeypatch.undo()
    assert run(capsys, argv) == (0, out)


def _three_outcome_coeff(first_shift):
    """sum of P(A1 = B1) + P(B1 = A2 + 1) + P(A2 = B2) + P(B2 = A1), minus
    P(B1 = A1 + first_shift) + P(B1 = A2) + P(A2 = B2 - 1)
    + P(B2 = A1 - 1), for two settings and three outcomes."""
    m = 3
    c = np.zeros((2, 2, m, m))
    for a in range(m):
        for b in range(m):
            c[0, 0, a, b] += (a == b) - (b == (a + first_shift) % m)
            c[1, 0, a, b] += (b == (a + 1) % m) - (b == a)
            c[1, 1, a, b] += (a == b) - (a == (b - 1) % m)
            c[0, 1, a, b] += (b == a) - (b == (a - 1) % m)
    return c


def three_outcome_scenario(scale=1.0):
    """The benchmark's 3-outcome functional (bench/workloads.py::cglmp3):
    CGLMP's I_3 with P(B1 = A1 - 1) subtracted where I_3 subtracts
    P(B1 = A1 + 1). It has no quantum advantage: a deterministic strategy
    reaches 3.0, as does the see-saw. Its tests exercise the see-saw's POVM
    steps, not a Bell violation."""
    c = scale * _three_outcome_coeff(-1)
    return {"d": 2, "m": 3, "coeff": c.tolist()}


@pytest.fixture(scope="module")
def three_outcome_outer():
    """The level-1 outer bound of the benchmark's 3-outcome functional."""
    from freecert.bell import BellFunctional, BellScenario, outer_bound

    c = np.array(three_outcome_scenario()["coeff"])
    return outer_bound(BellScenario(2, 3), BellFunctional(c), 1).value


def test_cglmp_two_sided(tmp_path, capsys):
    # I_3 itself: classical value 2, quantum value 1 + sqrt(11/3) at dim 3
    # (the see-saw finds it), level-1 outer bound 4
    c = _three_outcome_coeff(1)
    classical = max(
        sum(c[k, l, a[k], b[l]] for k in range(2) for l in range(2))
        for a in itertools.product(range(3), repeat=2)
        for b in itertools.product(range(3), repeat=2))
    assert classical == 2.0
    spath = write(tmp_path, "cglmp.json",
                  {"d": 2, "m": 3, "coeff": c.tolist()})
    code, out = run(capsys, ["bell-inner", "--scenario", spath, "--dim", "3",
                             "--restarts", "2", "--seed", "0"])
    assert code == 0
    inner = json.loads(out)["value"]
    assert inner >= 1.0 + np.sqrt(11.0 / 3.0) - 1e-6
    code, out = run(capsys, ["bell-outer", "--scenario", spath, "--level",
                             "1"])
    assert code == 0
    assert inner <= json.loads(out)["value"] + 1e-6


def test_bell_inner_scaled_cglmp_solves(tmp_path, capsys,
                                        three_outcome_outer):
    # the POVM step's gap tolerance scales with the objective
    spath = write(tmp_path, "three.json", three_outcome_scenario(1e7))
    code, out = run(capsys, ["bell-inner", "--scenario", spath, "--dim", "2",
                             "--iters", "1", "--restarts", "1", "--seed",
                             "2"])
    assert code == 0
    assert json.loads(out)["value"] <= 1e7 * three_outcome_outer


@pytest.mark.parametrize("dim, iters, restarts", [(2, 3, 1), (2, 10, 2),
                                                  (3, 3, 1)])
def test_bell_inner_cglmp_dilates(tmp_path, capsys, three_outcome_outer,
                                  dim, iters, restarts):
    # POVM steps leave effect eigenvalues below zero by less than PVM_TOL,
    # which the POVM check of bell._update_povms must accept
    spath = write(tmp_path, "three.json", three_outcome_scenario())
    code, out = run(capsys, ["bell-inner", "--scenario", spath, "--dim",
                             str(dim), "--iters", str(iters), "--restarts",
                             str(restarts), "--seed", "0"])
    assert code == 0
    assert json.loads(out)["value"] <= three_outcome_outer + 1e-6


def test_bell_inner_failed_povm_solve_exit_one(tmp_path, capsys,
                                               monkeypatch):
    # one interior-point iteration does not reach the duality gap
    import freecert.sdpcore as sdpcore

    monkeypatch.setattr(sdpcore, "IPM_MAX_ITER", 1)
    spath = write(tmp_path, "three.json", three_outcome_scenario())
    code = main(["bell-inner", "--scenario", spath, "--dim", "2", "--iters",
                 "1", "--restarts", "1", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_bell_inner_non_povm_update_exit_one(tmp_path, capsys, monkeypatch):
    # a solve whose effects sum to 2 I is not a measurement update
    import dataclasses

    import freecert.bell as bell

    def doubled(instances, tols):
        return [dataclasses.replace(res, b=2.0 * res.b)
                for res in maximize_many(instances, tols)]

    maximize_many = bell.maximize_many
    monkeypatch.setattr(bell, "maximize_many", doubled)
    spath = write(tmp_path, "three.json", three_outcome_scenario())
    code = main(["bell-inner", "--scenario", spath, "--dim", "2", "--iters",
                 "1", "--restarts", "1", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: effects do not sum to the identity\n"


def test_bell_inner_non_pvm_update_of_one_restart_exit_one(tmp_path, capsys,
                                                         monkeypatch):
    # the restarts run as one stack, and one restart's bad update is enough
    import freecert.bell as bell

    update = bell._update_two_outcome

    def broken(G):
        new = update(G)
        if len(new) == 4:
            new[2, 0] *= 0.5  # restart 2, setting 0: 0.5 P and 0.5 (I - P)
        return new

    monkeypatch.setattr(bell, "_update_two_outcome", broken)
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    code = main(["bell-inner", "--scenario", spath, "--dim", "2",
                 "--restarts", "4", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: effect is not idempotent\n"


def test_bell_inner_reports_seesaw_solves(tmp_path, capsys, monkeypatch):
    import freecert.bell as bell

    seen, stacks = [], []

    def counted(instances, tols):
        results = maximize_many(instances, tols)
        seen.extend(results)
        stacks.append(len(results))
        return results

    maximize_many = bell.maximize_many
    monkeypatch.setattr(bell, "maximize_many", counted)
    spath = write(tmp_path, "three.json", three_outcome_scenario())
    argv = ["bell-inner", "--scenario", spath, "--dim", "2", "--iters", "2",
            "--restarts", "1", "--seed", "2"]
    code, out = run(capsys, argv)
    assert code == 0
    # two iterations of two parties, each one stacked solve over the two
    # settings
    assert stacks == [2, 2, 2, 2]
    assert json.loads(out)["solver"] == {
        "sdp_calls": 8,
        "iterations": sum(res.iterations for res in seen),
        "max_gap": max(res.gap for res in seen)}
    assert 0.0 < max(res.gap for res in seen) <= 1e-6
    assert run(capsys, argv) == (0, out)

    # two-outcome updates are closed-form
    seen.clear()
    spath = write(tmp_path, "chsh.json", chsh_scenario())
    code, out = run(capsys, ["bell-inner", "--scenario", spath, "--dim", "2",
                             "--restarts", "2", "--seed", "3"])
    assert code == 0 and not seen
    assert json.loads(out)["solver"] == {"sdp_calls": 0, "iterations": 0,
                                         "max_gap": None}


@pytest.mark.parametrize("argv", [
    ["certify"],  # a missing required flag
    ["certify", "--input", "f.json", "--tol", "abc"],  # a bad value
    ["bell-inner", "--scenario", "s.json", "--seed", "1", "--dim", "two"],
    ["bogus"],  # an unknown subcommand
])
def test_usage_error_exit_one(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]])
def test_help_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: freecert")


_FREE1 = {"kind": "free", "d": 1}


@pytest.mark.parametrize("group, bad", [
    ([1], [1]),
    ("free", "free"),
    ({"kind": "direct_product", "left": None, "right": _FREE1}, None),
    ({"kind": "direct_product", "left": _FREE1, "right": 2}, 2),
])
@pytest.mark.parametrize("command, extra", [
    ("certify", []), ("certify-trace", []), ("falsify", ["--seed", "1"]),
    ("verify", []), ("extend", ["--target", "g1^2"]), ("gns", []),
])
def test_non_object_group_exit_one(tmp_path, capsys, group, bad, command,
                                   extra):
    path = write(tmp_path, "in.json", {**toy_json(), "group": group})
    if command == "verify":
        fpath = write(tmp_path, "f.json", toy_json())
        code = main([command, "--cert", path, "--input", fpath])
    else:
        code = main([command, "--input", path, *extra])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {path}: a group must be a JSON object, "
                            f"got {bad!r}\n")


def test_malformed_support_word_names_the_flag(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", toy_json())
    code = main(["certify", "--input", fpath, "--support", "e,gx"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --support: malformed word token 'gx'\n"


_BIG = 10 ** 400  # a JSON integer that no float holds


def _fault_files(tmp_path):
    """Input files with one fault each, next to valid ones, by name."""
    big_re = toy_json()
    big_re["terms"][0]["re"] = _BIG
    big_coeff = chsh_scenario()
    big_coeff["coeff"][0][0][0][0] = _BIG
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps({**toy_json(), "note": "café"},
                                  ensure_ascii=False).encode("latin-1"))
    return {
        "f": write(tmp_path, "f.json", toy_json()),
        "s": write(tmp_path, "chsh.json", chsh_scenario()),
        "latin1": str(latin1),
        "bad_y": write(tmp_path, "b.json", {"A": [[1.0]], "X": [[0.5]],
                                            "B": [[1.0]], "Y": [["x"]],
                                            "C": [[1.0]]}),
        "inf_d": write(tmp_path, "inf_d.json", {
            **toy_json(), "group": {"kind": "free", "d": float("inf")}}),
        "big_re": write(tmp_path, "big_re.json", big_re),
        "big_coeff": write(tmp_path, "big_coeff.json", big_coeff),
    }


@pytest.mark.parametrize("argv, path", [
    (["certify", "--input", "{tmp}/nope.json"], "{tmp}/nope.json"),
    (["falsify", "--input", "{tmp}", "--seed", "1"], "{tmp}"),
    (["certify", "--input", "{latin1}"], "{latin1}"),
    (["certify", "--input", "{f}", "--out", "{tmp}/no/c.json"],
     "{tmp}/no/c.json"),
    (["certify", "--input", "{f}", "--dump-sdp", "{tmp}/no/sdp.json"],
     "{tmp}/no/sdp.json"),
    (["certify-trace", "--input", "{f}", "--out", "{tmp}"], "{tmp}"),
    (["bell-outer", "--scenario", "{s}", "--dump-sdp", "{tmp}"], "{tmp}"),
    (["bell-inner", "--scenario", "{s}", "--seed", "1",
      "--out", "{tmp}/no/r.json"], "{tmp}/no/r.json"),
    (["complete", "--blocks", "{bad_y}"], "{bad_y}"),
    (["certify", "--input", "{inf_d}"], "{inf_d}"),
    (["certify", "--input", "{big_re}"], "{big_re}"),
    (["bell-outer", "--scenario", "{big_coeff}"], "{big_coeff}"),
])
def test_file_fault_names_the_path(tmp_path, capsys, argv, path):
    fields = {"tmp": tmp_path, **_fault_files(tmp_path)}
    code = main([a.format(**fields) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {path.format(**fields)}: ")
    assert captured.err.count("\n") == 1


def test_malformed_block_names_file_and_block(tmp_path, capsys):
    bpath = _fault_files(tmp_path)["bad_y"]
    assert main(["complete", "--blocks", bpath]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {bpath}: Y: malformed matrix (")


def _set(obj, where, value):
    *keys, last = where
    for key in keys:
        obj = obj[key]
    obj[last] = value


@pytest.mark.parametrize("command, doc, where, value, message", [
    ("certify", toy_json, ("group", "d"), 2.9,
     "d must be an integer, got 2.9"),
    ("certify", toy_json, ("group", "d"), "2",
     "d must be an integer, got '2'"),
    ("certify", toy_json, ("group", "d"), True,
     "d must be an integer, got True"),
    ("certify", toy_json, ("group",), {"kind": "cyclic_free_product",
                                       "d": 2, "m": 3.0},
     "m must be an integer, got 3.0"),
    ("certify", toy_json, ("terms", 1, "re"), "-0.5",
     "a coefficient must be a number, got '-0.5'"),
    ("certify", toy_json, ("terms", 1, "re"), True,
     "a coefficient must be a number, got True"),
    ("bell-outer", chsh_scenario, ("d",), 2.0,
     "d must be an integer, got 2.0"),
    ("bell-outer", chsh_scenario, ("coeff", 0, 0, 0, 1), "-1.0",
     "a coefficient must be a number, got '-1.0'"),
    ("bell-outer", chsh_scenario, ("coeff", 1, 1, 1, 1), False,
     "a coefficient must be a number, got False"),
])
def test_outside_numbers_read_strictly(tmp_path, capsys, command, doc, where,
                                       value, message):
    obj = doc()
    _set(obj, where, value)
    path = write(tmp_path, "in.json", obj)
    flag = "--scenario" if command == "bell-outer" else "--input"
    code = main([command, flag, path])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _blocks_json():
    return {"A": [[1.0]], "X": [[[0.5, 0.25]]], "B": [[1.0]],
            "Y": [[[0.5, -0.25]]], "C": [[1.0]]}


@pytest.mark.parametrize("where, value, message", [
    (("A", 0, 0), "1", "A: malformed matrix (a coefficient must be a number, "
                       "got '1')"),
    (("X", 0, 0), True, "X: malformed matrix (a coefficient must be a "
                        "number, got True)"),
    (("Y", 0, 0), ["0.5", -0.25], "Y: malformed matrix (a coefficient must "
                                  "be a number, got '0.5')"),
    (("Y", 0, 0, 1), False, "Y: malformed matrix (a coefficient must be a "
                            "number, got False)"),
    # an entry is a number or exactly [re, im], and finite
    (("A", 0, 0), [1.0, 0.0, 99], "A: malformed matrix (a coefficient must "
                                  "be a number, got [1.0, 0.0, 99])"),
    (("X", 0, 0), [0.5], "X: malformed matrix (a coefficient must be a "
                         "number, got [0.5])"),
    (("A", 0, 0), float("nan"), "A: malformed matrix (non-finite entry nan)"),
    (("Y", 0, 0), [float("inf"), 0], "Y: malformed matrix (non-finite entry "
                                     "[inf, 0])"),
])
def test_block_numbers_read_strictly(tmp_path, capsys, where, value,
                                     message):
    obj = _blocks_json()
    _set(obj, where, value)
    path = write(tmp_path, "blocks.json", obj)
    assert main(["complete", "--blocks", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


_NOT_A_NUMBER = "a coefficient must be a number, got "


@pytest.mark.parametrize("command, where, value, message", [
    ("certify", ("epsilon",), "0.0", _NOT_A_NUMBER + "'0.0'"),
    ("certify", ("residual",), True, _NOT_A_NUMBER + "True"),
    ("certify", ("gram", 0, 0), [True, 0], _NOT_A_NUMBER + "True"),
    ("certify", ("gram", 1, 0, 1), "0", _NOT_A_NUMBER + "'0'"),
    ("certify", ("epsilon",), float("nan"), "epsilon must be finite, got nan"),
    ("certify-trace", ("epsilon",), False, _NOT_A_NUMBER + "False"),
    ("certify-trace", ("residual",), "0", _NOT_A_NUMBER + "'0'"),
    ("certify-trace", ("gram", 0, 1), [0.5, "0"], _NOT_A_NUMBER + "'0'"),
    ("certify-trace", ("class_residuals", "e"), ["0", 0.0],
     _NOT_A_NUMBER + "'0'"),
    ("certify-trace", ("epsilon",), float("-inf"),
     "epsilon must be finite, got -inf"),
])
def test_certificate_numbers_read_strictly(tmp_path, capsys, command, where,
                                           value, message):
    fpath = write(tmp_path, "f.json", toy_json())
    cpath = tmp_path / "cert.json"
    assert main([command, "--input", fpath, "--support", "e,g1^1",
                 "--out", str(cpath)]) == 0
    cert = json.loads(cpath.read_text())
    _set(cert, where, value)
    bad = write(tmp_path, "bad.json", cert)
    capsys.readouterr()
    assert main(["verify", "--cert", bad, "--input", fpath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"
