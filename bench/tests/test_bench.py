"""Tests of the benchmark itself: a tiny run of each workload, and the
checker rejecting corrupted outputs.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import checks as C  # noqa: E402
import fwords as F  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_timed_run(workload):
    result = R.run(workload, seed=3, seconds=0.0, trace=False, tiny=True,
                   setup_probes=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {"items_per_s", "item_p50_ms", "setup_s",
                            "peak_rss_mb"}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_traced_run(workload):
    result = R.run(workload, seed=3, seconds=0.0, trace=True, tiny=True,
                   trace_rounds=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    names = [m["name"] for m in json.loads(
        (BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]]
    assert set(names) <= set(metrics)
    assert metrics["cli.main_s"] > 0
    if workload == "extend_gns":
        assert metrics["sdpcore.max.calls"] == 0
        assert metrics["sdpcore.feas.calls"] == 0
        assert metrics["extendpt.extend_one.calls"] > 0
    else:
        assert metrics["sdpcore.iterations"] > 0


def _item_outputs(make_items, tmp_path):
    """Run the first item of a tiny round and return it with its outputs."""
    from freecert import cli

    item = make_items(tmp_path)[0]
    item.write_inputs(tmp_path)
    outs = R._run_steps(cli.main, item.steps)
    item.check(outs)  # the untouched outputs pass
    return item, outs


def test_checker_rejects_perturbed_certificate(tmp_path):
    item, outs = _item_outputs(
        lambda d: W.certify_round(5, 0, d, tiny=True), tmp_path)
    path = tmp_path / "cert.json"
    cert = json.loads(path.read_text())
    cert["factors"][-1]["terms"][0]["re"] += 1e-6
    path.write_text(json.dumps(cert))
    with pytest.raises(C.CheckError):
        item.check(outs)


def test_checker_rejects_wrong_bell_value(tmp_path):
    item, outs = _item_outputs(
        lambda d: W.bell_round(5, 0, d, tiny=True), tmp_path)
    path = tmp_path / "outer_1.json"
    report = json.loads(path.read_text())
    report["value"] += 1e-4
    path.write_text(json.dumps(report))
    with pytest.raises(C.CheckError):
        item.check(outs)


def test_checker_rejects_wrong_seesaw_value(tmp_path):
    item, outs = _item_outputs(
        lambda d: W.bell_round(5, 0, d, tiny=True), tmp_path)
    path = tmp_path / "inner.json"
    report = json.loads(path.read_text())
    report["value"] -= 1e-6
    path.write_text(json.dumps(report))
    with pytest.raises(C.CheckError):
        item.check(outs)


def test_checker_rejects_altered_extension_value(tmp_path):
    item, outs = _item_outputs(
        lambda d: W.extend_round(5, 0, d, tiny=True), tmp_path)
    path = tmp_path / "ext.json"
    ext = json.loads(path.read_text())
    given = {t["word"] for t in json.loads(
        (tmp_path / "g.json").read_text())["values"]}
    victim = next(t for t in ext["values"] if t["word"] in given
                  and t["word"] != "e")
    victim["re"] = np.nextafter(victim["re"], np.inf)
    path.write_text(json.dumps(ext))
    with pytest.raises(C.CheckError):
        item.check(outs)


def test_refutation_check_needs_negative_trivial_character():
    f = {F.UNIT: 1.0 + 0j, (1,): 0.25 + 0j, (-1,): 0.25 + 0j}
    with pytest.raises(C.CheckError):
        C.check_refutation(f, {"certified": False})


def test_word_arithmetic_round_trips():
    w = F.parse("g1^2 g2^-1 g1^-1")
    assert F.fmt(w) == "g1^2 g2^-1 g1^-1"
    assert F.mul(w, F.inv(w)) == F.UNIT
    assert F.parse("g1 g1^-1") == F.UNIT


def test_same_seed_same_inputs(tmp_path):
    a = W.certify_round(11, 2, tmp_path)
    b = W.certify_round(11, 2, tmp_path)
    assert [i.files for i in a] == [i.files for i in b]
    assert [i.steps for i in a] == [i.steps for i in b]
