"""Spans around the calls into freecert's layers, recorded from outside.

Modules import functions by name (``from .sdpcore import maximize``), so a
wrapper is installed on every freecert module attribute that is bound to the
original function, not only on the defining module. Each call records a span
(name, start, end, parent span, item id, and two integers a layer may
attach, such as iterations and matrix size). Spans stay in compact arrays
until the run ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


def _solver_result(args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    return int(result.iterations), int(inst.n)


def _factors(args, kwargs, result):
    return len(getattr(result, "factors", ())), 0


# (defining module, function, span name, annotation)
TARGETS = [
    ("freecert.sdpcore", "solve_feasibility", "sdpcore.feas", _solver_result),
    ("freecert.sdpcore", "maximize", "sdpcore.max", _solver_result),
    ("freecert.certify", "certify_sos", "certify.certify", _factors),
    ("freecert.certify", "certify_trace", "certify.certify", _factors),
    ("freecert.certify", "verify_sos", "certify.verify", None),
    ("freecert.certify", "verify_trace", "certify.verify", None),
    ("freecert.algebra", "convolve", "algebra.convolve", None),
    ("freecert.words", "multiply", "words.multiply", None),
    ("freecert.words", "conjugacy_canonical", "words.conjugacy", None),
    ("freecert.grounded", "double_set", "grounded.double_set", None),
    ("freecert.grounded", "grounded_set", "grounded.grounded_set", None),
    ("freecert.extendpt", "extend_one", "extendpt.extend_one", None),
    ("freecert.denselin", "eigh", "denselin.eigh", None),
    ("freecert.denselin", "complete_block", "denselin.complete_block", None),
    ("freecert.gnsrep", "gns", "gnsrep.gns", None),
    ("freecert.bell", "moment_instance", "bell.instance", None),
    ("freecert.bell", "outer_bound", "bell.outer", None),
    ("freecert.bell", "inner_bound", "bell.inner", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.item = array("l")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self.item_id = -1
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn, annotate=None):
        nid = self.name_id(label)
        start, end, name, parent, item = (self.start, self.end, self.name,
                                          self.parent, self.item)
        a_arr, b_arr, stack = self.a, self.b, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name.append(nid)
            parent.append(stack[-1])
            item.append(self.item_id)
            a_arr.append(0)
            b_arr.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if annotate is not None:
                a_arr[idx], b_arr[idx] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def install(self):
        """Wrap every TARGETS function on each freecert module name bound to
        it. Modules must already be imported."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "freecert" or n.startswith("freecert.")]
        for modname, attr, label, annotate in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(label, orig, annotate)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._installed.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "item": np.array(self.item, dtype=np.int64),
            "a": np.array(self.a, dtype=np.int64),
            "b": np.array(self.b, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _nearest(parent, name, idx, wanted: set[int]) -> int:
    """Index of the nearest proper ancestor of span idx whose name is in
    wanted, or -1."""
    p = parent[idx]
    while p >= 0 and name[p] not in wanted:
        p = parent[p]
    return p


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the recorded spans."""
    s = tr.arrays()
    name, parent = s["name"], s["parent"]
    dur = s["end"] - s["start"]
    n = len(dur)
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
    self_time = dur - child_sum
    ids = {label: tr.name_id(label) for _, _, label, _ in TARGETS}
    ids["cli.main"] = tr.name_id("cli.main")

    def sel(label):
        return name == ids[label]

    def total(mask):
        return float(np.sum(dur[mask]))

    solver = {ids["sdpcore.feas"], ids["sdpcore.max"]}
    all_solver = sel("sdpcore.feas") | sel("sdpcore.max")
    outer_solver = np.array([i for i in np.flatnonzero(all_solver)
                             if _nearest(parent, name, i, solver) < 0],
                            dtype=np.int64)
    feas_top = outer_solver[name[outer_solver] == ids["sdpcore.feas"]]
    max_spans = sel("sdpcore.max")
    iterations = int(np.sum(s["a"][outer_solver]))
    solver_s = float(np.sum(dur[outer_solver]))

    cert = sel("certify.certify")
    certify_id = {ids["certify.certify"]}
    in_cert_solver = [i for i in outer_solver
                      if _nearest(parent, name, i, certify_id) >= 0]
    in_cert_verify = [i for i in np.flatnonzero(sel("certify.verify"))
                      if _nearest(parent, name, i, certify_id) >= 0]
    cert_calls = int(np.sum(cert))
    cert_s = total(cert)

    inner_id = {ids["bell.inner"]}
    inner_max = [i for i in np.flatnonzero(max_spans)
                 if _nearest(parent, name, i, inner_id) >= 0]

    mult = sel("words.multiply")
    mult_top = mult & ~(has_parent & (name[np.maximum(parent, 0)]
                                      == ids["words.multiply"]))

    m = {
        "sdpcore.iterations": (iterations, "count"),
        "sdpcore.us_per_iteration": (
            1e6 * solver_s / iterations if iterations else 0.0, "us"),
        "sdpcore.max.calls": (int(np.sum(max_spans)), "count"),
        "sdpcore.max_s": (total(max_spans), "s"),
        "sdpcore.feas.calls": (int(feas_top.size), "count"),
        "sdpcore.feas_s": (float(np.sum(dur[feas_top])), "s"),
        "sdpcore.max_n": (int(np.max(s["b"][all_solver], initial=0)), "count"),
        "certify.calls": (cert_calls, "count"),
        "certify.s": (cert_s, "s"),
        "certify.self_s": (cert_s - float(np.sum(dur[in_cert_solver]))
                           - float(np.sum(dur[in_cert_verify])), "s"),
        "certify.solves_per_call": (
            len(in_cert_solver) / cert_calls if cert_calls else 0.0, "ratio"),
        "certify.verify_s": (total(sel("certify.verify")), "s"),
        "certify.factors": (int(np.sum(s["a"][cert])), "count"),
        "algebra.convolve.calls": (int(np.sum(sel("algebra.convolve"))), "count"),
        "algebra.convolve_s": (total(sel("algebra.convolve")), "s"),
        "words.multiply.calls": (int(np.sum(mult_top)), "count"),
        "words.multiply_s": (total(mult_top), "s"),
        "words.conjugacy.calls": (int(np.sum(sel("words.conjugacy"))), "count"),
        "grounded.double_set_s": (total(sel("grounded.double_set")), "s"),
        "grounded.grounded_set_s": (total(sel("grounded.grounded_set")), "s"),
        "extendpt.extend_one.calls": (int(np.sum(sel("extendpt.extend_one"))),
                                      "count"),
        "extendpt.extend_one.self_s": (
            float(np.sum(self_time[sel("extendpt.extend_one")])), "s"),
        "denselin.eigh.calls": (int(np.sum(sel("denselin.eigh"))), "count"),
        "denselin.eigh_s": (total(sel("denselin.eigh")), "s"),
        "denselin.complete_block_s": (total(sel("denselin.complete_block")), "s"),
        "gnsrep.gns_s": (total(sel("gnsrep.gns")), "s"),
        "bell.instance_s": (total(sel("bell.instance")), "s"),
        "bell.outer_s": (total(sel("bell.outer")), "s"),
        "bell.inner_s": (total(sel("bell.inner")), "s"),
        "bell.inner.self_s": (total(sel("bell.inner"))
                              - float(np.sum(dur[inner_max])), "s"),
        "cli.main_s": (total(sel("cli.main")), "s"),
        "cli.self_s": (float(np.sum(self_time[sel("cli.main")])), "s"),
        "trace.spans": (n, "count"),
    }
    return m
