"""The benchmark's tracer looks up each function it spans by name, so a
renamed or deleted one breaks every traced run. Read its TARGETS without
importing the benchmark and check that each still names a callable."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets
                     if isinstance(t, ast.Name)] == ["TARGETS"]):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2])
                    for entry in node.value.elts]
    raise AssertionError(f"{TRACER} assigns no TARGETS")


@pytest.mark.parametrize("module, attr", _targets())
def test_tracer_target_is_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
