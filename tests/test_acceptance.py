"""Acceptance criteria, one test per criterion, printing a pass/fail line."""

import pytest

from freecert import selftest


@pytest.mark.parametrize("name,fn", selftest.CRITERIA,
                         ids=[name.replace(" ", "_")
                              for name, _ in selftest.CRITERIA])
def test_criterion(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}")
    assert ok, f"criterion {name}: {detail}"
