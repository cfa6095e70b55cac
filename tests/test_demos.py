"""The demo scripts run to completion and print nothing to stderr."""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_cleanly(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
