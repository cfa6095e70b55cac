"""The public API: every exported name resolves, and the README's
quickstart runs and prints what its comments show."""

from __future__ import annotations

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# The layers whose public functions the benchmark's traced run wraps by
# reading their ``__all__``, and the package itself.
MODULES = (
    "surgerycalc",
    "surgerycalc.diagram",
    "surgerycalc.expansion",
    "surgerycalc.exact",
    "surgerycalc.invariants",
    "surgerycalc.classify",
    "surgerycalc.cli",
    "surgerycalc.selftest",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def quickstart_block() -> str:
    """The first ```python block after the "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quickstart"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None
    return match.group(1)


def test_readme_quickstart_prints_its_comments():
    code = quickstart_block()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "quickstart"})
    assert out.getvalue().splitlines() == expected
