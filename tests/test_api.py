"""The public API: every exported name resolves, the README's
quickstart runs and prints what its comments show, and the commands
import nothing outside the standard library."""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import surgerycalc
import surgerycalc.data as bundled

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


def test_commands_import_only_the_standard_library(tmp_path):
    # -S leaves site-packages off the path, and the child may import only
    # the package itself: a dependency outside the standard library would
    # fail to import or show up in sys.modules.
    figure1 = tmp_path / "figure1.json"
    figure1.write_text(bundled.read_text("figure1.json"), encoding="utf-8")
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from surgerycalc.cli import main
        runs = [
            ["selftest"],
            ["expand", "--tb", "-2", "--rot", "1", "--p", "-5", "--q", "3"],
            ["invariants", "--chain", "--tb", "-2", "--rot", "1", "--n", "3"],
            ["classify", sys.argv[1], "--n", "2"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        outside = {m.split(".")[0] for m in sys.modules}
        outside -= set(sys.stdlib_module_names) | {"surgerycalc", "__main__"}
        print(codes, sorted(outside))
        """
    )
    source_root = str(Path(surgerycalc.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, str(figure1)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source_root},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0] []\n"
