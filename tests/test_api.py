"""The public API: every exported name resolves, the package exports
each library module's public names and no others, no module reaches into
another module's private names, the README's quickstart runs and prints
what its comments show, and the commands import nothing outside the
standard library."""

from __future__ import annotations

import ast
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
PACKAGE = Path(surgerycalc.__file__).resolve().parent

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


# The library modules whose ``__all__`` the package re-exports, in order.
LIBRARY = ("exact", "diagram", "expansion", "invariants", "classify", "selftest")


def test_package_exports_each_library_module_all():
    modules = [importlib.import_module(f"surgerycalc.{name}") for name in LIBRARY]
    assert surgerycalc.__all__ == [name for m in modules for name in m.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(surgerycalc, name) is getattr(module, name), name


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(path: Path) -> list[str]:
    """Each private name the module at ``path`` takes from a module of
    its package: by a ``from`` import, or as an attribute of a module
    it imported whole (``from . import exact``, then ``exact._name``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reaches, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.level == 1 or (node.module or "").split(".")[0] == "surgerycalc"
        if not package:
            continue
        for alias in node.names:
            if node.module is None or node.module == "surgerycalc":
                modules.add(alias.asname or alias.name)
            elif _private(alias.name):
                reaches.append(f"{path.stem}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            reaches.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return reaches


def test_no_module_takes_a_private_name_of_another():
    # A check two modules share is public in the module that owns it; a
    # private name stays inside its module. Tests may still reach one.
    reaches = [r for path in sorted(PACKAGE.glob("*.py")) for r in private_reaches(path)]
    assert reaches == []


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
