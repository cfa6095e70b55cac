"""Golden CLI outputs: exit code and stdout of fixed argvs, byte for byte.

``tests/data/golden_cli.json`` maps each argv (joined with spaces) to
the exit code and the exact stdout of ``surgerycalc.cli.main``, run in
a directory that holds copies of the bundled diagrams under
``diagrams/``. A change meant to keep stdout byte-identical must leave
this file as it is. A change meant to alter output regenerates it with

    PYTHONPATH=src python tests/test_golden_cli.py

and records the output change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

import surgerycalc.data as bundled
from surgerycalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

# bundled file -> its unsurgered component: the dual, and the one assumed
# (+1)-tight
DIAGRAMS = {"figure1.json": "L", "s1xs2.json": "U"}
POLICIES = ("all-negative", "all-positive", "balanced")


def golden_argvs() -> list[list[str]]:
    """Every argv the golden file covers, in text and in JSON."""
    argvs = []
    for name, dual in DIAGRAMS.items():
        path = f"diagrams/{name}"
        argvs += [["expand", path, "--zigzag-policy", p] for p in POLICIES]
        argvs += [
            ["invariants", path, "--dual", dual],
            ["classify", path],
            ["classify", path, "--assume-plus-one-tight", dual],
            ["bennequin", path, "--dual", dual],
        ]
    argvs += [
        ["expand", "diagrams"],
        ["invariants", "diagrams", "--dual", "L"],
        ["classify", "diagrams", "--assume-plus-one-tight", "L", "--n", "2"],
    ]
    for chain in (
        ["--tb", "-2", "--rot", "1", "--n", "3"],
        ["--tb", "-2", "--rot", "2", "--chi", "-1", "--n", "1"],
        ["--tb", "-1", "--rot", "0", "--n", "1"],
    ):
        argvs += [["invariants", "--chain", *chain], ["bennequin", "--chain", *chain]]
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("text", "json")]


def run_in(directory: Path, argv: list[str]) -> dict:
    """Exit code and stdout of ``main(argv)`` run with ``directory`` as cwd."""
    stdout = io.StringIO()
    previous = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    finally:
        os.chdir(previous)
    return {"exit": code, "stdout": stdout.getvalue()}


def write_bundled(directory: Path) -> None:
    (directory / "diagrams").mkdir()
    for name in DIAGRAMS:
        (directory / "diagrams" / name).write_text(
            bundled.read_text(name), encoding="utf-8"
        )


def golden_outputs(directory: Path) -> dict:
    write_bundled(directory)
    return {" ".join(argv): run_in(directory, argv) for argv in golden_argvs()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_argv(golden):
    assert list(golden) == [" ".join(argv) for argv in golden_argvs()]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(tmp_path, golden, argv):
    write_bundled(tmp_path)
    assert run_in(tmp_path, argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        outputs = golden_outputs(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(outputs, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
