"""Golden CLI outputs: exit code and stdout of fixed argvs, byte for byte.

``tests/data/golden_cli.json`` maps each argv (joined with spaces) to
the exit code and the exact stdout of ``surgerycalc.cli.main``, run in
a directory that holds copies of the bundled diagrams under
``diagrams/``, small diagrams that reach every trace line of the rules
under ``rules/``, and one large diagram under ``large/``. Outputs of the
large ``expand`` requests (600 to 801 curves, megabytes of linking
rows) are kept as the SHA-256 and byte length of stdout instead of the
text. A change meant to keep stdout byte-identical must leave this
file as it is. A change meant to alter output regenerates it with

    PYTHONPATH=src python tests/test_golden_cli.py

and records the output change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

import surgerycalc.data as bundled
from surgerycalc.cli import build_parser, main
from surgerycalc.invariants import NonNullhomologousDual

from helpers import json_text

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli.json"

# bundled file -> its unsurgered component: the dual, and the one assumed
# (+1)-tight
DIAGRAMS = {"figure1.json": "L", "s1xs2.json": "U"}
POLICIES = ("all-negative", "all-positive", "balanced")

# Three groups of 200 curves: +1/200, a negative chain whose digits are
# runs of -2 broken by -3, -4 and -5, and +p/q whose tail breaks its -2
# runs by -3 and -6; every pair of groups links.
LARGE_DIAGRAM = {
    "ambient": "tight",
    "components": [
        {"id": "A", "tb": -2, "rot": 1, "euler_char": -1,
         "contact_coefficient": "1/200"},
        {"id": "B", "tb": -3, "rot": 0, "euler_char": 1,
         "contact_coefficient": "-3651719/1811134"},
        {"id": "C", "tb": -4, "rot": 1, "euler_char": -1,
         "contact_coefficient": "1164219/22394"},
    ],
    "linking": [[0, 2, -1], [2, 0, 3], [-1, 3, 0]],
}


def unlinked(ambient: str, *rows) -> dict:
    """A diagram of unlinked components, each row (id, tb, rot,
    euler_char, contact coefficient or None)."""
    return {
        "ambient": ambient,
        "components": [
            {"id": cid, "tb": tb, "rot": rot, "euler_char": chi,
             "contact_coefficient": coefficient}
            for cid, tb, rot, chi, coefficient in rows
        ],
        "linking": [[0] * len(rows) for _ in rows],
    }


# Every trace branch of the rules that classify reaches, by component.
RULE_DIAGRAMS = {
    "tight.json": unlinked(
        "tight",
        ("A", -2, 2, -1, "1/2"),  # thm1 fires: rot > 0, the bound chain
        ("B", -2, -2, -1, "1"),  # thm1 fires: orientation reversed
        ("C", -1, 2, -1, "1"),  # thm1 fires: n*tb + 1 = 0
        ("D", -1, 3, -1, "1/2"),  # thm1 fires: tb + |rot| > -euler_char
        ("E", 0, 3, -1, "1"),  # thm1 stops at tb = 0
        ("F", -2, 1, -1, "1"),  # thm1 stops at |rot| = -euler_char
        ("G", -1, 0, 1, "1/3"),  # thm1 stops at euler_char > 0
        ("H", -2, 0, 1, "-1"),  # no rule covers
    ),
    "unknown.json": unlinked(
        "unknown", ("A", -2, 2, -1, "1"), ("B", -1, 0, 1, "2")
    ),
    "overtwisted.json": unlinked(
        "overtwisted", ("A", -1, 0, 1, "1/3"), ("B", -1, 0, 1, "-1/2")
    ),
}


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
        ["bennequin", "diagrams", "--dual", "L"],
    ]
    for chain in (
        ["--tb", "-2", "--rot", "1", "--n", "3"],
        ["--tb", "-2", "--rot", "2", "--chi", "-1", "--n", "1"],
        ["--tb", "-1", "--rot", "0", "--n", "1"],
    ):
        argvs += [["invariants", "--chain", *chain], ["bennequin", "--chain", *chain]]
    argvs += [["classify", f"rules/{name}"] for name in RULE_DIAGRAMS]
    # lemma-tight: no premise, p < q, +p/q fires, p = q
    argvs.append(["classify", "diagrams/figure1.json", "--n", "2"])
    for query in (["--p", "2", "--q", "3"], ["--p", "5", "--q", "2"], ["--n", "1"]):
        argvs.append(
            ["classify", "diagrams/figure1.json", "--assume-plus-one-tight", "L", *query]
        )
    # the Conway check skipped: the dual is not rationally nullhomologous
    argvs.append(
        ["classify", "diagrams/s1xs2.json", "--assume-plus-one-tight", "U", "--n", "2"]
    )
    argvs.append(["selftest"])
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("text", "json")]


def large_argvs() -> list[list[str]]:
    """``expand`` requests of 600 and 801 curves, under every policy."""
    argvs = []
    for source in (
        ["large/three_groups.json"],
        ["--tb", "-2", "--rot", "1", "--p", "-801", "--q", "800"],
    ):
        argvs += [["expand", *source, "--zigzag-policy", p] for p in POLICIES]
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("text", "json")]


def digest(output: dict) -> dict:
    """Exit code, SHA-256 and UTF-8 byte length of an output's stdout."""
    data = output["stdout"].encode("utf-8")
    return {
        "exit": output["exit"],
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


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
    (directory / "rules").mkdir()
    for name, diagram in RULE_DIAGRAMS.items():
        (directory / "rules" / name).write_text(json.dumps(diagram), encoding="utf-8")
    (directory / "large").mkdir()
    (directory / "large" / "three_groups.json").write_text(
        json.dumps(LARGE_DIAGRAM), encoding="utf-8"
    )


def golden_outputs(directory: Path) -> dict:
    write_bundled(directory)
    outputs = {" ".join(argv): run_in(directory, argv) for argv in golden_argvs()}
    for argv in large_argvs():
        outputs[" ".join(argv)] = digest(run_in(directory, argv))
    return outputs


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_argv(golden):
    assert list(golden) == [
        " ".join(argv) for argv in golden_argvs() + large_argvs()
    ]


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_cli_output_matches_golden(tmp_path, golden, argv):
    write_bundled(tmp_path)
    assert run_in(tmp_path, argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", large_argvs(), ids=" ".join)
def test_large_expand_output_matches_golden_digest(tmp_path, golden, argv):
    write_bundled(tmp_path)
    assert digest(run_in(tmp_path, argv)) == golden[" ".join(argv)]


class Pieces:
    """A stdout with only ``write`` and ``flush`` that keeps each write."""

    def __init__(self) -> None:
        self.pieces: list[str] = []

    def write(self, text: str) -> int:
        self.pieces.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "argv",
    [argv for argv in golden_argvs() + large_argvs() if argv[-1] == "json"],
    ids=" ".join,
)
def test_written_pieces_join_to_the_report_json(tmp_path, monkeypatch, argv):
    # main writes the report as it renders it; the pieces are json_text of
    # the report that the command's handler returns, and nothing at all
    # when the handler raises (a non-nullhomologous dual)
    write_bundled(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = Pieces()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
        args = build_parser().parse_args(argv)
        try:
            report, handler_code = args.handler(args, args.command_parser)
            expected = json_text(report)
        except NonNullhomologousDual:
            handler_code, expected = 3, None
    assert code == handler_code
    if expected is None:
        assert out.pieces == []
    else:
        # compared as one bool: pytest's diff of megabyte strings takes minutes
        joined = "".join(out.pieces) == expected
        assert joined


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        outputs = golden_outputs(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(outputs, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
