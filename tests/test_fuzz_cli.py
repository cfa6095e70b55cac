"""A fuzz test of the CLI in-process: mutated bundled diagrams and argv.

Every call of ``cli.main`` with one of the four diagram commands, in
text and in JSON, must exit 0, 2 or 3, raise nothing, print no
traceback to stderr and finish within a wall budget. A usage error
leaves argparse's SystemExit(2), which counts as exit 2.

Every integer drawn is small, so that no expansion exceeds about 10^3
curves. Coefficients whose expansion is huge (a p, q or n in the
millions) still make ``expand`` run without bound; they are out of
scope here and left to an input-size contract.
"""

from __future__ import annotations

import io
import json
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc.cli import main

WALL_BUDGET_S = 5.0
SMALL = st.integers(min_value=-6, max_value=6)
#: Euler characteristics: odd ones, the even 0 (a warning) and 2 (an error).
CHI = st.sampled_from([1, -1, -3, 0, 2])
IDS = ("L", "U", "V", "K", "K#1", "L#1", "")
#: Values of the wrong type, for any field.
JUNK = st.sampled_from(["x", "", 1.5, True, None, [], {}, "1/0", "2/4", "-"])


def value(data, valid):
    """A drawn value of ``valid``, or now and then one of the wrong type."""
    return data.draw(JUNK) if not data.draw(st.integers(0, 5)) else data.draw(valid)


def coefficients():
    """A small coefficient as the file format writes it, or an invalid one."""
    ratio = st.builds(
        lambda p, q: f"{p}/{q}",
        st.integers(min_value=-12, max_value=12),
        st.integers(min_value=0, max_value=12),
    )
    return st.one_of(st.none(), ratio, st.integers(min_value=-4, max_value=4))


def mutate(data, obj: dict) -> None:
    """Apply a few drawn edits to a parsed diagram document in place."""
    components, linking = obj["components"], obj["linking"]
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 2, 3]))):
        kind = data.draw(
            st.sampled_from(
                ["field", "coefficient", "link", "id", "drop", "add", "remove",
                 "ambient"]
            )
        )
        if kind in ("field", "coefficient", "id", "drop", "remove") and not components:
            continue
        index = data.draw(st.integers(min_value=0, max_value=max(len(components) - 1, 0)))
        if kind == "field":
            name = data.draw(st.sampled_from(["tb", "rot", "euler_char"]))
            components[index][name] = value(data, CHI if name == "euler_char" else SMALL)
        elif kind == "coefficient":
            components[index]["contact_coefficient"] = value(data, coefficients())
        elif kind == "link" and linking:
            i = data.draw(st.integers(min_value=0, max_value=len(linking) - 1))
            if not linking[i]:
                continue
            j = data.draw(st.integers(min_value=0, max_value=len(linking[i]) - 1))
            entry = value(data, SMALL)
            linking[i][j] = entry
            if data.draw(st.integers(0, 3)) and j < len(linking) and i < len(linking[j]):
                linking[j][i] = entry
        elif kind == "id":
            components[index]["id"] = value(data, st.sampled_from(IDS))
        elif kind == "drop":
            name = data.draw(
                st.sampled_from(["id", "tb", "rot", "euler_char", "contact_coefficient"])
            )
            components[index].pop(name, None)
        elif kind == "add":
            components.append(
                {
                    "id": data.draw(st.sampled_from(IDS)),
                    "tb": data.draw(SMALL),
                    "rot": data.draw(SMALL),
                    "euler_char": data.draw(CHI),
                    "contact_coefficient": data.draw(coefficients()),
                }
            )
            column = data.draw(st.lists(SMALL, min_size=len(linking), max_size=len(linking)))
            for row, entry in zip(linking, column):
                row.append(entry)
            linking.append(column + [0])
        elif kind == "remove":
            del components[index]
            if data.draw(st.booleans()) and index < len(linking):
                del linking[index]
                for row in linking:
                    del row[index : index + 1]
        else:
            obj["ambient"] = data.draw(
                st.sampled_from(["tight", "overtwisted", "unknown", "Tight", 3])
            )


def command_argv(data, command: str, fmt: str, target: str, obj: dict) -> list:
    """The argv of one request on ``target``, which holds ``obj``, its
    options drawn."""
    argv = [command, target, "--format", fmt]
    ids = [c["id"] for c in obj["components"] if isinstance(c.get("id"), str)]
    unsurgered = [
        c["id"] for c in obj["components"]
        if isinstance(c.get("id"), str) and c.get("contact_coefficient") is None
    ]
    component = st.sampled_from(ids + ["nope"])
    if unsurgered and data.draw(st.integers(0, 3)):
        component = st.sampled_from(unsurgered)
    if command == "expand":
        if data.draw(st.booleans()):
            policy = data.draw(
                st.sampled_from(["all-negative", "all-positive", "balanced", "none"])
            )
            argv += ["--zigzag-policy", policy]
    elif command in ("invariants", "bennequin"):
        if data.draw(st.integers(min_value=0, max_value=9)):
            argv += ["--dual", data.draw(component)]
    else:
        query = data.draw(st.sampled_from(["none", "none", "n", "n", "pq", "q"]))
        if query == "n":
            argv += ["--n", str(data.draw(st.integers(min_value=0, max_value=5)))]
        elif query == "pq":
            argv += ["--p", str(data.draw(st.integers(min_value=-1, max_value=7))),
                     "--q", str(data.draw(st.integers(min_value=0, max_value=5)))]
        elif query == "q":  # --q without --p
            argv += ["--q", "2"]
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            argv += ["--assume-plus-one-tight", data.draw(component)]
    if not data.draw(st.integers(min_value=0, max_value=14)):
        # an option that does not apply, or a stray token
        argv += data.draw(
            st.sampled_from([["--tb", "1"], ["--chain"], ["--n", "0"], ["--bogus"], ["x"]])
        )
    return argv


def run_main(argv: list) -> tuple[int, str, float]:
    """(exit code, stderr, wall seconds) of one in-process ``main`` call.

    The package warns on an even euler_char, and the test settings make
    every warning an error; here warnings are recorded, as a user sees
    them, not raised.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit:
                code = exit.code
    return code, err.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["expand", "invariants", "classify", "bennequin"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mutated_diagram_requests_exit_cleanly(command, fmt, data):
    name = data.draw(st.sampled_from(["figure1.json", "s1xs2.json"]))
    obj = json.loads(bundled.read_text(name))
    mutate(data, obj)
    text = json.dumps(obj)
    if not data.draw(st.integers(min_value=0, max_value=19)):
        text = text[: data.draw(st.integers(min_value=0, max_value=len(text)))]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        path.write_text(text, encoding="utf-8")
        # a directory is a batch of its *.json files
        target = directory if not data.draw(st.integers(0, 3)) else str(path)
        argv = command_argv(data, command, fmt, target, obj)
        code, err, wall = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert wall < WALL_BUDGET_S, (argv, wall)
