"""The benchmark's independent reference as a differential oracle.

``perfbench/reference.py`` derives every answer the benchmark expects
without importing ``surgerycalc``, and ``perfbench/check.py`` compares a
request's exit code and output with it. Here both run on ``cli.main``
for the bundled diagrams and for ``helpers.random_diagram`` diagrams,
written to files and read back through ``gen.model_from_json``: ``expand``
under every zigzag policy, and ``invariants``, ``bennequin`` and
``classify --assume-plus-one-tight ID --n 2`` on each unsurgered id, in
text and JSON.

The reference has no answer for two input classes, and raises:

* TypeError when a second component is unsurgered; the program exits 2
  (MissingCoefficient);
* ReferenceError for a coefficient +p/q with 1 < p < q; the program
  exits 2 (Unsupported).

``classify`` is the exception: the program skips its Conway check, says
so in the trace and exits 0, where the reference raises computing the
flag.

A third class the reference cannot answer, while the program can: a
multi-curve group whose framing tb + r is 0 makes the reference's
per-group solve singular (the benchmark's generator never draws one).
Those requests are counted and left unchecked here; the dense oracle of
``test_invariants`` covers them.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    SurgeryComponent,
    SurgeryDiagram,
    serialize_diagram,
)
from surgerycalc.cli import main

from helpers import random_diagram

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: Loaded in this order: ``gen`` imports ``reference``, ``check`` both.
BENCH_MODULES = ("reference", "gen", "check")
SKIPPED = "Conway check skipped"


@pytest.fixture(scope="module")
def bench():
    """``reference``, ``gen`` and ``check`` loaded from their files, under
    the plain names they import each other by; removed afterwards."""
    saved = {name: sys.modules.get(name) for name in BENCH_MODULES}
    try:
        for name in BENCH_MODULES:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
        yield tuple(sys.modules[name] for name in BENCH_MODULES)
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


def run_main(argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process request."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def requests(gen, path: str, name: str, model: dict) -> list:
    found = []
    for fmt in ("text", "json"):
        found += [
            gen.Request(["expand", path, "--zigzag-policy", policy, "--format", fmt],
                        "expand", name)
            for policy in gen.POLICIES
        ]
        for component in model["components"]:
            if component["r"] is not None:
                continue
            dual = component["id"]
            found += [
                gen.Request([command, path, "--dual", dual, "--format", fmt], command, name)
                for command in ("invariants", "bennequin")
            ]
            found.append(gen.Request(
                ["classify", path, "--assume-plus-one-tight", dual, "--n", "2",
                 "--format", fmt], "classify", name))
    return found


def outcomes(bench, directory: Path, texts: dict[str, str]) -> Counter:
    """Check every request on each diagram document (file name -> text)
    against the reference; how many were checked, how many the
    reference refused, by its exception, and how many it could not
    answer for a singular group."""
    ref, gen, check = bench
    inputs = gen.Inputs()
    for name, text in texts.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        inputs.diagrams[name] = gen.model_from_json(text.encode())
        inputs.requests += requests(gen, str(path), name, inputs.diagrams[name])
    checker = check.Checker(inputs)
    counts = Counter()
    for req in inputs.requests:
        code, out = run_main(req.argv)
        model = inputs.diagrams[req.diagram]
        try:
            checker.memo[tuple(req.argv)] = checker._expect(req)
        except TypeError:
            assert sum(c["r"] is None for c in model["components"]) >= 2, req.argv
            outcome = "TypeError"
        except ref.ReferenceError as error:
            if str(error).startswith("singular group "):
                source = str(error)[len("singular group "):]
                component = next(c for c in model["components"] if c["id"] == source)
                assert component["tb"] + component["r"] == 0, req.argv
                counts["singular group"] += 1
                continue
            assert str(error).endswith("has no expansion rule"), (req.argv, error)
            assert any(c["r"] is not None and 1 < c["r"].numerator < c["r"].denominator
                       for c in model["components"]), req.argv
            outcome = "ReferenceError"
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert checker.check(req, code, out, digest) is None, req.argv
            counts["checked"] += 1
            continue
        if req.kind == "classify":
            assert code == 0 and SKIPPED in out, req.argv
        else:
            assert (code, out) == (2, ""), req.argv
        counts[outcome] += 1
    return counts


def test_reference_matches_the_bundled_diagrams(bench, directory):
    names = ("figure1.json", "s1xs2.json")
    texts = {name: bundled.read_text(name) for name in names}
    # each has one unsurgered id: 6 expand, 2 x 3 dual requests
    assert outcomes(bench, directory, texts) == {"checked": 24}


def _diagram(knots: dict[str, tuple[int, Fraction | None]]) -> str:
    """Knots (id -> tb, coefficient) with rot 0, each pair linked once."""
    components = tuple(
        SurgeryComponent(LegendrianKnotData(id=cid, tb=tb, rot=0, euler_char=1), r)
        for cid, (tb, r) in knots.items()
    )
    size = len(components)
    linking = [[int(i != j) for j in range(size)] for i in range(size)]
    return serialize_diagram(SurgeryDiagram(AmbientStatus.UNKNOWN, components, linking))


def test_reference_refusals(bench, directory):
    texts = {
        # a second unsurgered component: the duals' systems have no coefficient
        "two-duals.json": _diagram(
            {"K": (-1, Fraction(-1)), "L": (-1, None), "M": (-1, None)}
        ),
        # +2/3 has no expansion rule, so it expands nowhere
        "two-thirds.json": _diagram({"K": (-1, Fraction(2, 3)), "L": (-1, None)}),
        # K's group of curves for +2 has framing tb + 2 = 0, and J's +1/2
        # makes every surgered component a group
        "singular-group.json": _diagram(
            {"K": (-2, Fraction(2)), "J": (-1, Fraction(1, 2)), "L": (-1, None)}
        ),
    }
    # two-duals: 6 expand checked, and per dual and format invariants,
    # bennequin and classify refused; two-thirds: every request refused;
    # singular-group: 6 expand checked, the 6 dual requests unanswered
    assert outcomes(bench, directory, texts) == {
        "checked": 12, "TypeError": 12, "ReferenceError": 12, "singular group": 6
    }


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reference_matches_random_diagrams(bench, directory, seed):
    text = serialize_diagram(random_diagram(random.Random(seed)))
    for outcome in outcomes(bench, directory, {"random.json": text}):
        event(outcome)


def test_reference_imports_nothing_from_the_program():
    for name in BENCH_MODULES:
        tree = ast.parse((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))
        imported = [
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        ] + [
            node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        ]
        assert imported
        assert not [module for module in imported if module.split(".")[0] == "surgerycalc"]
