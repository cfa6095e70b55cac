"""Mutation gate: every ordering comparison of the rules is pinned by a test.

Usage (from the root of a source checkout):
  python tools/mutate.py              run every mutant; exit 1 on a failure

The one operator flips ``<`` with ``<=`` and ``>`` with ``>=``: in every
comparison (``ast.Compare``) of the modules in ``MODULES``, and in the
relation strings passed to ``classify._compare`` and
``classify._criterion``, which evaluate and write a rule's hypotheses.
Each mutant is one flip, run in a fresh temporary copy of the whole
tree: first the module's own test file with ``-x``, then, if that
passes, the whole suite and ``python -m surgerycalc selftest``. A mutant
that fails none of them survives. Hypothesis runs with a fixed seed,
so a run is repeatable.

``tools/mutants_allowed.json`` maps the key of each equivalent mutant,
one that no input can tell from the program, to a one-line reason.
The gate fails on a survivor that is not in it, and on an entry that
names no surviving mutant, so that the list stays exact. A key names
the module, the enclosing function and the comparison before and
after the flip, so it does not move with line numbers.

Mutation testing follows DeMillo, Lipton and Sayward, "Hints on test
data selection: help for the practicing programmer" (1978).
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "surgerycalc"
ALLOWLIST = Path(__file__).resolve().parent / "mutants_allowed.json"
MODULES = ("classify", "expansion", "invariants", "exact", "diagram")
OPERATORS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
NODES = {text: op for op, text in OPERATORS.items()}
RELATION_CALLS = ("_compare", "_criterion")
#: What a copy of the tree leaves out: caches and build output only.
IGNORED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
           ".perfbench_work", ".bench_build", "build", "*.egg-info")
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
#: Per check; a whole suite takes under 40 s on a 2-vCPU VM, so a hanging
#: mutant stays well inside the CI job's 20 minutes.
TIMEOUT_S = 120


class Mutant(NamedTuple):
    """One flip: the module's source with that one comparison flipped."""

    module: str
    key: str
    source: str


def _scopes(tree: ast.AST) -> dict[int, str]:
    """The qualified name of the function or class around each node."""
    names: dict[int, str] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            names[id(child)] = inner or "<module>"
            visit(child, inner)

    visit(tree, "")
    return names


def _sites(tree: ast.AST):
    """(node, k) for each site of a flip in a module, in walk order.

    A comparison gives one site per ordering operator, ``node.ops[k]``;
    a relation string passed to ``_compare`` or ``_criterion`` gives
    one site, ``node.args[k]``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in OPERATORS:
                    yield node, k
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in RELATION_CALLS
        ):
            for k, arg in enumerate(node.args):
                if isinstance(arg, ast.Constant) and arg.value in FLIPS:
                    yield node, k


def _flip(node: ast.AST, k: int) -> None:
    """Flip site ``k`` of ``node`` in place; a second flip undoes it."""
    if isinstance(node, ast.Compare):
        node.ops[k] = NODES[FLIPS[OPERATORS[type(node.ops[k])]]]()
    else:
        node.args[k].value = FLIPS[node.args[k].value]


def mutants(module: str) -> list[Mutant]:
    """Every mutant of ``surgerycalc.<module>``, written back with
    ``ast.unparse``: the copy loses comments and layout, not meaning."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    scopes = _scopes(tree)
    found, seen = [], {}
    for node, k in list(_sites(tree)):
        before = ast.unparse(node)
        _flip(node, k)
        key = f"{module}.py:{scopes[id(node)]}: {before} -> {ast.unparse(node)}"
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key += f" #{seen[key]}"
        found.append(Mutant(module, key, ast.unparse(tree)))
        _flip(node, k)
    return found


def _run(argv: list[str], cwd: Path) -> bool:
    """Whether ``python *argv`` passes in ``cwd``, against its own sources.

    A run past the timeout counts as failing: a mutant that hangs is caught.
    """
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=cwd, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def killed_by(mutant: Mutant) -> str | None:
    """The first check the mutant fails, run in a fresh copy of the tree,
    or None when it survives them all."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*IGNORED))
        path = tree / "src" / "surgerycalc" / f"{mutant.module}.py"
        path.write_text(mutant.source, encoding="utf-8")
        mapped = f"tests/test_{mutant.module}.py"
        checks = (
            (mapped, [*PYTEST, "-x", mapped]),
            ("the suite", [*PYTEST]),
            ("selftest", ["-m", "surgerycalc", "selftest"]),
        )
        for name, argv in checks:
            if not _run(argv, tree):
                return name
    return None


def main() -> int:
    allowed = json.loads(ALLOWLIST.read_text(encoding="utf-8"))
    every = [mutant for module in MODULES for mutant in mutants(module)]
    failures, survivors, killed = [], set(), 0
    for mutant in every:
        start = time.perf_counter()
        check = killed_by(mutant)
        seconds = time.perf_counter() - start
        if check is not None:
            killed += 1
            verdict = f"killed by {check}"
        elif mutant.key in allowed:
            survivors.add(mutant.key)
            verdict = "survived, allowed as equivalent"
        else:
            failures.append(f"survived and not allowed: {mutant.key}")
            verdict = "SURVIVED"
        print(f"{verdict} ({seconds:.1f} s): {mutant.key}", flush=True)
    keys = {mutant.key for mutant in every}
    for key in allowed:
        if key not in keys:
            failures.append(f"allowed but no such mutant: {key}")
        elif key not in survivors:
            failures.append(f"allowed but killed, so not equivalent: {key}")
    print(f"{len(every)} mutants: {killed} killed, {len(survivors)} allowed "
          f"survivors, {len(failures)} failures")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0

if __name__ == "__main__":
    raise SystemExit(main())
