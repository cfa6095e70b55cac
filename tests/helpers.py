"""Shared test utilities: a CLI runner, oracles and seeded generators."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import surgerycalc
from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    SurgeryComponent,
    SurgeryDiagram,
)


def run_cli(*argv, text=True):
    """Run ``python -m surgerycalc`` in a child process.

    The child gets the source root of the imported package prepended to
    its PYTHONPATH, so the suite also runs from a source checkout in
    which the package is not installed.  With ``text=False`` stdout and
    stderr are the raw bytes the child wrote.
    """
    source_root = str(Path(surgerycalc.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = source_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, "-m", "surgerycalc", *argv],
        capture_output=True,
        text=text,
        env=env,
    )


def euclid_subtractive_steps(p: int, q: int) -> int:
    """Steps of the subtraction-based Euclidean algorithm on (p, q).

    Equals the sum of the division-algorithm quotients; bounds the
    length of the negative continued fraction of -p/q.
    """
    steps = 0
    a, b = p, q
    while b:
        steps += a // b
        a, b = b, a % b
    return steps


def random_rational(rng: random.Random, allow_zero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if allow_zero or value != 0:
            return value


def random_diagram(rng: random.Random, max_components: int = 5) -> SurgeryDiagram:
    """A random structurally valid diagram (odd Euler characteristics)."""
    count = rng.randint(0, max_components)
    components = []
    for index in range(count):
        knot = LegendrianKnotData(
            id=f"C{index}",
            tb=rng.randint(-6, 6),
            rot=rng.randint(-4, 4),
            euler_char=rng.choice((1, -1, -3)),
        )
        coefficient = None if rng.random() < 0.4 else random_rational(rng)
        components.append(
            SurgeryComponent(knot=knot, contact_coefficient=coefficient)
        )
    linking = [[0] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            value = rng.randint(-3, 3)
            linking[i][j] = value
            linking[j][i] = value
    ambient = rng.choice(
        (AmbientStatus.TIGHT, AmbientStatus.OVERTWISTED, AmbientStatus.UNKNOWN)
    )
    return SurgeryDiagram(
        ambient=ambient,
        components=tuple(components),
        linking=tuple(tuple(row) for row in linking),
    )
