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


def run_python(*argv, text=True, timeout=None):
    """Run ``python *argv`` in a child process that can import the package.

    The child gets the source root of the imported package prepended to
    its PYTHONPATH, so the suite also runs from a source checkout in
    which the package is not installed.  With ``text=False`` stdout and
    stderr are the raw bytes the child wrote.  A child still running
    after ``timeout`` seconds is killed and raises TimeoutExpired.
    """
    source_root = str(Path(surgerycalc.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = source_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=text,
        env=env,
        timeout=timeout,
    )


def run_cli(*argv, text=True, timeout=None):
    """Run ``python -m surgerycalc`` in a child process (see ``run_python``)."""
    return run_python("-m", "surgerycalc", *argv, text=text, timeout=timeout)


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


def entrywise_linking(derived, source_linking):
    """The linking rule entry by entry: the oracle for expanded linking matrices.

    A derived curve belongs to the source its id names before any "#".
    Two curves of one source link by the earlier curve's tb; curves of
    different sources inherit ``source_linking`` of their sources.
    """
    sources = [component.id.split("#")[0] for component in derived.components]
    order = list(dict.fromkeys(sources))
    flat = [
        (order.index(source), component.knot.tb)
        for source, component in zip(sources, derived.components)
    ]
    size = len(flat)
    linking = [[0] * size for _ in range(size)]
    for a in range(size):
        ga, tb_a = flat[a]
        for b in range(a + 1, size):
            gb = flat[b][0]
            value = tb_a if ga == gb else source_linking(ga, gb)
            linking[a][b] = value
            linking[b][a] = value
    return tuple(map(tuple, linking))


def tail_continuants(curves):
    """D_2, ..., D_(m+1), D_(m+2) of a curve group, curve by curve.

    Entry j - 2 is det H[j..m] of the group's tridiagonal block in the
    basis of differences of consecutive curves (``invariants`` module
    docstring, step 2); the tail pivots are the ratios of consecutive
    entries.
    """
    m = len(curves)
    below = [0] * (m + 1)
    below[m - 1] = 1
    for j in range(m - 2, -1, -1):
        upper, lower = curves[j], curves[j + 1]
        diagonal = lower.tb - upper.tb + lower.coefficient + upper.coefficient
        below[j] = diagonal * below[j + 1] - below[j + 2]
    return below


def group_sweep(curves):
    """(D_2, w) of a curve group by the O(m) sweep over its curves: the
    layer oracle of the closed form in ``invariants``.

    x'_j = sigma eps_j D_(j+1) / D_2 and < rot, x > = sigma w / D_2
    with w = sum_j eps_j D_(j+1) (rot_j - rot_(j-1)).
    """
    below = tail_continuants(curves)
    weight = 0
    sign = 1
    previous_rot = 0
    for curve, minor in zip(curves, below):
        weight += sign * minor * (curve.rot - previous_rot)
        sign *= curve.coefficient
        previous_rot = curve.rot
    return below[0], weight
