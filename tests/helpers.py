"""Shared test utilities: a CLI runner, oracles and seeded generators."""

from __future__ import annotations

import math
import operator
import os
import random
import re
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
from surgerycalc.selftest import _cofactor_det as cofactor_det


def child_env(env=None) -> dict:
    """This environment, the variables in ``env`` on top, with the source
    root of the imported package prepended to PYTHONPATH: a child then
    imports the package also from a source checkout in which it is not
    installed."""
    source_root = str(Path(surgerycalc.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    merged = dict(os.environ, **(env or {}))
    merged["PYTHONPATH"] = source_root + (os.pathsep + inherited if inherited else "")
    return merged


def run_python(*argv, text=True, timeout=None, stdout=subprocess.PIPE, env=None):
    """Run ``python *argv`` in a child process that can import the package.

    The child's environment is ``child_env(env)``.  With ``text=False``
    stdout and stderr are the raw bytes the child wrote; ``stdout`` may
    name a file or descriptor to write to instead.  A child still
    running after ``timeout`` seconds is killed and raises
    TimeoutExpired.
    """
    return subprocess.run(
        [sys.executable, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=text,
        env=child_env(env),
        timeout=timeout,
    )


def run_cli(*argv, **options):
    """Run ``python -m surgerycalc`` in a child process (see ``run_python``)."""
    return run_python("-m", "surgerycalc", *argv, **options)


# Each relation a trace line may state, as its exact test.
RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_RATIONAL = r"-?\d+(?:/\d+)?"


def stated_comparisons(line: str) -> list[tuple[Fraction, str, Fraction]]:
    """Each comparison a trace line states between two printed
    rationals, as (lhs, relation, rhs).

    A relation compares the rational just before it with the rational
    just after it, or with the value that follows the expression just
    after it ("> -euler_char/order = 1/3"). So the chain
    "4 >= (euler_char + 2*rot)/order = 3 > -euler_char/order = 1"
    states 4 >= 3 and 3 > 1, and "criterion needs tb < 0", with no
    rational before its relation, states nothing.
    """
    found = []
    for match in re.finditer(r"<=|>=|<|>", line):
        left = re.search(rf"(?:^|\s)({_RATIONAL})\s*$", line[: match.start()])
        right = re.match(
            rf"\s*(?:[^;:,<>=]*?=\s*)??({_RATIONAL})(?=$|[\s;:,)])",
            line[match.end() :],
        )
        if left and right:
            found.append(
                (Fraction(left.group(1)), match.group(), Fraction(right.group(1)))
            )
    return found


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


def reverse_orientation(diagram: SurgeryDiagram, component_id: str) -> SurgeryDiagram:
    """The diagram with one component's orientation reversed.

    Its rotation number changes sign, as do its linking numbers with
    every other component; tb and euler_char do not depend on the
    orientation.
    """
    index = diagram.component_index(component_id)
    components = list(diagram.components)
    old = components[index]
    components[index] = SurgeryComponent(
        knot=LegendrianKnotData(
            id=old.id, tb=old.knot.tb, rot=-old.knot.rot, euler_char=old.knot.euler_char
        ),
        contact_coefficient=old.contact_coefficient,
    )
    flip = [-1 if j == index else 1 for j in range(len(components))]
    linking = tuple(
        tuple(flip[i] * flip[j] * entry for j, entry in enumerate(row))
        for i, row in enumerate(diagram.linking)
    )
    return SurgeryDiagram(diagram.ambient, tuple(components), linking)


def entrywise_linking(components, source_linking):
    """The linking rule entry by entry: the oracle for expanded linking matrices.

    A derived curve belongs to the source its id names before any "#".
    Two curves of one source link by the earlier curve's tb; curves of
    different sources g and h link by ``source_linking[g][h]``, the
    k x k linking matrix of the sources in order.
    """
    sources = [component.id.split("#")[0] for component in components]
    order = list(dict.fromkeys(sources))
    flat = [
        (order.index(source), component.knot.tb)
        for source, component in zip(sources, components)
    ]
    size = len(flat)
    linking = [[0] * size for _ in range(size)]
    for a in range(size):
        ga, tb_a = flat[a]
        for b in range(a + 1, size):
            gb = flat[b][0]
            value = tb_a if ga == gb else source_linking[ga][gb]
            linking[a][b] = value
            linking[b][a] = value
    return tuple(map(tuple, linking))


def dense_diagram(presentation) -> SurgeryDiagram:
    """An expansion as a validated surgery diagram: one knot and component
    per curve record, and the N x N linking matrix entry by entry
    (``entrywise_linking``) from the sources' k x k matrix. The dense
    oracle of the expanded presentation."""
    components = tuple(
        SurgeryComponent(
            knot=LegendrianKnotData(
                id=curve.id, tb=curve.tb, rot=curve.rot, euler_char=curve.euler_char
            ),
            contact_coefficient=(
                None if curve.coefficient is None else Fraction(curve.coefficient)
            ),
        )
        for curve in presentation.records
    )
    linking = entrywise_linking(components, presentation.linking_blocks.source)
    return SurgeryDiagram(presentation.ambient, components, linking)


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


# --------------------------------------------------------------------------
# Linking matrices and Fraction oracles, independent of the integer kernel


def framing(component: SurgeryComponent):
    """tb + contact coefficient: an int for an integer coefficient, else a
    Fraction."""
    r = component.contact_coefficient
    return component.knot.tb + (r.numerator if r.denominator == 1 else r)


def framed_matrices(diagram: SurgeryDiagram, dual_id=None):
    """(M, M0, lk) of a diagram, entry by entry and without row scaling.

    M is the framed linking matrix of the components other than
    ``dual_id`` (all of them when it is None): tb + coefficient on the
    diagonal, an int or a Fraction, and linking numbers elsewhere. lk
    holds their linking numbers with the dual, and M0 borders M with
    corner 0 and lk; without a dual, M0 is None and lk is ().
    """
    others = [
        i for i, component in enumerate(diagram.components) if component.id != dual_id
    ]
    m = [
        [framing(diagram.components[i]) if i == j else diagram.linking[i][j] for j in others]
        for i in others
    ]
    if dual_id is None:
        return m, None, ()
    dual_row = diagram.linking[diagram.component_index(dual_id)]
    link_vector = tuple(dual_row[i] for i in others)
    m0 = [[0, *link_vector]] + [[entry, *row] for entry, row in zip(link_vector, m)]
    return m, m0, link_vector


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions; the 0 x 0
    matrix has determinant 1."""
    rows = [[Fraction(entry) for entry in row] for row in rows]
    value = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            value = -value
        value *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return value


def cramer(rows, vector):
    """The solution of rows . x = vector by Cramer's rule over the cofactor
    determinant, as Fractions; None when the matrix is singular."""
    determinant = cofactor_det(rows)
    if determinant == 0:
        return None
    return tuple(
        cofactor_det([[*row[:i], v, *row[i + 1 :]] for row, v in zip(rows, vector)])
        / determinant
        for i in range(len(rows))
    )


def clear_denominators(rows):
    """(int rows, scale): each rational row times the lcm of its
    denominators, and the product of those lcms."""
    scaled = []
    scale = 1
    for row in rows:
        row = [Fraction(entry) for entry in row]
        s = math.lcm(*(entry.denominator for entry in row))
        scaled.append([entry.numerator * (s // entry.denominator) for entry in row])
        scale *= s
    return scaled, scale
