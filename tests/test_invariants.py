"""Dual-knot invariants: closed forms, matrix path, homological order."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    DualKnotInvariants,
    LegendrianKnotData,
    NonNullhomologousDual,
    PlusOneChainSpec,
    SurgeryComponent,
    SurgeryDiagram,
    Unsupported,
    ValidationError,
    build_general_matrices,
    chain_diagram,
    dual_invariants_closed_form,
    dual_invariants_matrix,
    expand_diagram,
    homological_order,
)

from helpers import cofactor_det, random_diagram


def test_homological_order_values():
    assert homological_order(-1, 1) == 0
    assert homological_order(-2, 3) == 5
    assert homological_order(-5, 2) == 9


def test_closed_form_examples():
    invariants = dual_invariants_closed_form(-2, 1, 1, 3)
    assert invariants.tb_q == Fraction(2, 5)
    assert invariants.rot_q == Fraction(-1, 5)
    assert invariants.order == 5
    assert invariants.euler_char == 1

    invariants = dual_invariants_closed_form(-3, 0, 1, 1)
    assert invariants.tb_q == Fraction(3, 2)
    assert invariants.rot_q == 0
    assert invariants.order == 2


def test_closed_form_degenerate():
    with pytest.raises(NonNullhomologousDual):
        dual_invariants_closed_form(-1, 0, 1, 1)


def test_matrix_path_counterexample():
    diagram = bundled.load("figure1.json")
    invariants = dual_invariants_matrix(diagram, diagram.component_index("L"))
    # tb in the surgered manifold: tb0 + det(M0)/det(M) = -1 + 2/(-1) = -3
    assert invariants.tb_q == -3
    assert invariants.rot_q == 0
    assert invariants.order == 1
    assert invariants.euler_char == 1


def test_matrix_path_single_pushoff_dual():
    spec = PlusOneChainSpec(tb=-2, rot=0, euler_char=1, n=1)
    diagram = chain_diagram(spec)
    invariants = dual_invariants_matrix(diagram, diagram.component_index("dual"))
    # tb_q = tb + det(M0)/det(M) = -2 + (-4)/(-1) = 2, matching the
    # closed form -2/(1*(-2)+1) = 2.
    assert invariants.tb_q == 2
    assert invariants == dual_invariants_closed_form(-2, 0, 1, 1)


def test_matrix_path_degenerate():
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(NonNullhomologousDual):
        dual_invariants_matrix(diagram, diagram.component_index("U"))


def test_closed_form_matches_matrix_path_on_grid():
    for tb in range(-6, 0):
        for n in range(1, 7):
            if n * tb + 1 == 0:
                continue
            for rot in range(-6, 7):
                spec = PlusOneChainSpec(tb=tb, rot=rot, euler_char=1, n=n)
                diagram = chain_diagram(spec)
                via_matrix = dual_invariants_matrix(
                    diagram, diagram.component_index("dual")
                )
                closed = dual_invariants_closed_form(tb, rot, 1, n)
                assert via_matrix == closed
                assert via_matrix.order % via_matrix.tb_q.denominator == 0
                assert via_matrix.order % via_matrix.rot_q.denominator == 0


def test_unlinked_dual_keeps_classical_invariants():
    knot = LegendrianKnotData(id="L", tb=-4, rot=1, euler_char=-1)
    other = LegendrianKnotData(id="A", tb=-1, rot=0, euler_char=1)
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=other, contact_coefficient=Fraction(-1)),
            SurgeryComponent(knot=knot),
        ),
        linking=((0, 0), (0, 0)),
    )
    invariants = dual_invariants_matrix(diagram, 1)
    assert invariants.tb_q == -4
    assert invariants.rot_q == 1
    assert invariants.order == 1


def test_order_is_lattice_order_not_determinant():
    # Two unlinked (+1)-surgeries on tb = 1 knots give det(M) = 4, but
    # the dual's class already dies once: its order is 1.
    a = LegendrianKnotData(id="A", tb=1, rot=0, euler_char=-1)
    b = LegendrianKnotData(id="B", tb=1, rot=0, euler_char=-1)
    dual = LegendrianKnotData(id="D", tb=0, rot=1, euler_char=-1)
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=a, contact_coefficient=Fraction(1)),
            SurgeryComponent(knot=b, contact_coefficient=Fraction(1)),
            SurgeryComponent(knot=dual),
        ),
        linking=((0, 0, 2), (0, 0, 0), (2, 0, 0)),
    )
    invariants = dual_invariants_matrix(diagram, 2)
    assert invariants.order == 1
    assert invariants.tb_q.denominator == 1


def test_invariants_validation():
    with pytest.raises(ValidationError):
        DualKnotInvariants(
            tb_q=Fraction(1, 3), rot_q=Fraction(0), order=2, euler_char=1
        )
    with pytest.raises(ValidationError):
        DualKnotInvariants(tb_q=Fraction(1), rot_q=Fraction(0), order=0, euler_char=1)


def _dual_cases(rng, count):
    """Random diagrams with one unsurgered component and M of dimension 1-6."""
    cases = []
    while len(cases) < count:
        diagram = random_diagram(rng, max_components=6)
        unsurgered = [c for c in diagram.components if not c.is_surgered]
        if len(unsurgered) != 1:
            continue
        if any(
            c.contact_coefficient.denominator != 1
            for c in diagram.components
            if c.is_surgered
        ):
            try:
                diagram = expand_diagram(diagram).derived_diagram
            except Unsupported:
                continue
        if not 1 <= len(diagram.components) - 1 <= 6:
            continue
        cases.append((diagram, diagram.component_index(unsurgered[0].id)))
    return cases


def _replace_column(rows, index, column):
    return [row[:index] + [v] + row[index + 1 :] for row, v in zip(rows, column)]


def test_matrix_path_matches_cofactor_oracle_randomized():
    # Oracle shares no code with the elimination kernel: tb_Q from the
    # bordered determinant, the solution x from Cramer's rule.
    degenerate = 0
    for diagram, dual_index in _dual_cases(random.Random(20261017), 300):
        m, m0, link_vector = build_general_matrices(diagram, dual_index)
        rows = [list(row) for row in m.rows]
        det_m = cofactor_det(rows)
        if det_m == 0:
            degenerate += 1
            with pytest.raises(NonNullhomologousDual):
                dual_invariants_matrix(diagram, dual_index)
            continue
        x = [
            cofactor_det(_replace_column(rows, i, link_vector)) / det_m
            for i in range(len(rows))
        ]
        others = [i for i in range(len(diagram.components)) if i != dual_index]
        dual = diagram.components[dual_index].knot
        rot_q = dual.rot - sum(
            diagram.components[i].knot.rot * value for i, value in zip(others, x)
        )
        expected = DualKnotInvariants(
            tb_q=dual.tb + cofactor_det(m0.rows) / det_m,
            rot_q=rot_q,
            order=math.lcm(*(value.denominator for value in x)),
            euler_char=dual.euler_char,
        )
        assert dual_invariants_matrix(diagram, dual_index) == expected
    assert degenerate > 0
