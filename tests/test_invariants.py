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
    MissingCoefficient,
    NonNullhomologousDual,
    PlusOneChainSpec,
    SurgeryComponent,
    SurgeryDiagram,
    Unsupported,
    ValidationError,
    build_general_matrices,
    chain_diagram,
    dual_invariants,
    dual_invariants_closed_form,
    dual_invariants_matrix,
    expand_diagram,
    homological_order,
)
from surgerycalc.selftest import _cofactor_det as cofactor_det

from helpers import random_diagram


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


def _dual_cases(rng):
    """Random unexpanded diagrams with exactly one unsurgered component."""
    while True:
        diagram = random_diagram(rng, max_components=6)
        unsurgered = [c.id for c in diagram.components if not c.is_surgered]
        if len(unsurgered) == 1:
            yield diagram, unsurgered[0]


def _replace_column(rows, index, column):
    return [row[:index] + [v] + row[index + 1 :] for row, v in zip(rows, column)]


def test_matrix_path_matches_cofactor_oracle_randomized():
    # Oracle shares no code with the elimination kernel: tb_Q from the
    # bordered determinant, the solution x from Cramer's rule. It runs on
    # the diagram itself when every coefficient is an integer and on its
    # expansion otherwise; dual_invariants gets the unexpanded diagram.
    seen = dict.fromkeys(("degenerate", "expanded", "integer", "unsupported"), 0)
    checked = 0
    for diagram, dual_id in _dual_cases(random.Random(20261017)):
        if checked == 300:
            break
        coefficients = [c.contact_coefficient for c in diagram.components]
        if all(r is None or r.denominator == 1 for r in coefficients):
            oracle_diagram = diagram
            unit_only = all(r in (None, 1, -1) for r in coefficients)
            kind = None if unit_only else "integer"
        else:
            try:
                oracle_diagram = expand_diagram(diagram).derived_diagram
            except Unsupported:
                seen["unsupported"] += 1
                with pytest.raises(Unsupported):
                    dual_invariants(diagram, dual_id)
                continue
            kind = "expanded"
        if not 1 <= len(oracle_diagram.components) - 1 <= 6:
            continue
        checked += 1
        if kind:
            seen[kind] += 1
        dual_index = oracle_diagram.component_index(dual_id)
        m, m0, link_vector = build_general_matrices(oracle_diagram, dual_index)
        rows = [list(row) for row in m.rows]
        det_m = cofactor_det(rows)
        if det_m == 0:
            seen["degenerate"] += 1
            with pytest.raises(NonNullhomologousDual):
                dual_invariants(diagram, dual_id)
            continue
        x = [
            cofactor_det(_replace_column(rows, i, link_vector)) / det_m
            for i in range(len(rows))
        ]
        others = [c for c in oracle_diagram.components if c.id != dual_id]
        dual = oracle_diagram.components[dual_index].knot
        rot_q = dual.rot - sum(c.knot.rot * value for c, value in zip(others, x))
        expected = DualKnotInvariants(
            tb_q=dual.tb + cofactor_det(m0.rows) / det_m,
            rot_q=rot_q,
            order=math.lcm(*(value.denominator for value in x)),
            euler_char=dual.euler_char,
        )
        assert dual_invariants(diagram, dual_id) == expected
    assert all(seen.values()), seen


def _one_surgery_and_dual(coefficient, dual_linking=1):
    """Knot K (tb = -1) surgered with ``coefficient``; unsurgered dual L."""
    return SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(
                knot=LegendrianKnotData(id="K", tb=-1, rot=0, euler_char=1),
                contact_coefficient=coefficient,
            ),
            SurgeryComponent(
                knot=LegendrianKnotData(id="L", tb=-1, rot=0, euler_char=1)
            ),
        ),
        linking=((0, dual_linking), (dual_linking, 0)),
    )


@pytest.mark.parametrize(
    "diagram, component_id, error",
    [
        (bundled.load("s1xs2.json"), "U", NonNullhomologousDual),
        (bundled.load("figure1.json"), "Z", ValidationError),
        (_one_surgery_and_dual(Fraction(2, 5)), "L", Unsupported),
        (_one_surgery_and_dual(None), "L", MissingCoefficient),
        (_one_surgery_and_dual(Fraction(-1), dual_linking=0), "L", None),
    ],
)
def test_dual_invariants_errors(diagram, component_id, error):
    # A second unsurgered component makes the dual's complement
    # unsurgered (MissingCoefficient); the last row is the control.
    if error is None:
        assert dual_invariants(diagram, component_id).tb_q == -1
        return
    with pytest.raises(error):
        dual_invariants(diagram, component_id)


def test_dual_invariants_keeps_integer_coefficients_unexpanded():
    # Contact (-3)-surgery along K: the matrix path runs on the diagram as
    # given, with K's unstabilized rot = 0. The expansion that `expand`
    # prints stabilizes K twice (rot = -2 under all-negative zigzags), so
    # rot_Q differs there, while tb_Q and the order agree.
    diagram = _one_surgery_and_dual(Fraction(-3))
    invariants = dual_invariants(diagram, "L")
    assert invariants == dual_invariants_matrix(diagram, 1)
    assert invariants == DualKnotInvariants(
        tb_q=Fraction(-3, 4), rot_q=Fraction(0), order=4, euler_char=1
    )
    derived = expand_diagram(diagram).derived_diagram
    assert [c.knot.rot for c in derived.components] == [-2, 0]
    expanded = dual_invariants(derived, "L")
    assert (expanded.tb_q, expanded.order) == (invariants.tb_q, invariants.order)
    assert expanded.rot_q == Fraction(-1, 2)
