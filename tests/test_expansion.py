"""Expansion of rational coefficients: continued fractions, chains, policies."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import attrgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    RangeError,
    Unsupported,
    chain_diagram,
    evaluate_negative_continued_fraction,
    expand_diagram,
    negative_continued_fraction,
    stabilization_counts,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
)
from surgerycalc.cli import _expansion_obj
from surgerycalc.exact import format_rational
from surgerycalc.expansion import ZIGZAG_POLICIES, _Curve, _knot_group

from helpers import (
    dense_diagram,
    entrywise_linking,
    euclid_subtractive_steps,
    fraction_det,
    framed_matrices,
    json_text,
    random_diagram,
)


def framed_m(diagram):
    """The framed linking matrix of a diagram whose components are all surgered."""
    return framed_matrices(diagram)[0]


def knot(tb=-2, rot=1, chi=-1, cid="L"):
    return LegendrianKnotData(id=cid, tb=tb, rot=rot, euler_char=chi)


def expand_knot(source, r, policy="all-negative"):
    """Contact (r)-surgery along one knot: a one-component diagram, as the
    CLI's single-knot mode builds it."""
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=source, contact_coefficient=Fraction(r)),),
        linking=((0,),),
    )
    return expand_diagram(diagram, zigzag_policy=policy)


def steps(presentation):
    """(source id, coefficient, zigzag signs) of each surgered curve, in order."""
    return [
        (curve.source_id, curve.coefficient, curve.signs)
        for curve in presentation.records
        if curve.coefficient is not None
    ]


def stabilizations(presentation):
    return [len(signs) for _, _, signs in steps(presentation)]


# --------------------------------------------------------------------------
# Negative continued fractions


def test_digits_primitive():
    assert negative_continued_fraction(Fraction(-1)) == (-1,)


def test_digits_examples():
    assert negative_continued_fraction(Fraction(-5, 3)) == (-2, -3)
    assert negative_continued_fraction(Fraction(-1, 2)) == (-1, -2)
    assert negative_continued_fraction(Fraction(-2)) == (-2,)


def test_digits_rejects_nonnegative():
    with pytest.raises(RangeError):
        negative_continued_fraction(Fraction(1, 2))
    with pytest.raises(RangeError):
        negative_continued_fraction(0)


def test_round_trip_grid():
    for p in range(1, 41):
        for q in range(1, 41):
            if gcd(p, q) != 1:
                continue
            r = Fraction(-p, q)
            digits = negative_continued_fraction(r)
            assert digits[0] <= -1
            assert all(a <= -2 for a in digits[1:])
            assert evaluate_negative_continued_fraction(digits) == r
            assert len(digits) <= euclid_subtractive_steps(p, q)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
def test_round_trip_hypothesis(p, q):
    r = Fraction(-p, q)
    digits = negative_continued_fraction(r)
    assert evaluate_negative_continued_fraction(digits) == r
    assert digits[0] <= -1 and all(a <= -2 for a in digits[1:])


def fraction_fold(digits):
    """The oracle: a1 - 1/(a2 - 1/(... - 1/am)) folded in Fractions."""
    value = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        value = a - Fraction(1) / value
    return value


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=12))
@example([-3, 1, 1])
@example([0, 0])
@example([2, 1, 1, 0])
@example([0])
def test_continuants_equal_fraction_fold(digits):
    # Both sides raise ZeroDivisionError exactly where a suffix is 0.
    try:
        expected = fraction_fold(digits)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            evaluate_negative_continued_fraction(digits)
    else:
        value = evaluate_negative_continued_fraction(digits)
        assert type(value) is Fraction and value == expected


def test_stabilization_counts():
    assert stabilization_counts((-1,)) == (0,)
    assert stabilization_counts((-2,)) == (1,)
    assert stabilization_counts((-2, -3)) == (1, 1)
    assert stabilization_counts((-4, -2, -3)) == (3, 0, 1)


# --------------------------------------------------------------------------
# Unit fractions


def test_unit_fraction_single_step():
    presentation = expand_knot(knot(tb=-2), 1)
    assert steps(presentation) == [("L", 1, ())]
    # n = 1 is the identity expansion: the surgery stays on the knot itself.
    assert [curve.id for curve in presentation.records] == ["L"]


def test_unit_fraction_three_pushoffs():
    presentation = expand_knot(knot(tb=-2), Fraction(1, 3))
    assert steps(presentation) == [("L", 1, ())] * 3
    matrix = framed_m(dense_diagram(presentation))
    assert matrix == framed_matrices(chain_diagram(-2, 1, -1, 3), "dual")[0]
    assert fraction_det(matrix) == -5


def test_unit_fraction_determinant_grid():
    for tb in range(-10, 0):
        for n in range(1, 11):
            presentation = expand_knot(knot(tb=tb, rot=0, chi=1), Fraction(1, n))
            matrix = framed_m(dense_diagram(presentation))
            assert abs(fraction_det(matrix)) == abs(n * tb + 1)


def test_unit_fraction_homology_matches_topological_numerator():
    # n = 2, tb = -1: topological coefficient (n*tb+1)/n = -1/2, whose
    # numerator has |.| = 1 = |H1| of the surgered manifold.
    presentation = expand_knot(knot(tb=-1, rot=0, chi=1), Fraction(1, 2))
    assert abs(fraction_det(framed_m(dense_diagram(presentation)))) == 1


# --------------------------------------------------------------------------
# Negative rationals


def test_negative_primitive_passthrough():
    presentation = expand_knot(knot(tb=-2), -1)
    assert steps(presentation) == [("L", -1, ())]
    [curve] = presentation.records
    assert (curve.id, curve.tb, curve.rot) == ("L", -2, 1)


def test_negative_five_thirds_chain():
    presentation = expand_knot(knot(tb=-1, rot=0, chi=1), Fraction(-5, 3))
    assert stabilizations(presentation) == [1, 1]
    assert all(coefficient == -1 for _, coefficient, _ in steps(presentation))
    tbs = [curve.tb for curve in presentation.records]
    # Cumulative: each chain curve is a push-off of the previous one,
    # so stabilizations accumulate along the chain.
    assert tbs == [-2, -3]
    matrix = framed_m(dense_diagram(presentation))
    # Framings tb - 1 on the diagonal; linking = tb of the earlier curve.
    assert matrix == [[-3, -2], [-2, -4]]
    assert abs(fraction_det(matrix)) == 8  # |q*tb - p| = |-3 - 5|


def test_negative_homology_grid():
    # |H1| of (tb - p/q)-surgery on a knot in S^3 is |q*tb - p|; the
    # derived (+-1)-presentation must reproduce it as |det|.
    for tb in (-1, -2, -4):
        base = knot(tb=tb, rot=0, chi=1)
        for p in range(1, 13):
            for q in range(1, 13):
                if gcd(p, q) != 1:
                    continue
                presentation = expand_knot(base, Fraction(-p, q))
                value = fraction_det(framed_m(dense_diagram(presentation)))
                assert abs(value) == abs(q * tb - p), (tb, p, q)


# --------------------------------------------------------------------------
# Positive rationals


def test_positive_rational_five_halves():
    presentation = expand_knot(knot(tb=-2), Fraction(5, 2))
    assert [coefficient for _, coefficient, _ in steps(presentation)] == [1, -1, -1]
    # the tail expands -p/(p-q) = -5/3 = [-2, -3]
    assert stabilizations(presentation) == [0, 1, 1]


def test_positive_integer_coefficient():
    presentation = expand_knot(knot(tb=-2), 2)
    assert [coefficient for _, coefficient, _ in steps(presentation)] == [1, -1]
    # -p/(p-q) = -2, digits [-2], one stabilization: the (-1)-curve is a
    # once-stabilized push-off whose contact framing sits 2 below tb.
    assert stabilizations(presentation) == [0, 1]


def test_positive_homology_grid():
    # topological coefficient of contact +p/q is (q*tb + p)/q.
    for tb in (-1, -2, -3):
        base = knot(tb=tb, rot=0, chi=1)
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                presentation = expand_knot(base, Fraction(p, q))
                value = fraction_det(framed_m(dense_diagram(presentation)))
                assert abs(value) == abs(q * tb + p), (tb, p, q)


# --------------------------------------------------------------------------
# Zigzag policies and bookkeeping


def test_policy_all_negative_default():
    presentation = expand_knot(knot(tb=-1, rot=0, chi=1), Fraction(-8, 3))
    assert presentation.zigzag_policy == "all-negative"
    # digits [-3, -3]: counts (2, 1); rot drops with every zigzag.
    assert [signs for _, _, signs in steps(presentation)] == [(-1, -1), (-1,)]
    rots = [curve.rot for curve in presentation.records]
    assert rots == [-2, -3]


def test_policy_all_positive():
    presentation = expand_knot(knot(tb=-1, rot=0, chi=1), Fraction(-8, 3), "all-positive")
    rots = [curve.rot for curve in presentation.records]
    assert rots == [2, 3]
    tbs = [curve.tb for curve in presentation.records]
    assert tbs == [-3, -4]  # tb drop does not depend on the signs


def test_policy_balanced():
    presentation = expand_knot(knot(tb=-1, rot=0, chi=1), Fraction(-8, 3), "balanced")
    assert [signs for _, _, signs in steps(presentation)] == [(-1, 1), (-1,)]


@pytest.mark.parametrize("policy", ["explicit", "", "All-Negative", None, [(-1,)]])
def test_unknown_policy_rejected(policy):
    with pytest.raises(ValueError, match="^unknown zigzag policy"):
        expand_knot(knot(), Fraction(-8, 3), policy)


def test_stabilization_bookkeeping_cumulative():
    presentation = expand_knot(knot(tb=-1, rot=0, chi=1), Fraction(-17, 5))
    # digits [-4, -2, -3], counts (3, 0, 1)
    counts = stabilizations(presentation)
    assert counts == [3, 0, 1]
    running = 0
    for curve, count in zip(presentation.records, counts):
        running += count
        assert curve.tb == -1 - running
        assert curve.rot == 0 - running  # all-negative signs


# --------------------------------------------------------------------------
# Diagram-level expansion


def test_expand_diagram_single_plus_one_passthrough():
    from surgerycalc import AmbientStatus, SurgeryComponent, SurgeryDiagram

    diagram = SurgeryDiagram(
        ambient=AmbientStatus.TIGHT,
        components=(
            SurgeryComponent(knot=knot(tb=-1, rot=0, chi=1), contact_coefficient=Fraction(1)),
        ),
        linking=((0,),),
    )
    presentation = expand_diagram(diagram)
    assert dense_diagram(presentation) == diagram
    assert steps(presentation) == [("L", 1, ())]


def test_expand_diagram_counterexample_passthrough():
    diagram = bundled.load("figure1.json")
    presentation = expand_diagram(diagram)
    assert dense_diagram(presentation) == diagram
    assert sorted(source_id for source_id, _, _ in steps(presentation)) == ["U", "V"]


def test_expand_diagram_unit_fraction():
    from surgerycalc import AmbientStatus, SurgeryComponent, SurgeryDiagram

    diagram = SurgeryDiagram(
        ambient=AmbientStatus.TIGHT,
        components=(
            SurgeryComponent(
                knot=knot(tb=-2, rot=1, chi=-1), contact_coefficient=Fraction(1, 2)
            ),
        ),
        linking=((0,),),
    )
    presentation = expand_diagram(diagram)
    assert steps(presentation) == [("L", 1, ())] * 2
    derived = dense_diagram(presentation)
    assert [component.id for component in derived.components] == ["L#1", "L#2"]
    assert derived.linking[0][1] == -2


def test_expand_diagram_preserves_external_linking():
    from surgerycalc import AmbientStatus, SurgeryComponent, SurgeryDiagram

    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(
                knot=knot(tb=-2, rot=1, chi=-1, cid="A"),
                contact_coefficient=Fraction(1, 2),
            ),
            SurgeryComponent(knot=knot(tb=-1, rot=0, chi=1, cid="B")),
        ),
        linking=((0, 3), (3, 0)),
    )
    presentation = expand_diagram(diagram)
    derived = dense_diagram(presentation)
    assert [component.id for component in derived.components] == ["A#1", "A#2", "B"]
    b = derived.component_index("B")
    for pushoff in ("A#1", "A#2"):
        assert derived.linking[derived.component_index(pushoff)][b] == 3
    # the dual component survives untouched
    assert derived.component("B").contact_coefficient is None


def test_expand_diagram_unsupported_shape():
    from surgerycalc import AmbientStatus, SurgeryComponent, SurgeryDiagram

    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(
                knot=knot(tb=-2, rot=1, chi=-1), contact_coefficient=Fraction(2, 5)
            ),
        ),
        linking=((0,),),
    )
    with pytest.raises(Unsupported):
        expand_diagram(diagram)


def test_expand_diagram_all_coefficients_unit():
    from surgerycalc import AmbientStatus, SurgeryComponent, SurgeryDiagram

    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(
                knot=knot(tb=-3, rot=0, chi=1, cid="A"),
                contact_coefficient=Fraction(-7, 5),
            ),
            SurgeryComponent(
                knot=knot(tb=-2, rot=1, chi=-1, cid="B"),
                contact_coefficient=Fraction(5, 2),
            ),
        ),
        linking=((0, 1), (1, 0)),
    )
    presentation = expand_diagram(diagram)
    for component in dense_diagram(presentation).components:
        assert component.contact_coefficient in (Fraction(1), Fraction(-1))
    assert len(steps(presentation)) == len(presentation.records)


# --------------------------------------------------------------------------
# Lazy views against the eager assembly


def eager_views(sources, groups, source_linking, ambient, policy):
    """The oracle: the derived diagram and the CLI payload as the
    expanders built them eagerly, one validated knot and component per
    curve, with the linking matrix entry by entry."""
    components, payload_steps = [], []
    for source, group in zip(sources, groups):
        for curve in group:
            coefficient = (
                None if curve.coefficient is None else Fraction(curve.coefficient)
            )
            derived = LegendrianKnotData(
                id=curve.id, tb=curve.tb, rot=curve.rot, euler_char=source.euler_char
            )
            components.append(
                SurgeryComponent(knot=derived, contact_coefficient=coefficient)
            )
            if coefficient is not None:
                payload_steps.append(
                    {
                        "source_id": source.id,
                        "coefficient": format_rational(coefficient),
                        "stabilizations": len(curve.signs),
                        "stabilization_signs": list(curve.signs),
                    }
                )
    components = tuple(components)
    linking = entrywise_linking(components, source_linking)
    derived = SurgeryDiagram(ambient=ambient, components=components, linking=linking)
    payload = {
        "ambient": ambient.value,
        "components": [
            {
                "id": component.id,
                "tb": component.knot.tb,
                "rot": component.knot.rot,
                "euler_char": component.knot.euler_char,
                "contact_coefficient": (
                    None
                    if component.contact_coefficient is None
                    else format_rational(component.contact_coefficient)
                ),
            }
            for component in components
        ],
        "linking": [list(row) for row in linking],
        "steps": payload_steps,
        "zigzag_policy": policy,
    }
    return derived, payload


def assert_views_match_eager(presentation, sources, groups, source_linking, ambient, policy):
    derived, payload = eager_views(
        sources, groups, source_linking, ambient, policy
    )
    obj = _expansion_obj(presentation)
    assert obj["linking"] is presentation.linking_blocks
    assert {**obj, "linking": payload["linking"]} == payload
    assert json_text(obj) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # the CLI payload reads the records alone and builds no view
    assert "derived_diagram" not in vars(presentation)
    assert dense_diagram(presentation) == derived


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lazy_views_match_eager_assembly(seed):
    diagram = random_diagram(random.Random(seed), max_components=5)
    knots = [component.knot for component in diagram.components]
    for policy in ZIGZAG_POLICIES:
        try:
            presentation = expand_diagram(diagram, zigzag_policy=policy)
        except Unsupported:
            return
        groups = [
            [_Curve(k.id, k.tb, k.rot, k.euler_char, None, (), k.id)]
            if component.contact_coefficient is None
            else _knot_group(k, component.contact_coefficient, policy)
            for k, component in zip(knots, diagram.components)
        ]
        assert_views_match_eager(
            presentation, knots, groups, diagram.linking, diagram.ambient, policy
        )


# --------------------------------------------------------------------------
# One coefficient-shape dispatch, against the expansion rules by hand

#: (coefficient, stabilization count) of each curve expanding contact
#: (r)-surgery along one knot: +1/n is n unstabilized (+1)-curves; r < 0
#: is a (-1)-chain with counts |a1 + 1|, |ai + 2| from the digits of r;
#: +p/q is one (+1)-curve, then the chain of -p/(p-q).
SHAPE_RULE = {
    "1": [(1, 0)],
    "1/5": [(1, 0)] * 5,
    "-1": [(-1, 0)],
    "-3": [(-1, 2)],  # digits (-3,)
    "-13/5": [(-1, 2), (-1, 1), (-1, 0)],  # digits (-3, -3, -2)
    "-8/7": [(-1, 1)] + [(-1, 0)] * 6,  # digits (-2,) * 7
    "2": [(1, 0), (-1, 1)],  # tail -2: digits (-2,)
    "11/4": [(1, 0), (-1, 1), (-1, 1), (-1, 0), (-1, 0)],  # tail -11/7: (-2, -3, -2, -2)
}

#: The sign of the k-th zigzag of one curve under each named policy.
POLICY_SIGN = {
    "all-negative": lambda k: -1,
    "all-positive": lambda k: 1,
    "balanced": lambda k: -1 if k % 2 == 0 else 1,
}


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
@pytest.mark.parametrize("coefficient", list(SHAPE_RULE))
def test_single_knot_expansion_follows_shape_rule(policy, coefficient):
    source = knot(tb=-2, rot=1, chi=-1)
    presentation = expand_knot(source, Fraction(coefficient), policy)
    assert presentation.zigzag_policy == policy
    curves = presentation.records
    assert {(curve.source_id, curve.euler_char) for curve in curves} == {("L", -1)}
    assert [(curve.coefficient, len(curve.signs)) for curve in curves] == SHAPE_RULE[
        coefficient
    ]
    tb, rot = source.tb, source.rot
    for curve in curves:
        assert curve.signs == tuple(map(POLICY_SIGN[policy], range(len(curve.signs))))
        tb -= len(curve.signs)
        rot += sum(curve.signs)
        assert (curve.tb, curve.rot) == (tb, rot)
    # a later curve links an earlier one by the earlier curve's tb
    linking = dense_diagram(presentation).linking
    for j in range(len(curves)):
        for i in range(j):
            assert linking[i][j] == linking[j][i] == curves[i].tb


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_records_hold_by_construction(policy, seed):
    # What a per-curve step object used to check on construction holds
    # on every record: coefficients are +-1 (None passes through),
    # zigzags are int +-1 and only on (-1)-curves, and each curve's tb
    # and rot move from its predecessor's by its zigzags alone.
    diagram = random_diagram(random.Random(seed), max_components=5)
    try:
        presentation = expand_diagram(diagram, zigzag_policy=policy)
    except Unsupported:
        return
    groups = [
        (source_id, list(group))
        for source_id, group in groupby(
            presentation.records, key=attrgetter("source_id")
        )
    ]
    assert [source_id for source_id, _ in groups] == [
        component.id for component in diagram.components
    ]
    for component, (_, group) in zip(diagram.components, groups):
        source = component.knot
        tb, rot = source.tb, source.rot
        for curve in group:
            assert curve.euler_char == source.euler_char
            if component.contact_coefficient is None:
                assert len(group) == 1 and curve.coefficient is None
            else:
                assert curve.coefficient in (1, -1)
            assert all(type(sign) is int and sign in (1, -1) for sign in curve.signs)
            assert curve.coefficient == -1 or curve.signs == ()
            tb -= len(curve.signs)
            rot += sum(curve.signs)
            assert (curve.tb, curve.rot) == (tb, rot)
            assert type(curve.tb) is int and type(curve.rot) is int



JSON_ROW_SEP = ",\n      "  # between the entries of a row of a top-level key


def assert_writer_matches(presentation, oracle):
    """The row writer and the direct ``matrix()`` both give ``oracle``."""
    blocks = presentation.linking_blocks
    assert list(blocks.row_texts(", ", "", "")) == [
        ", ".join(map(str, row)) for row in oracle
    ]
    assert list(blocks.row_texts(JSON_ROW_SEP, "", "")) == [
        JSON_ROW_SEP.join(map(str, row)) for row in oracle
    ]
    assert json_text({"linking": blocks}) == (
        json.dumps({"linking": oracle}, indent=2, sort_keys=True) + "\n"
    )
    assert blocks.matrix() == oracle


def assert_rows_match_entrywise(diagram, policy):
    presentation = expand_diagram(diagram, zigzag_policy=policy)
    oracle = entrywise_linking(dense_diagram(presentation).components, diagram.linking)
    assert_writer_matches(presentation, oracle)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_built_linking_matches_entrywise_rule(seed):
    diagram = random_diagram(random.Random(seed), max_components=6)
    for policy in ZIGZAG_POLICIES:
        try:
            assert_rows_match_entrywise(diagram, policy)
        except Unsupported:
            return


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
def test_row_built_linking_single_curve_and_interleaved_groups(policy):
    # A -1 group of one curve, then an unsurgered component between two
    # expanded groups.
    components = tuple(
        SurgeryComponent(knot=knot(tb=tb, rot=0, chi=1, cid=cid), contact_coefficient=r)
        for cid, tb, r in (
            ("A", -3, Fraction(-1)),
            ("B", -2, Fraction(-7, 3)),
            ("L", -1, None),
            ("C", -4, Fraction(5, 2)),
        )
    )
    linking = ((0, 1, -2, 3), (1, 0, 4, -1), (-2, 4, 0, 2), (3, -1, 2, 0))
    diagram = SurgeryDiagram(AmbientStatus.UNKNOWN, components, linking)
    assert_rows_match_entrywise(diagram, policy)
    ids = [curve.id for curve in expand_diagram(diagram, zigzag_policy=policy).records]
    assert ids[:2] == ["A", "B#1"] and "L" in ids[3:-3]


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
@pytest.mark.parametrize(
    "coefficient", ["1", "1/5", "-1", "-3", "-13/5", "-8/7", "2", "11/4"]
)
def test_single_knot_expansion_matches_entrywise_rule(policy, coefficient):
    presentation = expand_knot(knot(), Fraction(coefficient), policy)
    oracle = dense_diagram(presentation).linking
    assert_writer_matches(presentation, oracle)


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
def test_row_writer_prefix_offsets_on_distinct_multidigit_tbs(policy):
    # digits -2, -3, ..., -3: every curve is stabilized once more than
    # the one before, so the tbs run -11, -12, ..., -22
    r = evaluate_negative_continued_fraction([-2] + [-3] * 11)
    presentation = expand_knot(knot(tb=-10), r, policy)
    tbs = [curve.tb for curve in presentation.records]
    assert tbs == list(range(-11, -23, -1))
    oracle = dense_diagram(presentation).linking
    assert_writer_matches(presentation, oracle)


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
def test_row_writer_single_curve_groups_and_one_component(policy):
    components = tuple(
        SurgeryComponent(knot=knot(tb=tb, rot=0, chi=1, cid=cid), contact_coefficient=r)
        for cid, tb, r in (
            ("A", -13, Fraction(-1)),
            ("B", 7, Fraction(1)),
            ("L", -2, None),
        )
    )
    linking = ((0, -10, 4), (-10, 0, 123), (4, 123, 0))
    for diagram in (
        SurgeryDiagram(AmbientStatus.TIGHT, components, linking),
        SurgeryDiagram(AmbientStatus.TIGHT, components[:1], ((0,),)),
        SurgeryDiagram(AmbientStatus.TIGHT, components[2:], ((0,),)),
        SurgeryDiagram(AmbientStatus.TIGHT, (), ()),
    ):
        assert_rows_match_entrywise(diagram, policy)


def test_derived_diagram_is_built_once_and_validated():
    # No command reads derived_diagram; the benchmark's span hook on
    # expand_diagram does, so it must stay the dense oracle's diagram.
    presentation = expand_knot(knot(), Fraction(11, 4))
    derived = presentation.derived_diagram
    assert presentation.derived_diagram is derived
    assert derived == dense_diagram(presentation)
    assert derived.ambient is presentation.ambient is AmbientStatus.UNKNOWN
    rng = random.Random(28)
    for policy in ZIGZAG_POLICIES * 20:
        try:
            presentation = expand_diagram(random_diagram(rng), zigzag_policy=policy)
        except Unsupported:
            continue
        assert presentation.derived_diagram == dense_diagram(presentation)


def test_derived_id_collision_raises_at_expand_time():
    components = (
        SurgeryComponent(knot=knot(cid="K"), contact_coefficient=Fraction(1, 2)),
        SurgeryComponent(knot=knot(cid="K#1"), contact_coefficient=Fraction(-1)),
    )
    diagram = SurgeryDiagram(AmbientStatus.UNKNOWN, components, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError, match="^duplicate component id 'K#1'$"):
        expand_diagram(diagram)
