"""Expansion of rational coefficients: continued fractions, chains, policies."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    ExpansionStep,
    LegendrianKnotData,
    NotCoprime,
    RangeError,
    Unsupported,
    PlusOneChainSpec,
    chain_diagram,
    det,
    evaluate_negative_continued_fraction,
    expand_diagram,
    expand_negative_rational,
    expand_positive_rational,
    expand_positive_unit_fraction,
    negative_continued_fraction,
    presentation_matrix,
    stabilization_counts,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    as_rational,
    classify_lemma_tight,
)
from surgerycalc.cli import _expansion_obj
from surgerycalc.diagram import LinkingBlocks, json_text
from surgerycalc.exact import format_rational
from surgerycalc.expansion import ZIGZAG_POLICIES, _Curve, _knot_group

from helpers import entrywise_linking, euclid_subtractive_steps, random_diagram


def knot(tb=-2, rot=1, chi=-1, cid="L"):
    return LegendrianKnotData(id=cid, tb=tb, rot=rot, euler_char=chi)


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


def test_stabilization_counts():
    assert stabilization_counts((-1,)) == (0,)
    assert stabilization_counts((-2,)) == (1,)
    assert stabilization_counts((-2, -3)) == (1, 1)
    assert stabilization_counts((-4, -2, -3)) == (3, 0, 1)


# --------------------------------------------------------------------------
# Unit fractions


def test_unit_fraction_single_step():
    presentation = expand_positive_unit_fraction(knot(tb=-2), 1)
    assert len(presentation.steps) == 1
    step = presentation.steps[0]
    assert step.coefficient == 1 and step.stabilizations == 0
    # n = 1 is the identity expansion: the surgery stays on the knot itself.
    assert presentation.derived_diagram.ids == ("L",)


def test_unit_fraction_three_pushoffs():
    presentation = expand_positive_unit_fraction(knot(tb=-2), 3)
    assert [step.coefficient for step in presentation.steps] == [1, 1, 1]
    matrix = presentation_matrix(presentation.derived_diagram)
    assert matrix == presentation_matrix(
        chain_diagram(PlusOneChainSpec(-2, 1, -1, 3), dual_id=None)
    )
    assert det(matrix) == -5


def test_unit_fraction_determinant_grid():
    for tb in range(-10, 0):
        for n in range(1, 11):
            presentation = expand_positive_unit_fraction(knot(tb=tb, rot=0, chi=1), n)
            matrix = presentation_matrix(presentation.derived_diagram)
            assert abs(det(matrix)) == abs(n * tb + 1)


def test_unit_fraction_homology_matches_topological_numerator():
    # n = 2, tb = -1: topological coefficient (n*tb+1)/n = -1/2, whose
    # numerator has |.| = 1 = |H1| of the surgered manifold.
    presentation = expand_positive_unit_fraction(knot(tb=-1, rot=0, chi=1), 2)
    assert abs(det(presentation_matrix(presentation.derived_diagram))) == 1


# --------------------------------------------------------------------------
# Negative rationals


def test_negative_primitive_passthrough():
    presentation = expand_negative_rational(knot(tb=-2), Fraction(-1))
    assert len(presentation.steps) == 1
    step = presentation.steps[0]
    assert step.coefficient == -1 and step.stabilizations == 0
    assert presentation.derived_diagram.ids == ("L",)
    derived = presentation.derived_diagram.components[0].knot
    assert derived.tb == -2 and derived.rot == 1


def test_negative_five_thirds_chain():
    presentation = expand_negative_rational(knot(tb=-1, rot=0, chi=1), Fraction(-5, 3))
    assert [step.stabilizations for step in presentation.steps] == [1, 1]
    assert all(step.coefficient == -1 for step in presentation.steps)
    tbs = [c.knot.tb for c in presentation.derived_diagram.components]
    # Cumulative: each chain curve is a push-off of the previous one,
    # so stabilizations accumulate along the chain.
    assert tbs == [-2, -3]
    matrix = presentation_matrix(presentation.derived_diagram)
    # Framings tb - 1 on the diagonal; linking = tb of the earlier curve.
    assert matrix.rows == ((Fraction(-3), Fraction(-2)), (Fraction(-2), Fraction(-4)))
    assert abs(det(matrix)) == 8  # |q*tb - p| = |-3 - 5|


def test_negative_homology_grid():
    # |H1| of (tb - p/q)-surgery on a knot in S^3 is |q*tb - p|; the
    # derived (+-1)-presentation must reproduce it as |det|.
    for tb in (-1, -2, -4):
        base = knot(tb=tb, rot=0, chi=1)
        for p in range(1, 13):
            for q in range(1, 13):
                if gcd(p, q) != 1:
                    continue
                presentation = expand_negative_rational(base, Fraction(-p, q))
                value = det(presentation_matrix(presentation.derived_diagram))
                assert abs(value) == abs(q * tb - p), (tb, p, q)


def test_negative_rejects_positive():
    with pytest.raises(RangeError):
        expand_negative_rational(knot(), Fraction(1, 2))


# --------------------------------------------------------------------------
# Positive rationals


def test_positive_rational_five_halves():
    presentation = expand_positive_rational(knot(tb=-2), 5, 2)
    coefficients = [step.coefficient for step in presentation.steps]
    assert coefficients == [1, -1, -1]
    # the tail expands -p/(p-q) = -5/3 = [-2, -3]
    assert [step.stabilizations for step in presentation.steps] == [0, 1, 1]


def test_positive_integer_coefficient():
    presentation = expand_positive_rational(knot(tb=-2), 2, 1)
    assert [step.coefficient for step in presentation.steps] == [1, -1]
    # -p/(p-q) = -2, digits [-2], one stabilization: the (-1)-curve is a
    # once-stabilized push-off whose contact framing sits 2 below tb.
    assert [step.stabilizations for step in presentation.steps] == [0, 1]


def test_positive_rational_not_coprime():
    with pytest.raises(NotCoprime):
        expand_positive_rational(knot(), 2, 2)


def test_positive_rational_range_error():
    with pytest.raises(RangeError):
        expand_positive_rational(knot(), 1, 2)
    with pytest.raises(RangeError):
        expand_positive_rational(knot(), 1, 1)


def test_positive_homology_grid():
    # topological coefficient of contact +p/q is (q*tb + p)/q.
    for tb in (-1, -2, -3):
        base = knot(tb=tb, rot=0, chi=1)
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                presentation = expand_positive_rational(base, p, q)
                value = det(presentation_matrix(presentation.derived_diagram))
                assert abs(value) == abs(q * tb + p), (tb, p, q)


# --------------------------------------------------------------------------
# Zigzag policies and bookkeeping


def test_policy_all_negative_default():
    presentation = expand_negative_rational(knot(tb=-1, rot=0, chi=1), Fraction(-8, 3))
    assert presentation.zigzag_policy == "all-negative"
    # digits [-3, -3]: counts (2, 1); rot drops with every zigzag.
    assert [step.stabilization_signs for step in presentation.steps] == [
        (-1, -1),
        (-1,),
    ]
    rots = [c.knot.rot for c in presentation.derived_diagram.components]
    assert rots == [-2, -3]


def test_policy_all_positive():
    presentation = expand_negative_rational(
        knot(tb=-1, rot=0, chi=1), Fraction(-8, 3), zigzag_policy="all-positive"
    )
    rots = [c.knot.rot for c in presentation.derived_diagram.components]
    assert rots == [2, 3]
    tbs = [c.knot.tb for c in presentation.derived_diagram.components]
    assert tbs == [-3, -4]  # tb drop does not depend on the signs


def test_policy_balanced():
    presentation = expand_negative_rational(
        knot(tb=-1, rot=0, chi=1), Fraction(-8, 3), zigzag_policy="balanced"
    )
    assert [step.stabilization_signs for step in presentation.steps] == [
        (-1, 1),
        (-1,),
    ]


def test_policy_explicit():
    presentation = expand_negative_rational(
        knot(tb=-1, rot=0, chi=1),
        Fraction(-8, 3),
        zigzag_policy=[(1, -1), (1,)],
    )
    assert presentation.zigzag_policy == "explicit"
    rots = [c.knot.rot for c in presentation.derived_diagram.components]
    assert rots == [0, 1]


@pytest.mark.parametrize(
    "coefficient, stabilizations, signs, message",
    [
        (2, 0, (), "expansion step coefficient must be +1 or -1, got 2"),
        (Fraction(1, 2), 0, (), "expansion step coefficient must be +1 or -1, got 1/2"),
        ("-1/2", 0, (), "expansion step coefficient must be +1 or -1, got -1/2"),
        (-1, -1, (), "stabilization count must be non-negative"),
        (-1, 2, (1,), "1 stabilization signs for 2 stabilizations"),
        (-1, 1, (1, -1), "2 stabilization signs for 1 stabilizations"),
        (1, 2, (1, 0), "stabilization signs must be +1 or -1"),
        (1, 1, (2,), "stabilization signs must be +1 or -1"),
    ],
)
def test_expansion_step_rejects(coefficient, stabilizations, signs, message):
    with pytest.raises(ValidationError) as raised:
        ExpansionStep("K", coefficient, stabilizations, signs)
    assert str(raised.value) == message


def test_expansion_step_normalizes_its_fields():
    for coefficient in (1, -1, "1", "-1", Fraction(-1)):
        step = ExpansionStep("K", coefficient, 2, [1, -1])
        assert type(step.coefficient) is Fraction
        assert step.coefficient == as_rational(coefficient)
        assert step.stabilization_signs == (1, -1)


def test_policy_explicit_wrong_length():
    from surgerycalc import ValidationError

    with pytest.raises(ValidationError):
        expand_negative_rational(
            knot(tb=-1, rot=0, chi=1), Fraction(-8, 3), zigzag_policy=[(1,), (1,)]
        )


def _expand_minus_five_thirds(source, policy):
    return expand_negative_rational(source, Fraction(-5, 3), zigzag_policy=policy)


def _expand_plus_five_halves(source, policy):
    # one (+1) curve, then the chain of -5/3: the same two stabilized curves
    return expand_positive_rational(source, 5, 2, zigzag_policy=policy)


@pytest.mark.parametrize(
    "expander", [_expand_minus_five_thirds, _expand_plus_five_halves]
)
@pytest.mark.parametrize(
    "signs, message",
    [
        ([(-1,), (2,)], "stabilization signs must be +1 or -1"),
        ([(0,), (-1,)], "stabilization signs must be +1 or -1"),
        # a wrong length anywhere is named before any bad sign value
        ([(2,), (1, 1)], "curve 2 needs 1 stabilization signs, got 2"),
        # a sign equal to 1 but not an int makes rot a non-int; the
        # checks run curve by curve, rot before the sign values
        ([(1.0,), (2,)], "L#1.rot must be an integer, got 2.0"),
        ([(2,), (1.0,)], "stabilization signs must be +1 or -1"),
        ([(-1,), (1.0,)], "L#2.rot must be an integer, got 1.0"),
    ],
)
def test_explicit_signs_checked_at_the_call(expander, signs, message):
    with pytest.raises(ValidationError) as raised:
        expander(knot(), signs)
    assert str(raised.value) == message


def test_stabilization_bookkeeping_cumulative():
    presentation = expand_negative_rational(knot(tb=-1, rot=0, chi=1), Fraction(-17, 5))
    # digits [-4, -2, -3], counts (3, 0, 1)
    counts = [step.stabilizations for step in presentation.steps]
    assert counts == [3, 0, 1]
    running = 0
    for component, step in zip(
        presentation.derived_diagram.components, presentation.steps
    ):
        running += step.stabilizations
        assert component.knot.tb == -1 - running
        assert component.knot.rot == 0 - running  # all-negative signs


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
    assert presentation.derived_diagram == diagram
    assert [step.coefficient for step in presentation.steps] == [1]


def test_expand_diagram_counterexample_passthrough():
    diagram = bundled.load("figure1.json")
    presentation = expand_diagram(diagram)
    assert presentation.derived_diagram == diagram
    assert sorted(step.source_id for step in presentation.steps) == ["U", "V"]


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
    assert [step.coefficient for step in presentation.steps] == [1, 1]
    assert presentation.derived_diagram.ids == ("L#1", "L#2")
    assert presentation.derived_diagram.linking[0][1] == -2


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
    derived = presentation.derived_diagram
    assert derived.ids == ("A#1", "A#2", "B")
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
    for component in presentation.derived_diagram.components:
        assert component.contact_coefficient in (Fraction(1), Fraction(-1))
    assert len(presentation.steps) == len(presentation.derived_diagram.components)


# --------------------------------------------------------------------------
# Lazy views against the eager assembly


def eager_views(sources, groups, source_linking, ambient, policy):
    """The oracle: components, steps, derived diagram and CLI payload as
    the expanders built them eagerly, one validated knot, component and
    step per curve, with the linking matrix entry by entry."""
    components, steps = [], []
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
                steps.append(
                    ExpansionStep(
                        source_id=source.id,
                        coefficient=coefficient,
                        stabilizations=len(curve.signs),
                        stabilization_signs=curve.signs,
                    )
                )
    components, steps = tuple(components), tuple(steps)
    linking = entrywise_linking(SimpleNamespace(components=components), source_linking)
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
        "steps": [
            {
                "source_id": step.source_id,
                "coefficient": format_rational(step.coefficient),
                "stabilizations": step.stabilizations,
                "stabilization_signs": list(step.stabilization_signs),
            }
            for step in steps
        ],
        "zigzag_policy": policy if isinstance(policy, str) else "explicit",
    }
    return components, steps, derived, payload


def assert_views_match_eager(presentation, sources, groups, source_linking, ambient, policy):
    components, steps, derived, payload = eager_views(
        sources, groups, source_linking, ambient, policy
    )
    obj = _expansion_obj(presentation)
    assert obj["linking"] is presentation.linking_blocks
    assert {**obj, "linking": payload["linking"]} == payload
    assert json_text(obj) == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # the CLI payload reads the records alone and builds no view
    assert not {"components", "steps", "derived_diagram"} & vars(presentation).keys()
    assert presentation.components == components
    assert presentation.steps == steps
    assert presentation.derived_diagram == derived


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
            [_Curve(k.id, k.tb, k.rot, None, ())]
            if component.contact_coefficient is None
            else _knot_group(k, component.contact_coefficient, policy)
            for k, component in zip(knots, diagram.components)
        ]
        assert_views_match_eager(
            presentation, knots, groups, diagram.linking_number, diagram.ambient, policy
        )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(-4, 4),
    st.sampled_from((1, -1, -3)),
    st.integers(1, 30),
    st.integers(1, 30),
    st.booleans(),
    st.data(),
)
def test_lazy_views_match_eager_assembly_explicit_signs(tb, rot, chi, a, b, negative, data):
    source = knot(tb=tb, rot=rot, chi=chi)
    if gcd(a, b) != 1 or (not negative and a <= b):
        return
    tail = Fraction(-a, b) if negative else Fraction(-a, a - b)
    counts = stabilization_counts(negative_continued_fraction(tail))
    signs = [
        tuple(data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)))
        for n in counts
    ]
    if negative:
        presentation = expand_negative_rational(source, tail, zigzag_policy=signs)
        coefficient = tail
    else:
        presentation = expand_positive_rational(source, a, b, zigzag_policy=signs)
        coefficient = Fraction(a, b)
    group = _knot_group(source, coefficient, signs)
    assert_views_match_eager(
        presentation, [source], [group], lambda g, h: 0, AmbientStatus.UNKNOWN, signs
    )


# --------------------------------------------------------------------------
# One coefficient-shape dispatch


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
@pytest.mark.parametrize(
    "coefficient, expander, args",
    [
        ("1", expand_positive_unit_fraction, (1,)),
        ("1/3", expand_positive_unit_fraction, (3,)),
        ("-1", expand_negative_rational, (Fraction(-1),)),
        ("-5/3", expand_negative_rational, (Fraction(-5, 3),)),
        ("-3", expand_negative_rational, (-3,)),
        ("2", expand_positive_rational, (2, 1)),
        ("5/2", expand_positive_rational, (5, 2)),
        ("7/3", expand_positive_rational, (7, 3)),
    ],
)
def test_single_knot_expanders_match_expand_diagram(policy, coefficient, expander, args):
    source = knot(tb=-2, rot=1, chi=-1)
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=source, contact_coefficient=Fraction(coefficient)),
        ),
        linking=((0,),),
    )
    # The unit-fraction expander makes no zigzag choice and reports the
    # default policy.
    takes_policy = expander is not expand_positive_unit_fraction
    kwargs = {"zigzag_policy": policy} if takes_policy else {}
    single = expander(source, *args, **kwargs)
    via_diagram = expand_diagram(diagram, zigzag_policy=policy)
    assert single.steps == via_diagram.steps
    assert single.derived_diagram == via_diagram.derived_diagram
    assert single.zigzag_policy == (policy if takes_policy else "all-negative")
    assert via_diagram.zigzag_policy == policy
    if coefficient in ("1", "-1"):
        assert via_diagram.derived_diagram == diagram


@pytest.mark.parametrize(
    "p, q, error, message",
    [
        (0, 1, ValidationError, "p must be a positive integer, got 0"),
        (3, -2, ValidationError, "q must be a positive integer, got -2"),
        (True, 1, ValidationError, "p must be a positive integer, got True"),
        (4, 2, NotCoprime, "p = 4 and q = 2 are not relatively prime"),
    ],
)
def test_positive_pq_checks_shared_with_lemma(p, q, error, message):
    for call in (
        lambda: expand_positive_rational(knot(), p, q),
        lambda: classify_lemma_tight(True, p, q),
    ):
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message


# --------------------------------------------------------------------------
# Row-built linking against the entry-wise rule


JSON_ROW_SEP = ",\n      "  # between the entries of a row of a top-level key


def assert_writer_matches(presentation, oracle):
    """The row writer and the lazy ``derived_diagram`` both give ``oracle``."""
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
    assert presentation.derived_diagram.linking == oracle


def assert_rows_match_entrywise(diagram, policy):
    presentation = expand_diagram(diagram, zigzag_policy=policy)
    oracle = entrywise_linking(presentation, diagram.linking_number)
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
    derived = expand_diagram(diagram, zigzag_policy=policy).derived_diagram
    assert derived.ids[:2] == ("A", "B#1") and "L" in derived.ids[3:-3]


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
@pytest.mark.parametrize(
    "expander, args",
    [
        (expand_positive_unit_fraction, (1,)),
        (expand_positive_unit_fraction, (5,)),
        (expand_negative_rational, (Fraction(-1),)),
        (expand_negative_rational, (Fraction(-3),)),
        (expand_negative_rational, (Fraction(-13, 5),)),
        (expand_negative_rational, (Fraction(-8, 7),)),
        (expand_positive_rational, (2, 1)),
        (expand_positive_rational, (11, 4)),
    ],
)
def test_single_knot_expanders_match_entrywise_rule(policy, expander, args):
    takes_policy = expander is not expand_positive_unit_fraction
    kwargs = {"zigzag_policy": policy} if takes_policy else {}
    presentation = expander(knot(), *args, **kwargs)
    assert_writer_matches(presentation, entrywise_linking(presentation, lambda a, b: 0))


@pytest.mark.parametrize("policy", ZIGZAG_POLICIES)
def test_row_writer_prefix_offsets_on_distinct_multidigit_tbs(policy):
    # digits -2, -3, ..., -3: every curve is stabilized once more than
    # the one before, so the tbs run -11, -12, ..., -22
    r = evaluate_negative_continued_fraction([-2] + [-3] * 11)
    presentation = expand_negative_rational(knot(tb=-10), r, zigzag_policy=policy)
    tbs = [component.knot.tb for component in presentation.components]
    assert tbs == list(range(-11, -23, -1))
    assert_writer_matches(presentation, entrywise_linking(presentation, lambda a, b: 0))


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
    presentation = expand_positive_rational(knot(), 11, 4)
    derived = presentation.derived_diagram
    assert presentation.derived_diagram is derived
    assert derived.ids == tuple(component.id for component in presentation.components)
    assert derived.ambient is presentation.ambient is AmbientStatus.UNKNOWN


def test_linking_blocks_check_symmetry_like_surgery_diagram():
    # groups of 1, 2 and 1 curves; source[1][2] = 5 but source[2][1] = 4
    tbs = ((-1,), (-2, -2), (-3,))
    source = ((0, 1, 2), (1, 0, 5), (2, 4, 0))
    with pytest.raises(ValidationError) as raised:
        LinkingBlocks(tbs=tbs, source=source)
    matrix = ((0, 1, 1, 2), (1, 0, -2, 5), (1, -2, 0, 5), (2, 4, 4, 0))
    components = tuple(
        SurgeryComponent(knot=knot(cid=cid)) for cid in ("A", "B#1", "B#2", "C")
    )
    with pytest.raises(ValidationError) as expected:
        SurgeryDiagram(AmbientStatus.UNKNOWN, components, matrix)
    assert str(raised.value) == str(expected.value) == "linking[3][1] != linking[1][3]"
    symmetric = LinkingBlocks(tbs=tbs, source=((0, 1, 2), (1, 0, 4), (2, 4, 0)))
    assert symmetric.matrix() == (
        (0, 1, 1, 2), (1, 0, -2, 4), (1, -2, 0, 4), (2, 4, 4, 0)
    )


def test_derived_id_collision_raises_at_expand_time():
    components = (
        SurgeryComponent(knot=knot(cid="K"), contact_coefficient=Fraction(1, 2)),
        SurgeryComponent(knot=knot(cid="K#1"), contact_coefficient=Fraction(-1)),
    )
    diagram = SurgeryDiagram(AmbientStatus.UNKNOWN, components, ((0, 1), (1, 0)))
    with pytest.raises(ValidationError, match="^duplicate component id 'K#1'$"):
        expand_diagram(diagram)
