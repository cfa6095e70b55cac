"""Expansion of rational coefficients: continued fractions, chains, policies."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    NotCoprime,
    RangeError,
    Unsupported,
    build_linking_matrix,
    PlusOneChainSpec,
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
    classify_lemma_tight,
)
from surgerycalc.expansion import ZIGZAG_POLICIES

from helpers import euclid_subtractive_steps


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
    assert matrix == build_linking_matrix(PlusOneChainSpec(-2, 1, -1, 3))
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


def test_policy_explicit_wrong_length():
    from surgerycalc import ValidationError

    with pytest.raises(ValidationError):
        expand_negative_rational(
            knot(tb=-1, rot=0, chi=1), Fraction(-8, 3), zigzag_policy=[(1,), (1,)]
        )


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
