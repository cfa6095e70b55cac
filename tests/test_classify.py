"""Classifiers: Bennequin reports, the three rules, the dispatcher."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    Conclusion,
    InconsistentAssumptions,
    LegendrianKnotData,
    NotCoprime,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    bennequin_check,
    chain_diagram,
    classify_diagram,
    classify_lemma_tight,
    classify_thm1,
    classify_thm2,
    dual_invariants_closed_form,
    verdict_from_bennequin,
    verdict_to_obj,
)
from surgerycalc.classify import CONWAY_FLAG, RULE_NONE
from surgerycalc.diagram import MissingCoefficient
from surgerycalc.expansion import Unsupported
from surgerycalc.invariants import (
    DualKnotInvariants,
    NonNullhomologousDual,
    dual_invariants,
)

from helpers import RELATIONS, random_diagram, reverse_orientation, stated_comparisons


def knot(tb, rot, chi, cid="L"):
    return LegendrianKnotData(id=cid, tb=tb, rot=rot, euler_char=chi)


# --------------------------------------------------------------------------
# Bennequin reports


def test_bennequin_standard_unknot_equality():
    invariants = DualKnotInvariants(
        tb_q=Fraction(-1), rot_q=Fraction(0), order=1, euler_char=1
    )
    report = bennequin_check(invariants)
    assert report.lhs == -1 and report.rhs == -1
    assert report.satisfied


def test_bennequin_violation_direct():
    invariants = DualKnotInvariants(
        tb_q=Fraction(2), rot_q=Fraction(-1), order=1, euler_char=-1
    )
    report = bennequin_check(invariants)
    assert report.lhs == 3 and report.rhs == 1
    assert not report.satisfied
    verdict = verdict_from_bennequin(report)
    assert verdict.conclusion is Conclusion.OVERTWISTED
    assert verdict.rule == "bennequin-violation"
    assert any("reconstructed" in line for line in verdict.trace)


def test_bennequin_full_pipeline():
    invariants = dual_invariants_closed_form(-2, 2, -1, 1)
    assert invariants.tb_q == 2 and invariants.rot_q == -2
    report = bennequin_check(invariants)
    assert report.lhs == 4 and report.rhs == 1
    assert not report.satisfied


# --------------------------------------------------------------------------
# Overtwisting criterion in tight manifolds


def test_thm1_fires():
    verdict = classify_thm1(AmbientStatus.TIGHT, knot(-2, 2, -1), 5)
    assert verdict.conclusion is Conclusion.OVERTWISTED
    assert verdict.rule == "thm1"
    assert any("violation" in line for line in verdict.trace)


def test_thm1_standard_unknot_inconclusive():
    verdict = classify_thm1(AmbientStatus.TIGHT, knot(-1, 0, 1), 1)
    assert verdict.conclusion is Conclusion.INCONCLUSIVE
    assert verdict.rule == "none"


def test_thm1_unknown_ambient_inconclusive():
    verdict = classify_thm1(AmbientStatus.UNKNOWN, knot(-2, 2, -1), 1)
    assert verdict.conclusion is Conclusion.INCONCLUSIVE


def test_thm1_tests_absolute_rotation():
    # rot = -2 fails the literal rot > -chi = 1, but the reversed knot
    # has rot 2: the same surgery, so the same verdict, and the trace
    # says the orientation was reversed.
    negative = classify_thm1(AmbientStatus.TIGHT, knot(-2, -2, -1), 1)
    positive = classify_thm1(AmbientStatus.TIGHT, knot(-2, 2, -1), 1)
    assert negative.conclusion is positive.conclusion is Conclusion.OVERTWISTED
    assert any("orientation reversed" in line for line in negative.trace)
    assert not any("orientation reversed" in line for line in positive.trace)


def test_thm1_soundness_coupling():
    # Every Overtwisted verdict re-executes its mechanism: the closed
    # form invariants must genuinely violate the bound.
    for tb in range(-5, 0):
        for n in range(1, 6):
            if n * tb + 1 == 0:
                continue
            for chi in (-1, -3):
                for rot in range(-chi + 1, -chi - tb + 1):
                    verdict = classify_thm1(
                        AmbientStatus.TIGHT, knot(tb, rot, chi), n
                    )
                    assert verdict.conclusion is Conclusion.OVERTWISTED
                    report = bennequin_check(
                        dual_invariants_closed_form(tb, rot, chi, n)
                    )
                    assert not report.satisfied


def test_thm1_strictness_boundary_grid():
    # rot = -chi exactly: the bound chain endpoints coincide, so the
    # criterion certifies nothing and must stay inconclusive.
    for tb in range(-6, 0):
        for chi in (-1, -3, -5):
            for n in range(1, 7):
                boundary = -chi
                verdict = classify_thm1(AmbientStatus.TIGHT, knot(tb, boundary, chi), n)
                assert verdict.conclusion is Conclusion.INCONCLUSIVE
                if n * tb + 1 != 0:
                    order = abs(n * tb + 1)
                    assert Fraction(chi + 2 * boundary, order) == Fraction(-chi, order)


def test_thm1_unrealizable_input_has_honest_trace():
    # tb + |rot| > -chi already breaks the classical bound for the knot
    # itself; the verdict still follows the criterion but the trace must
    # not assert the (then false) middle chain inequality.
    verdict = classify_thm1(AmbientStatus.TIGHT, knot(-1, 100, -1), 2)
    assert verdict.conclusion is Conclusion.OVERTWISTED
    assert any("break the classical bound" in line for line in verdict.trace)
    assert not any(">= (euler_char + 2*rot)/order" in line for line in verdict.trace)


def test_thm1_degenerate_order_zero_edge():
    # tb = -1, n = 1 meets the hypotheses with rot = 2, chi = -1 but the
    # dual is not rationally nullhomologous; the verdict still stands on
    # the criterion, with the degeneracy recorded.
    verdict = classify_thm1(AmbientStatus.TIGHT, knot(-1, 2, -1), 1)
    assert verdict.conclusion is Conclusion.OVERTWISTED
    assert any("not rationally nullhomologous" in line for line in verdict.trace)


# --------------------------------------------------------------------------
# Overtwisted ambient criterion


def test_thm2_fires_on_unit_fractions():
    verdict = classify_thm2(AmbientStatus.OVERTWISTED, Fraction(1, 4))
    assert verdict.conclusion is Conclusion.OVERTWISTED
    assert verdict.rule == "thm2"
    assert classify_thm2(AmbientStatus.OVERTWISTED, Fraction(1)).conclusion is (
        Conclusion.OVERTWISTED
    )


def test_thm2_negative_coefficient_inconclusive():
    verdict = classify_thm2(AmbientStatus.OVERTWISTED, Fraction(-1))
    assert verdict.conclusion is Conclusion.INCONCLUSIVE


def test_thm2_needs_overtwisted_ambient():
    assert (
        classify_thm2(AmbientStatus.TIGHT, Fraction(1, 4)).conclusion
        is Conclusion.INCONCLUSIVE
    )


# --------------------------------------------------------------------------
# Tightness persistence


def test_lemma_tight_integer_surgery():
    verdict = classify_lemma_tight(True, 2, 1)
    assert verdict.conclusion is Conclusion.TIGHT
    assert verdict.rule == "lemma-tight"
    assert any("preserves tightness" in line for line in verdict.trace)


def test_lemma_tight_needs_p_greater_q():
    assert classify_lemma_tight(True, 1, 2).conclusion is Conclusion.INCONCLUSIVE


def test_lemma_tight_needs_premise():
    assert classify_lemma_tight(False, 5, 2).conclusion is Conclusion.INCONCLUSIVE


def test_lemma_tight_not_coprime():
    with pytest.raises(NotCoprime):
        classify_lemma_tight(True, 2, 2)


@pytest.mark.parametrize(
    "p, q, error, message",
    [
        (0, 1, ValidationError, "p must be a positive integer, got 0"),
        (-3, 1, ValidationError, "p must be a positive integer, got -3"),
        (3, -2, ValidationError, "q must be a positive integer, got -2"),
        (True, 1, ValidationError, "p must be a positive integer, got True"),
        (4, 2, NotCoprime, "p = 4 and q = 2 are not relatively prime"),
    ],
)
def test_query_checked_whatever_the_diagram_holds(p, q, error, message):
    # The +p/q query is rejected the same way by the lemma and by the
    # dispatcher, with or without an unsurgered component to apply it to.
    surgered = SurgeryComponent(knot=knot(-2, 1, -1, "K"), contact_coefficient=Fraction(1))
    unsurgered = SurgeryComponent(knot=knot(-1, 0, 1, "L"))
    diagrams = [
        SurgeryDiagram(AmbientStatus.TIGHT, (surgered,), ((0,),)),
        SurgeryDiagram(AmbientStatus.TIGHT, (), ()),
        SurgeryDiagram(AmbientStatus.TIGHT, (surgered, unsurgered), ((0, 1), (1, 0))),
    ]
    calls = [lambda: classify_lemma_tight(True, p, q)] + [
        lambda d=d: classify_diagram(d, p=p, q=q) for d in diagrams
    ]
    for call in calls:
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message


@pytest.mark.parametrize("value", [0, -1, True, 1.5])
def test_one_positive_integer_check(value):
    # chain length n, the closed forms' n, Theorem 1's n and the lemma's
    # p and q all fail alike, naming the argument and the value given.
    checks = [
        ("n", lambda: chain_diagram(-2, 1, -1, value)),
        ("n", lambda: dual_invariants_closed_form(-2, 1, -1, value)),
        ("n", lambda: classify_thm1(AmbientStatus.TIGHT, knot(-2, 3, -1), value)),
        ("p", lambda: classify_lemma_tight(True, value, 1)),
        ("q", lambda: classify_lemma_tight(True, 3, value)),
    ]
    for name, call in checks:
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == f"{name} must be a positive integer, got {value!r}"


# --------------------------------------------------------------------------
# Every branch of the four rules, with its whole trace


_TIGHT, _OVERTWISTED, _UNKNOWN = (
    AmbientStatus.TIGHT, AmbientStatus.OVERTWISTED, AmbientStatus.UNKNOWN
)
_NOTE = (
    "rational Bennequin bound used: tb_q + |rot_q| <= -euler_char/order "
    "(reconstructed generalization of tb + |rot| <= -euler_char)"
)
_THM1_END = (
    _NOTE,
    "the dual knot violates the bound, so the surgered manifold is overtwisted",
)
_THM2_FAILS = (
    " is not +1/n for a positive integer n; the criterion does not apply (a "
    "(-1)-surgery on a nonloose knot can be tight)"
)
_BENNEQUIN_HOLDS = "the inequality holds; nothing follows about the ambient manifold"


def _bennequin(tb_q, rot_q, order, chi):
    return verdict_from_bennequin(
        bennequin_check(DualKnotInvariants(Fraction(tb_q), Fraction(rot_q), order, chi))
    )


_TRACE_TABLE = {
    "thm1 overtwisted ambient": (
        lambda: classify_thm1(_OVERTWISTED, knot(-2, 2, -1), 1),
        "INCONCLUSIVE", "none",
        ("ambient manifold is overtwisted, criterion needs tight",),
    ),
    "thm1 unknown ambient": (
        lambda: classify_thm1(_UNKNOWN, knot(-2, 2, -1), 1),
        "INCONCLUSIVE", "none",
        ("ambient manifold is unknown, criterion needs tight",),
    ),
    "thm1 euler_char > 0": (
        lambda: classify_thm1(_TIGHT, knot(-1, 0, 1), 1),
        "INCONCLUSIVE", "none",
        ("euler_char = 1 > 0; criterion needs euler_char <= 0",),
    ),
    "thm1 tb = 0": (
        lambda: classify_thm1(_TIGHT, knot(0, 3, -1), 1),
        "INCONCLUSIVE", "none",
        ("tb = 0 >= 0; criterion needs tb < 0",),
    ),
    "thm1 |rot| = -euler_char": (
        lambda: classify_thm1(_TIGHT, knot(-2, -1, -1), 1),
        "INCONCLUSIVE", "none",
        ("|rot| = 1 <= 1 = -euler_char; criterion needs strict inequality",),
    ),
    "thm1 rot > 0": (
        lambda: classify_thm1(_TIGHT, knot(-2, 2, -1), 2),
        "OVERTWISTED", "thm1",
        (
            "ambient manifold is tight",
            "tb = -2 < 0",
            "rot = 2 > 1 = -euler_char",
            "contact (+1/2)-surgery: n = 2",
            "surgery-dual invariants (closed form): tb_q = 2/3, rot_q = -2/3, "
            "order = 3, euler_char = -1",
            "tb_q + |rot_q| = 4/3 >= (euler_char + 2*rot)/order = 1 > "
            "-euler_char/order = 1/3",
            "violation: 4/3 > 1/3",
            *_THM1_END,
        ),
    ),
    "thm1 rot < 0": (
        lambda: classify_thm1(_TIGHT, knot(-2, -2, -1), 1),
        "OVERTWISTED", "thm1",
        (
            "ambient manifold is tight",
            "tb = -2 < 0",
            "|rot| = 2 > 1 = -euler_char (orientation reversed: rot negates, tb "
            "and euler_char persist)",
            "contact (+1/1)-surgery: n = 1",
            "surgery-dual invariants (closed form): tb_q = 2, rot_q = -2, "
            "order = 1, euler_char = -1",
            "tb_q + |rot_q| = 4 >= (euler_char + 2*rot)/order = 3 > "
            "-euler_char/order = 1",
            "violation: 4 > 1",
            *_THM1_END,
        ),
    ),
    # euler_char = 0 is even, so no Seifert surface has it; the criterion
    # still covers it, as euler_char <= 0
    "thm1 euler_char = 0": (
        lambda: classify_thm1(_TIGHT, knot(-2, 1, 0), 1),
        "OVERTWISTED", "thm1",
        (
            "ambient manifold is tight",
            "tb = -2 < 0",
            "rot = 1 > 0 = -euler_char",
            "contact (+1/1)-surgery: n = 1",
            "surgery-dual invariants (closed form): tb_q = 2, rot_q = -1, "
            "order = 1, euler_char = 0",
            "tb_q + |rot_q| = 3 >= (euler_char + 2*rot)/order = 2 > "
            "-euler_char/order = 0",
            "violation: 3 > 0",
            *_THM1_END,
        ),
    ),
    "thm1 n*tb + 1 = 0": (
        lambda: classify_thm1(_TIGHT, knot(-1, 2, -1), 1),
        "OVERTWISTED", "thm1",
        (
            "ambient manifold is tight",
            "tb = -1 < 0",
            "rot = 2 > 1 = -euler_char",
            "contact (+1/1)-surgery: n = 1",
            "n*tb + 1 = 0: the dual knot is not rationally nullhomologous, so the "
            "Bennequin mechanism cannot be re-executed; the verdict rests on the "
            "criterion alone",
        ),
    ),
    "thm1 tb + |rot| > -euler_char": (
        lambda: classify_thm1(_TIGHT, knot(-1, 3, -1), 2),
        "OVERTWISTED", "thm1",
        (
            "ambient manifold is tight",
            "tb = -1 < 0",
            "rot = 3 > 1 = -euler_char",
            "contact (+1/2)-surgery: n = 2",
            "surgery-dual invariants (closed form): tb_q = 1, rot_q = -3, "
            "order = 1, euler_char = -1",
            "tb + |rot| = 2 > 1 = -euler_char: the inputs themselves break the "
            "classical bound, so no such knot exists in a tight manifold",
            "violation: 4 > 1",
            *_THM1_END,
        ),
    ),
    "thm2 tight ambient": (
        lambda: classify_thm2(_TIGHT, Fraction(1, 4)),
        "INCONCLUSIVE", "none",
        ("ambient manifold is tight, criterion needs overtwisted",),
    ),
    "thm2 unknown ambient": (
        lambda: classify_thm2(_UNKNOWN, Fraction(1, 4)),
        "INCONCLUSIVE", "none",
        ("ambient manifold is unknown, criterion needs overtwisted",),
    ),
    "thm2 -1": (
        lambda: classify_thm2(_OVERTWISTED, Fraction(-1)),
        "INCONCLUSIVE", "none",
        ("coefficient -1" + _THM2_FAILS,),
    ),
    "thm2 +2/3": (
        lambda: classify_thm2(_OVERTWISTED, Fraction(2, 3)),
        "INCONCLUSIVE", "none",
        ("coefficient 2/3" + _THM2_FAILS,),
    ),
    "thm2 +1/4": (
        lambda: classify_thm2(_OVERTWISTED, Fraction(1, 4)),
        "OVERTWISTED", "thm2",
        (
            "ambient manifold is overtwisted",
            "coefficient +1/4 expands into 4 successive (+1)-surgeries along "
            "push-offs",
            "a (+1)-surgery in an overtwisted manifold is overtwisted: a tight "
            "result would be turned back into the overtwisted manifold by a "
            "Legendrian (-1)-surgery, contradicting preservation of tightness",
        ),
    ),
    "lemma-tight no premise": (
        lambda: classify_lemma_tight(False, 2, 1),
        "INCONCLUSIVE", "none",
        (
            "premise missing: contact (+1)-surgery along the knot is not known to "
            "be tight",
        ),
    ),
    "lemma-tight p < q": (
        lambda: classify_lemma_tight(True, 2, 3),
        "INCONCLUSIVE", "none",
        ("q - p = 1 >= 0; the persistence rule needs p > q",),
    ),
    "lemma-tight p = q": (
        lambda: classify_lemma_tight(True, 1, 1),
        "INCONCLUSIVE", "none",
        ("q - p = 0 >= 0; the persistence rule needs p > q",),
    ),
    "lemma-tight +5/2": (
        lambda: classify_lemma_tight(True, 5, 2),
        "TIGHT", "lemma-tight",
        (
            "premise: contact (+1)-surgery along the knot is tight",
            "coefficient +5/2 with q - p = -3 < 0",
            "decomposition: contact (+1)-surgery, then contact (-5/3)-surgery "
            "along a push-off, realized by Legendrian (-1)-surgeries",
            "Legendrian surgery preserves tightness (axiom), so the result is "
            "tight",
        ),
    ),
    "bennequin violation": (
        lambda: _bennequin(2, -1, 1, -1),
        "OVERTWISTED", "bennequin-violation",
        (
            "tb_q + |rot_q| = 3 > 1 = -euler_char/order",
            _NOTE,
            "a violation is impossible in a tight manifold, so the ambient contact "
            "manifold is overtwisted",
        ),
    ),
    "bennequin lhs < rhs": (
        lambda: _bennequin(-3, Fraction(1, 3), 3, 1),
        "INCONCLUSIVE", "none",
        ("tb_q + |rot_q| = -8/3 <= -1/3 = -euler_char/order", _BENNEQUIN_HOLDS),
    ),
    "bennequin lhs = rhs": (
        lambda: _bennequin(-1, 0, 1, 1),
        "INCONCLUSIVE", "none",
        ("tb_q + |rot_q| = -1 <= -1 = -euler_char/order", _BENNEQUIN_HOLDS),
    ),
}


@pytest.mark.parametrize("case", _TRACE_TABLE)
def test_rule_branch_trace(case):
    # the whole verdict of each branch, the branches classify_diagram
    # never reaches included; every relation a line states holds. The
    # boundary rows (tb = 0, euler_char = 0, p = q, lhs = rhs) fail when
    # one token of their comparison flips.
    call, conclusion, rule, trace = _TRACE_TABLE[case]
    verdict = call()
    assert (verdict.conclusion, verdict.rule, verdict.trace) == (
        Conclusion[conclusion], rule, trace
    )
    _assert_stated_relations_hold(trace)


def _assert_stated_relations_hold(trace):
    for line in trace:
        for lhs, relation, rhs in stated_comparisons(line):
            assert RELATIONS[relation](lhs, rhs), line


def test_stated_comparisons_reads_chains_and_skips_words():
    assert stated_comparisons(
        "tb_q + |rot_q| = 4/3 >= (euler_char + 2*rot)/order = 1 > "
        "-euler_char/order = 1/3"
    ) == [(Fraction(4, 3), ">=", 1), (1, ">", Fraction(1, 3))]
    assert stated_comparisons("tb = 0 >= 0; criterion needs tb < 0") == [
        (0, ">=", 0)
    ]
    assert stated_comparisons(_NOTE) == []


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    query=st.sampled_from([None, (1, 1), (2, 1), (3, 1), (5, 2), (2, 3)]),
)
def test_every_stated_relation_holds(seed, query):
    # Every comparison between two printed rationals in a trace holds
    # under exact Fraction comparison: classify verdicts, with and
    # without a +p/q query, and each unsurgered component's Bennequin
    # verdict.
    rng = random.Random(seed)
    diagram = random_diagram(rng)
    unsurgered = [c.id for c in diagram.components if not c.is_surgered]
    assumptions = {cid: rng.random() < 0.5 for cid in unsurgered}
    p, q = query or (None, 1)
    try:
        verdicts = classify_diagram(diagram, assumptions, p=p, q=q)
    except InconsistentAssumptions:
        verdicts = classify_diagram(diagram, p=p, q=q)
    for cid in unsurgered:
        try:
            invariants = dual_invariants(diagram, cid)
        except (NonNullhomologousDual, MissingCoefficient, Unsupported):
            continue
        verdicts.append(verdict_from_bennequin(bennequin_check(invariants)))
    for verdict in verdicts:
        _assert_stated_relations_hold(verdict.trace)


# --------------------------------------------------------------------------
# Dispatcher


def test_classify_empty_diagram():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.TIGHT, components=(), linking=()
    )
    assert classify_diagram(diagram) == []


def _outcomes(diagram, assumptions, p, q):
    """classify_diagram's (conclusion, rule) list, or the error it raises,
    and each unsurgered component's (tb_Q, order), or the error."""
    try:
        verdicts = [
            (v.conclusion, v.rule)
            for v in classify_diagram(diagram, assumptions, p=p, q=q)
        ]
    except InconsistentAssumptions as error:
        verdicts = str(error)
    duals = {}
    for component in diagram.components:
        if not component.is_surgered:
            try:
                invariants = dual_invariants(diagram, component.id)
            except (NonNullhomologousDual, MissingCoefficient, Unsupported) as error:
                duals[component.id] = str(error)
            else:
                duals[component.id] = (invariants.tb_q, invariants.order)
    return verdicts, duals


# Coefficients that reach every rule: +1/n for thm1 and thm2, others
# for the inconclusive branch, rational ones for the dual's expansion.
_COEFFICIENTS = [None, Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-1),
                 Fraction(2), Fraction(5, 2), Fraction(-5, 3)]


@st.composite
def _diagrams_with_assumptions(draw):
    """A diagram, tight half of the time, and (+1)-tight assumptions on
    some of its unsurgered components."""
    count = draw(st.integers(1, 4))
    components = tuple(
        SurgeryComponent(
            knot=LegendrianKnotData(
                id=f"C{index}",
                tb=draw(st.integers(-5, 1)),
                rot=draw(st.integers(-5, 5)),
                euler_char=draw(st.sampled_from((1, -1, -3))),
            ),
            contact_coefficient=draw(st.sampled_from(_COEFFICIENTS)),
        )
        for index in range(count)
    )
    linking = [[0] * count for _ in range(count)]
    for i in range(count):
        for j in range(i + 1, count):
            linking[i][j] = linking[j][i] = draw(st.integers(-3, 3))
    ambient = draw(st.sampled_from([AmbientStatus.TIGHT] * 3 + list(AmbientStatus)))
    assumptions = {
        c.id: True for c in components if not c.is_surgered and draw(st.booleans())
    }
    return SurgeryDiagram(ambient, components, linking), assumptions


@settings(max_examples=200, deadline=None)
@given(
    case=_diagrams_with_assumptions(),
    query=st.sampled_from([None, (2, 1), (3, 1), (5, 2)]),
)
def test_reversing_every_orientation_changes_no_verdict(case, query):
    # Reversing every component negates every rot and keeps every
    # linking number: the surgered manifold is the same, so neither the
    # verdicts, in order, nor any dual's tb_Q or order may change.
    diagram, assumptions = case
    reversed_diagram = diagram
    for component in diagram.components:
        reversed_diagram = reverse_orientation(reversed_diagram, component.id)
    assert reversed_diagram.linking == diagram.linking
    assert [c.knot.rot for c in reversed_diagram.components] == [
        -c.knot.rot for c in diagram.components
    ]
    p, q = query or (None, 1)
    assert _outcomes(reversed_diagram, assumptions, p, q) == _outcomes(
        diagram, assumptions, p, q
    )


def test_classify_counterexample_all_n():
    diagram = bundled.load("figure1.json")
    for n in range(2, 11):
        verdicts = classify_diagram(diagram, {"L": True}, p=n, q=1)
        tight = [v for v in verdicts if v.conclusion is Conclusion.TIGHT]
        assert len(tight) == 1
        flagged = any(CONWAY_FLAG in line for line in tight[0].trace)
        assert flagged == (n == 2)  # 2 <= n < |tb| = 3


def _conway_skip_lines(verdict):
    return [line for line in verdict.trace if line.startswith("Conway check skipped")]


def test_classify_conway_check_reports_undefined_tb():
    # (+1)-surgery on the tb = -1 unknot: the push-off U is not
    # rationally nullhomologous, so its tb in the surgered manifold is
    # undefined and the Conway check says why it gave up.
    verdict = classify_diagram(bundled.load("s1xs2.json"), {"U": True}, p=2, q=1)[-1]
    assert verdict.conclusion is Conclusion.TIGHT
    (line,) = _conway_skip_lines(verdict)
    assert "not rationally nullhomologous" in line
    assert CONWAY_FLAG not in line


@pytest.mark.parametrize(
    "other_coefficient, reason",
    [
        (None, "carries no contact surgery coefficient"),
        (Fraction(2, 5), "not of an expandable shape"),
    ],
)
def test_classify_conway_check_reason_per_failure(other_coefficient, reason):
    # A second unsurgered component (MissingCoefficient) or an
    # unexpandable coefficient (Unsupported) leaves tb undefined too.
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.TIGHT,
        components=(
            SurgeryComponent(knot=knot(-3, 0, 1, "D")),
            SurgeryComponent(
                knot=knot(-1, 0, 1, "E"), contact_coefficient=other_coefficient
            ),
            SurgeryComponent(
                knot=knot(-1, 0, 1, "U"), contact_coefficient=Fraction(-1)
            ),
        ),
        linking=((0, 1, 1), (1, 0, 0), (1, 0, 0)),
    )
    verdicts = classify_diagram(diagram, {"D": True}, p=2, q=1)
    (tight,) = [v for v in verdicts if v.conclusion is Conclusion.TIGHT]
    (line,) = _conway_skip_lines(tight)
    assert reason in line
    assert not any(CONWAY_FLAG in entry for v in verdicts for entry in v.trace)


def test_classify_conway_check_silent_when_tb_defined():
    diagram = bundled.load("figure1.json")
    for n in (2, 3):
        for verdict in classify_diagram(diagram, {"L": True}, p=n, q=1):
            assert _conway_skip_lines(verdict) == []


def test_classify_pipeline_thm1():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.TIGHT,
        components=(
            SurgeryComponent(
                knot=knot(-2, 2, -1, "K"), contact_coefficient=Fraction(1, 2)
            ),
        ),
        linking=((0,),),
    )
    verdicts = classify_diagram(diagram)
    assert len(verdicts) == 1
    assert verdicts[0].conclusion is Conclusion.OVERTWISTED
    assert verdicts[0].rule == "thm1"
    assert verdicts[0].trace[0] == "component 'K':"


def test_classify_overtwisted_ambient_uses_thm2():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.OVERTWISTED,
        components=(
            SurgeryComponent(
                knot=knot(-5, 0, 1, "K"), contact_coefficient=Fraction(1, 3)
            ),
        ),
        linking=((0,),),
    )
    verdicts = classify_diagram(diagram)
    assert verdicts[0].rule == "thm2"
    assert verdicts[0].conclusion is Conclusion.OVERTWISTED


def test_classify_rejects_assumption_in_overtwisted_ambient():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.OVERTWISTED,
        components=(SurgeryComponent(knot=knot(-3, 0, 1, "K")),),
        linking=((0,),),
    )
    with pytest.raises(InconsistentAssumptions):
        classify_diagram(diagram, {"K": True}, p=2, q=1)


def test_classify_rejects_assumption_against_derived_overtwistedness():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.TIGHT,
        components=(
            SurgeryComponent(
                knot=knot(-2, 2, -1, "K"), contact_coefficient=Fraction(1)
            ),
            SurgeryComponent(knot=knot(-3, 0, 1, "D")),
        ),
        linking=((0, 0), (0, 0)),
    )
    with pytest.raises(InconsistentAssumptions):
        classify_diagram(diagram, {"D": True}, p=2, q=1)


def test_classify_rejects_assumption_on_surgered_component():
    diagram = bundled.load("s1xs2.json")
    from surgerycalc import ValidationError

    with pytest.raises(ValidationError):
        classify_diagram(diagram, {"K": True}, p=2, q=1)


def test_classify_no_tight_and_overtwisted_together():
    rng = random.Random(777)
    seen_tight = seen_overtwisted = 0
    for _ in range(300):
        diagram = random_diagram(rng)
        assumptions = {}
        if diagram.ambient is not AmbientStatus.OVERTWISTED:
            for component in diagram.components:
                if not component.is_surgered and rng.random() < 0.5:
                    assumptions[component.id] = True
        p = rng.choice((None, 2, 3, 5))
        q = 1 if p is None or p == 2 or rng.random() < 0.7 else 2
        try:
            verdicts = classify_diagram(diagram, assumptions, p=p, q=q)
        except InconsistentAssumptions:
            continue  # rejection is the documented behaviour
        conclusions = {v.conclusion for v in verdicts}
        assert not (
            Conclusion.TIGHT in conclusions and Conclusion.OVERTWISTED in conclusions
        )
        seen_tight += Conclusion.TIGHT in conclusions
        seen_overtwisted += Conclusion.OVERTWISTED in conclusions
    # the property must not pass vacuously
    assert seen_tight > 0 and seen_overtwisted > 0


def test_verdict_serialization_shape():
    verdict = classify_lemma_tight(True, 2, 1)
    obj = verdict_to_obj(verdict)
    assert obj["conclusion"] == "tight"
    assert obj["rule"] == "lemma-tight"
    assert isinstance(obj["trace"], list)
    assert all(isinstance(line, str) for line in obj["trace"])


def test_verdict_invariant_rule_none_iff_inconclusive():
    from surgerycalc import ValidationError, Verdict

    with pytest.raises(ValidationError):
        Verdict(conclusion=Conclusion.TIGHT, rule=RULE_NONE, trace=())
    with pytest.raises(ValidationError):
        Verdict(conclusion=Conclusion.INCONCLUSIVE, rule="thm1", trace=())
