"""Tight / overtwisted decision rules with justification traces.

Every rule is three-valued: it answers Overtwisted or Tight only when
its hypotheses certify the conclusion, and Inconclusive otherwise. The
rule identifiers carried by verdicts are:

* ``thm1``: contact (+1/n)-surgery along a nullhomologous oriented
  Legendrian knot in a tight manifold is overtwisted when tb < 0 and
  rot > -euler_char (with euler_char <= 0), tested as |rot| since
  reversing the orientation negates rot only. The verdict re-executes
  the underlying mechanism: the surgery-dual knot violates the
  rational Bennequin inequality.
* ``thm2``: contact (+1/n)-surgery along a Legendrian knot in an
  overtwisted manifold is always overtwisted.
* ``lemma-tight``: if contact (+1)-surgery along a knot is tight then
  so is contact (+p/q)-surgery for coprime p > q >= 1, because the
  surgery decomposes as the (+1)-surgery followed by Legendrian
  (-1)-surgeries, and Legendrian surgery preserves tightness (used as
  an axiom).
* ``bennequin-violation``: a rationally nullhomologous Legendrian knot
  in a tight manifold satisfies tb_Q + |rot_Q| <= -euler_char/order
  (the rational generalization of the Bennequin bound; this exact form
  is a reconstruction, which every violation trace records), so a
  violation certifies the ambient manifold is overtwisted.
* ``none``: no rule applies; the verdict is Inconclusive.

Each rule is one evaluation of its hypothesis rows. A numeric
hypothesis is evaluated once, by one exact comparison that also writes
its trace line with the relation that is true ("tb = 0 >= 0"), so a
trace cannot state a relation its test did not find.

The diagram-level dispatcher additionally flags "conway-counterexample"
situations: a knot whose tb in the surgered manifold is <= -2 while a
tight (+n)-surgery with 2 <= n < |tb| is certified, contradicting the
conjecture that such surgeries are always overtwisted.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    MissingCoefficient,
    SurgeryDiagram,
    ValidationError,
    check_positive,
)
from .exact import RationalLike, as_rational, format_rational
from .expansion import Unsupported
from .invariants import (
    DualKnotInvariants,
    NonNullhomologousDual,
    dual_invariants,
    dual_invariants_closed_form,
)

__all__ = [
    "BennequinReport",
    "Conclusion",
    "CONWAY_FLAG",
    "InconsistentAssumptions",
    "NotCoprime",
    "RULE_BENNEQUIN",
    "RULE_LEMMA_TIGHT",
    "RULE_NONE",
    "RULE_THM1",
    "RULE_THM2",
    "Verdict",
    "bennequin_check",
    "classify_diagram",
    "classify_lemma_tight",
    "classify_thm1",
    "classify_thm2",
    "verdict_from_bennequin",
    "verdict_to_obj",
]

RULE_THM1 = "thm1"
RULE_THM2 = "thm2"
RULE_LEMMA_TIGHT = "lemma-tight"
RULE_BENNEQUIN = "bennequin-violation"
RULE_NONE = "none"

CONWAY_FLAG = "conway-counterexample"

BENNEQUIN_FORM_NOTE = (
    "rational Bennequin bound used: tb_q + |rot_q| <= -euler_char/order "
    "(reconstructed generalization of tb + |rot| <= -euler_char)"
)


class InconsistentAssumptions(ValueError):
    """The supplied assumptions contradict each other or the diagram."""


class NotCoprime(ValueError):
    """p and q were required to be relatively prime."""


class Conclusion(Enum):
    OVERTWISTED = "overtwisted"
    TIGHT = "tight"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """A rule outcome plus the exact-arithmetic facts supporting it."""

    conclusion: Conclusion
    rule: str
    trace: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trace", tuple(self.trace))
        if (self.rule == RULE_NONE) != (self.conclusion is Conclusion.INCONCLUSIVE):
            raise ValidationError(
                "conclusion is Inconclusive exactly when the rule is 'none'"
            )


@dataclass(frozen=True)
class BennequinReport:
    """Exact comparison tb_q + |rot_q| versus -euler_char/order."""

    lhs: Fraction
    rhs: Fraction

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs


def bennequin_check(invariants: DualKnotInvariants) -> BennequinReport:
    """Evaluate the rational Bennequin inequality, exactly.

    ``satisfied`` False certifies that the ambient contact manifold of
    the knot with these invariants is overtwisted (the inequality
    holds for every rationally nullhomologous Legendrian knot in a
    tight manifold).
    """
    lhs = invariants.tb_q + abs(invariants.rot_q)
    rhs = Fraction(-invariants.euler_char, invariants.order)
    return BennequinReport(lhs=lhs, rhs=rhs)


# The exact test of each relation a hypothesis states, and the relation
# that is true when the test fails.
_TESTS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _compare(name, lhs, relation, rhs, rhs_name=None) -> tuple[bool, str]:
    """(holds, line): ``lhs relation rhs`` evaluated exactly, once, and
    the line "name = lhs R rhs[ = rhs_name]" whose R is the relation
    that is true: ``relation`` when it holds, its negation otherwise."""
    holds = _TESTS[relation](lhs, rhs)
    written = relation if holds else _NEGATION[relation]
    line = f"{name} = {format_rational(lhs)} {written} {format_rational(rhs)}"
    return holds, line if rhs_name is None else f"{line} = {rhs_name}"


def _evaluate(rule: str, conclusion: Conclusion, hypotheses, lines) -> Verdict:
    """A rule's verdict from its rows (holds, line if it holds or None,
    *lines if it fails): Inconclusive with the lines of the first row that
    fails, else ``conclusion`` traced by the rows, then by ``lines``."""
    trace = []
    for holds, held, *failed in hypotheses:
        if not holds:
            return _inconclusive(*failed)
        trace += [held] if held else []
    return Verdict(conclusion=conclusion, rule=rule, trace=(*trace, *lines))


def _inconclusive(*trace: str) -> Verdict:
    return Verdict(conclusion=Conclusion.INCONCLUSIVE, rule=RULE_NONE, trace=trace)


def _ambient_is(ambient: AmbientStatus, needed: AmbientStatus) -> tuple:
    """The row "the ambient manifold is ``needed``" of thm1 and thm2."""
    needs = f"ambient manifold is {ambient.value}, criterion needs {needed.value}"
    return ambient is needed, f"ambient manifold is {needed.value}", needs


def _criterion(name: str, lhs: int, relation: str, rhs: int, traced=True) -> tuple:
    """thm1's row ``name relation rhs``, traced when it holds if ``traced``."""
    holds, line = _compare(name, lhs, relation, rhs)
    needs = f"{line}; criterion needs {name} {relation} {rhs}"
    return holds, line if traced else None, needs


def verdict_from_bennequin(report: BennequinReport) -> Verdict:
    """Wrap a Bennequin comparison as a verdict on the ambient manifold."""
    violated, line = _compare(
        "tb_q + |rot_q|", report.lhs, ">", report.rhs, "-euler_char/order"
    )
    nothing = "the inequality holds; nothing follows about the ambient manifold"
    lines = (
        BENNEQUIN_FORM_NOTE,
        "a violation is impossible in a tight manifold, so the ambient contact "
        "manifold is overtwisted",
    )
    hypotheses = [(violated, line, line, nothing)]
    return _evaluate(RULE_BENNEQUIN, Conclusion.OVERTWISTED, hypotheses, lines)


def classify_thm1(ambient: AmbientStatus, knot: LegendrianKnotData, n: int) -> Verdict:
    """Overtwisting criterion for contact (+1/n)-surgery in a tight manifold.

    Hypotheses: ambient tight, euler_char <= 0, tb < 0 and
    |rot| > -euler_char: reversing the knot's orientation negates rot
    but changes neither tb, euler_char nor the surgered manifold, and
    the trace says when it was reversed.

    When the hypotheses hold the verdict is Overtwisted and the trace
    re-executes the mechanism: the dual knot's closed-form invariants
    violate the rational Bennequin bound.
    """
    check_positive(n, "n")
    rot, line = _compare("|rot|", abs(knot.rot), ">", -knot.euler_char, "-euler_char")
    reversal = " (orientation reversed: rot negates, tb and euler_char persist)"
    # |rot| is rot itself for rot >= 0, and the held line says rot
    held =line + reversal if knot.rot < 0 else line.replace("|rot|", "rot", 1)
    hypotheses = [
        _ambient_is(ambient, AmbientStatus.TIGHT),
        _criterion("euler_char", knot.euler_char, "<=", 0, traced=False),
        _criterion("tb", knot.tb, "<", 0),
        (rot, held, f"{line}; criterion needs strict inequality"),
    ]
    lines = _thm1_mechanism(knot, n)
    return _evaluate(RULE_THM1, Conclusion.OVERTWISTED, hypotheses, lines)


def _thm1_mechanism(knot: LegendrianKnotData, n: int) -> Iterator[str]:
    """thm1's conclusion lines: the surgery, then how the dual knot's
    closed-form invariants violate the rational Bennequin bound."""
    yield f"contact (+1/{n})-surgery: n = {n}"
    if n * knot.tb + 1 == 0:
        yield (
            "n*tb + 1 = 0: the dual knot is not rationally nullhomologous, so "
            "the Bennequin mechanism cannot be re-executed; the verdict rests "
            "on the criterion alone"
        )
        return
    rot = abs(knot.rot)
    invariants = dual_invariants_closed_form(knot.tb, rot, knot.euler_char, n)
    report = bennequin_check(invariants)
    lhs, rhs = format_rational(report.lhs), format_rational(report.rhs)
    yield (
        "surgery-dual invariants (closed form): "
        f"tb_q = {format_rational(invariants.tb_q)}, "
        f"rot_q = {format_rational(invariants.rot_q)}, "
        f"order = {invariants.order}, euler_char = {invariants.euler_char}"
    )
    classical, line = _compare(
        "tb + |rot|", knot.tb + rot, "<=", -knot.euler_char, "-euler_char"
    )
    if classical:
        # the chain's middle step consumes the classical bound just compared
        mid = format_rational(Fraction(knot.euler_char + 2 * rot, invariants.order))
        yield (
            f"tb_q + |rot_q| = {lhs} >= (euler_char + 2*rot)/order = {mid} "
            f"> -euler_char/order = {rhs}"
        )
    else:
        yield (
            f"{line}: the inputs themselves break the classical bound, so no "
            "such knot exists in a tight manifold"
        )
    yield f"violation: {lhs} > {rhs}"
    yield BENNEQUIN_FORM_NOTE
    yield "the dual knot violates the bound, so the surgered manifold is overtwisted"


def classify_thm2(ambient: AmbientStatus, coefficient: RationalLike) -> Verdict:
    """Overtwisted-ambient criterion for contact (+1/n)-surgery.

    In an overtwisted manifold every contact (+1/n)-surgery stays
    overtwisted: were one of the successive (+1)-surgeries tight, the
    inverse Legendrian (-1)-surgery would turn a tight manifold back
    into an overtwisted one, contradicting preservation of tightness
    under Legendrian surgery.
    """
    r = as_rational(coefficient)
    hypotheses = [
        _ambient_is(ambient, AmbientStatus.OVERTWISTED),
        # +1/n: a Fraction keeps its sign in its numerator
        (r.numerator == 1, None, f"coefficient {format_rational(r)} is not +1/n "
         "for a positive integer n; the criterion does not apply (a (-1)-surgery "
         "on a nonloose knot can be tight)"),
    ]
    lines = (
        f"coefficient +1/{r.denominator} expands into {r.denominator} successive "
        "(+1)-surgeries along push-offs",
        "a (+1)-surgery in an overtwisted manifold is overtwisted: a tight result "
        "would be turned back into the overtwisted manifold by a Legendrian "
        "(-1)-surgery, contradicting preservation of tightness",
    )
    return _evaluate(RULE_THM2, Conclusion.OVERTWISTED, hypotheses, lines)


def check_coprime_positive(p: int, q: int) -> None:
    """Raise unless p and q are relatively prime positive integers."""
    check_positive(p, "p")
    check_positive(q, "q")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p = {p} and q = {q} are not relatively prime")


def classify_lemma_tight(plus_one_known_tight: bool, p: int, q: int) -> Verdict:
    """Tightness persistence: (+1)-surgery tight implies (+p/q) tight.

    Requires coprime p, q > 0 with q - p < 0. The decomposition is one
    contact (+1)-surgery along the knot followed by a contact
    (-p/(p-q))-surgery along its push-off, i.e. Legendrian
    (-1)-surgeries, which preserve tightness (used as an axiom).
    """
    check_coprime_positive(p, q)
    p_above_q, line = _compare("q - p", q - p, "<", 0)
    premise = "contact (+1)-surgery along the knot is"
    hypotheses = [
        (plus_one_known_tight, f"premise: {premise} tight",
         f"premise missing: {premise} not known to be tight"),
        (p_above_q, f"coefficient +{p}/{q} with {line}",
         f"{line}; the persistence rule needs p > q"),
    ]
    lines = (
        f"decomposition: contact (+1)-surgery, then contact (-{p}/{p - q})-surgery "
        "along a push-off, realized by Legendrian (-1)-surgeries",
        "Legendrian surgery preserves tightness (axiom), so the result is tight",
    )
    return _evaluate(RULE_LEMMA_TIGHT, Conclusion.TIGHT, hypotheses, lines)


def _with_component_prefix(verdict: Verdict, component_id: str, *notes: str) -> Verdict:
    return Verdict(
        conclusion=verdict.conclusion,
        rule=verdict.rule,
        trace=(f"component {component_id!r}:",) + verdict.trace + notes,
    )


def classify_diagram(
    diagram: SurgeryDiagram,
    assumptions: Optional[Mapping[str, bool]] = None,
    *,
    p: Optional[int] = None,
    q: int = 1,
) -> list[Verdict]:
    """Apply every applicable rule to a diagram.

    Each surgered component gets one verdict: thm2 for +1/n in an
    overtwisted ambient manifold, thm1 (on |rot|) for +1/n in a tight
    one, and Inconclusive otherwise. Every verdict's trace starts with
    the line "component 'ID':" naming the component it concerns.

    ``assumptions`` maps component ids to the known fact "contact
    (+1)-surgery along this component is tight"; assumed components
    must be unsurgered. When a prospective surgery ``+p/q`` is queried,
    p and q must be coprime positive integers, whatever the diagram
    holds, and each unsurgered component receives a
    tightness-persistence verdict using its assumption (missing
    assumptions read as False).

    A Tight verdict for an integer query n = p (q = 1) additionally
    gets a "conway-counterexample" trace entry when the component's tb
    in the surgered manifold is an integer <= -2 and 2 <= n < |tb|, or
    a trace entry giving the reason when that tb is undefined.

    Assumption sets that contradict the rules' own conclusions are
    rejected: a (+1)-tight assumption is inconsistent with an
    overtwisted ambient manifold, and with any component already
    certified overtwisted by the (+1/n) criteria.
    """
    facts = dict(assumptions or {})
    for component_id, value in facts.items():
        component = diagram.component(component_id)
        if not isinstance(value, bool):
            raise ValidationError(
                f"assumption for {component_id!r} must be a boolean"
            )
        if value and component.is_surgered:
            raise ValidationError(
                f"assumed component {component_id!r} must be unsurgered; the "
                "assumption concerns a prospective surgery along it"
            )
    assumed_tight = {cid for cid, value in facts.items() if value}
    if assumed_tight and diagram.ambient is AmbientStatus.OVERTWISTED:
        raise InconsistentAssumptions(
            "a (+1)-tight assumption contradicts an overtwisted ambient "
            "manifold: contact (+1)-surgery there is never tight"
        )

    verdicts: list[Verdict] = []
    derived_overtwisted = False
    for component in diagram.components:
        r = component.contact_coefficient
        if r is None:
            continue
        if r.numerator == 1:
            if diagram.ambient is AmbientStatus.OVERTWISTED:
                verdict = classify_thm2(diagram.ambient, r)
            elif diagram.ambient is AmbientStatus.TIGHT:
                verdict = classify_thm1(diagram.ambient, component.knot, r.denominator)
            else:
                verdict = _inconclusive(
                    "ambient status unknown; no (+1/n) criterion applies"
                )
        else:
            verdict = _inconclusive(
                f"no rule covers contact ({format_rational(r)})-surgery on this "
                "component"
            )
        derived_overtwisted |= verdict.conclusion is Conclusion.OVERTWISTED
        verdicts.append(_with_component_prefix(verdict, component.id))

    if derived_overtwisted and assumed_tight:
        raise InconsistentAssumptions(
            "a surgered component is already certified overtwisted; a "
            "(+1)-tight assumption in the same diagram is contradictory "
            "(contact (+1)-surgery in an overtwisted manifold is never tight)"
        )

    if p is not None:
        check_coprime_positive(p, q)
        for component in diagram.components:
            if component.is_surgered:
                continue
            verdict = classify_lemma_tight(component.id in assumed_tight, p, q)
            notes: tuple[str, ...] = ()
            if verdict.conclusion is Conclusion.TIGHT and q == 1 and p >= 2:
                try:
                    tb = dual_invariants(diagram, component.id).tb_q
                except (NonNullhomologousDual, MissingCoefficient, Unsupported) as error:
                    notes = (
                        "Conway check skipped: tb in the surgered manifold is "
                        f"undefined: {error}",
                    )
                else:
                    if tb.denominator == 1 and p < -tb:
                        notes = (
                            f"{CONWAY_FLAG}: tb = {format_rational(tb)} <= -2 in "
                            f"the surgered manifold and 2 <= n = {p} < |tb| = "
                            f"{-int(tb)}, yet contact (+{p})-surgery is tight, "
                            "contradicting the conjecture that it must be "
                            "overtwisted",
                        )
            verdicts.append(_with_component_prefix(verdict, component.id, *notes))
    return verdicts


def verdict_to_obj(verdict: Verdict) -> dict:
    """JSON-ready form: the conclusion's value, the rule id and the trace lines."""
    return {
        "conclusion": verdict.conclusion.value,
        "rule": verdict.rule,
        "trace": list(verdict.trace),
    }
