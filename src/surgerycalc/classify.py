"""Tight / overtwisted decision rules with justification traces.

Every rule is three-valued: it answers Overtwisted or Tight only when
its hypotheses certify the conclusion, and Inconclusive otherwise. The
rule identifiers carried by verdicts are:

* ``thm1``: contact (+1/n)-surgery along a nullhomologous oriented
  Legendrian knot in a tight manifold is overtwisted when tb < 0 and
  rot > -euler_char (with euler_char <= 0). The verdict re-executes
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

The diagram-level dispatcher additionally flags "conway-counterexample"
situations: a knot whose tb in the surgered manifold is <= -2 while a
tight (+n)-surgery with 2 <= n < |tb| is certified, contradicting the
conjecture that such surgeries are always overtwisted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    MissingCoefficient,
    SurgeryDiagram,
    ValidationError,
    _check_positive,
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
    satisfied: bool

    def __post_init__(self) -> None:
        if self.satisfied != (self.lhs <= self.rhs):
            raise ValidationError("satisfied must equal (lhs <= rhs)")


def bennequin_check(invariants: DualKnotInvariants) -> BennequinReport:
    """Evaluate the rational Bennequin inequality, exactly.

    ``satisfied`` False certifies that the ambient contact manifold of
    the knot with these invariants is overtwisted (the inequality
    holds for every rationally nullhomologous Legendrian knot in a
    tight manifold).
    """
    lhs = invariants.tb_q + abs(invariants.rot_q)
    rhs = Fraction(-invariants.euler_char, invariants.order)
    return BennequinReport(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs)


def verdict_from_bennequin(report: BennequinReport) -> Verdict:
    """Wrap a Bennequin comparison as a verdict on the ambient manifold."""
    lhs = format_rational(report.lhs)
    rhs = format_rational(report.rhs)
    if not report.satisfied:
        return Verdict(
            conclusion=Conclusion.OVERTWISTED,
            rule=RULE_BENNEQUIN,
            trace=(
                f"tb_q + |rot_q| = {lhs} > {rhs} = -euler_char/order",
                BENNEQUIN_FORM_NOTE,
                "a violation is impossible in a tight manifold, so the ambient "
                "contact manifold is overtwisted",
            ),
        )
    return Verdict(
        conclusion=Conclusion.INCONCLUSIVE,
        rule=RULE_NONE,
        trace=(
            f"tb_q + |rot_q| = {lhs} <= {rhs} = -euler_char/order",
            "the inequality holds; nothing follows about the ambient manifold",
        ),
    )


def _inconclusive(*trace: str) -> Verdict:
    return Verdict(conclusion=Conclusion.INCONCLUSIVE, rule=RULE_NONE, trace=trace)


def classify_thm1(
    ambient: AmbientStatus,
    knot: LegendrianKnotData,
    n: int,
    both_orientations: bool = True,
) -> Verdict:
    """Overtwisting criterion for contact (+1/n)-surgery in a tight manifold.

    Hypotheses: ambient tight, euler_char <= 0, tb < 0 and
    rot > -euler_char. With ``both_orientations`` (the default) the
    rotation number test is |rot| > -euler_char, since reversing the
    knot's orientation negates rot but changes neither tb, euler_char
    nor the surgered manifold.

    When the hypotheses hold the verdict is Overtwisted and the trace
    re-executes the mechanism: the dual knot's closed-form invariants
    violate the rational Bennequin bound.
    """
    _check_positive(n, "n")
    if ambient is not AmbientStatus.TIGHT:
        return _inconclusive(
            f"ambient manifold is {ambient.value}, criterion needs tight"
        )
    if knot.euler_char > 0:
        return _inconclusive(
            f"euler_char = {knot.euler_char} > 0; criterion needs euler_char <= 0"
        )
    if knot.tb >= 0:
        return _inconclusive(f"tb = {knot.tb} >= 0; criterion needs tb < 0")
    rot_used = abs(knot.rot) if both_orientations else knot.rot
    bound = -knot.euler_char
    if rot_used <= bound:
        label = "|rot|" if both_orientations else "rot"
        return _inconclusive(
            f"{label} = {rot_used} <= {bound} = -euler_char; criterion needs "
            "strict inequality"
        )
    trace = [
        "ambient manifold is tight",
        f"tb = {knot.tb} < 0",
    ]
    if both_orientations and knot.rot < 0:
        trace.append(
            f"|rot| = {rot_used} > {bound} = -euler_char (orientation reversed: "
            "rot negates, tb and euler_char persist)"
        )
    else:
        trace.append(f"rot = {rot_used} > {bound} = -euler_char")
    trace.append(f"contact (+1/{n})-surgery: n = {n}")
    r = n * knot.tb + 1
    if r == 0:
        trace.append(
            f"n*tb + 1 = 0: the dual knot is not rationally nullhomologous, so "
            "the Bennequin mechanism cannot be re-executed; the verdict rests "
            "on the criterion alone"
        )
    else:
        invariants = dual_invariants_closed_form(
            knot.tb, rot_used, knot.euler_char, n
        )
        report = bennequin_check(invariants)
        order = invariants.order
        trace.append(
            "surgery-dual invariants (closed form): "
            f"tb_q = {format_rational(invariants.tb_q)}, "
            f"rot_q = {format_rational(invariants.rot_q)}, "
            f"order = {order}, euler_char = {invariants.euler_char}"
        )
        if knot.tb + rot_used <= -knot.euler_char:
            # The middle step of the bound chain consumes the classical
            # bound tb + |rot| <= -euler_char for the source knot.
            chain_mid = Fraction(knot.euler_char + 2 * rot_used, order)
            trace.append(
                f"tb_q + |rot_q| = {format_rational(report.lhs)} "
                f">= (euler_char + 2*rot)/order = {format_rational(chain_mid)} "
                f"> -euler_char/order = {format_rational(report.rhs)}"
            )
        else:
            trace.append(
                f"tb + |rot| = {knot.tb + rot_used} > {-knot.euler_char} = "
                "-euler_char: the inputs themselves break the classical bound, "
                "so no such knot exists in a tight manifold"
            )
        trace.extend(
            [
                f"violation: {format_rational(report.lhs)} > "
                f"{format_rational(report.rhs)}",
                BENNEQUIN_FORM_NOTE,
                "the dual knot violates the bound, so the surgered manifold is "
                "overtwisted",
            ]
        )
    return Verdict(conclusion=Conclusion.OVERTWISTED, rule=RULE_THM1, trace=tuple(trace))


def classify_thm2(ambient: AmbientStatus, coefficient: RationalLike) -> Verdict:
    """Overtwisted-ambient criterion for contact (+1/n)-surgery.

    In an overtwisted manifold every contact (+1/n)-surgery stays
    overtwisted: were one of the successive (+1)-surgeries tight, the
    inverse Legendrian (-1)-surgery would turn a tight manifold back
    into an overtwisted one, contradicting preservation of tightness
    under Legendrian surgery.
    """
    r = as_rational(coefficient)
    if ambient is not AmbientStatus.OVERTWISTED:
        return _inconclusive(
            f"ambient manifold is {ambient.value}, criterion needs overtwisted"
        )
    if r <= 0 or r.numerator != 1:
        return _inconclusive(
            f"coefficient {format_rational(r)} is not +1/n for a positive "
            "integer n; the criterion does not apply (a (-1)-surgery on a "
            "nonloose knot can be tight)"
        )
    n = r.denominator
    return Verdict(
        conclusion=Conclusion.OVERTWISTED,
        rule=RULE_THM2,
        trace=(
            "ambient manifold is overtwisted",
            f"coefficient +1/{n} expands into {n} successive (+1)-surgeries "
            "along push-offs",
            "a (+1)-surgery in an overtwisted manifold is overtwisted: a tight "
            "result would be turned back into the overtwisted manifold by a "
            "Legendrian (-1)-surgery, contradicting preservation of tightness",
        ),
    )


def _check_coprime_positive(p: int, q: int) -> None:
    """Raise unless p and q are relatively prime positive integers."""
    _check_positive(p, "p")
    _check_positive(q, "q")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p = {p} and q = {q} are not relatively prime")


def classify_lemma_tight(plus_one_known_tight: bool, p: int, q: int) -> Verdict:
    """Tightness persistence: (+1)-surgery tight implies (+p/q) tight.

    Requires coprime p, q > 0 with q - p < 0. The decomposition is one
    contact (+1)-surgery along the knot followed by a contact
    (-p/(p-q))-surgery along its push-off, i.e. Legendrian
    (-1)-surgeries, which preserve tightness (used as an axiom).
    """
    _check_coprime_positive(p, q)
    if not plus_one_known_tight:
        return _inconclusive(
            "premise missing: contact (+1)-surgery along the knot is not known "
            "to be tight"
        )
    if q - p >= 0:
        return _inconclusive(
            f"q - p = {q - p} >= 0; the persistence rule needs p > q"
        )
    return Verdict(
        conclusion=Conclusion.TIGHT,
        rule=RULE_LEMMA_TIGHT,
        trace=(
            "premise: contact (+1)-surgery along the knot is tight",
            f"coefficient +{p}/{q} with q - p = {q - p} < 0",
            f"decomposition: contact (+1)-surgery, then contact "
            f"(-{p}/{p - q})-surgery along a push-off, realized by Legendrian "
            "(-1)-surgeries",
            "Legendrian surgery preserves tightness (axiom), so the result is "
            "tight",
        ),
    )


def _with_component_prefix(verdict: Verdict, component_id: str) -> Verdict:
    return Verdict(
        conclusion=verdict.conclusion,
        rule=verdict.rule,
        trace=(f"component {component_id!r}:",) + verdict.trace,
    )


def classify_diagram(
    diagram: SurgeryDiagram,
    assumptions: Optional[Mapping[str, bool]] = None,
    *,
    p: Optional[int] = None,
    q: int = 1,
    both_orientations: bool = True,
) -> list[Verdict]:
    """Apply every applicable rule to a diagram.

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
    for index, component in enumerate(diagram.components):
        r = component.contact_coefficient
        if r is None:
            continue
        if r > 0 and r.numerator == 1:
            if diagram.ambient is AmbientStatus.OVERTWISTED:
                verdict = classify_thm2(diagram.ambient, r)
            elif diagram.ambient is AmbientStatus.TIGHT:
                verdict = classify_thm1(
                    diagram.ambient, component.knot, r.denominator, both_orientations
                )
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
        _check_coprime_positive(p, q)
        for component in diagram.components:
            if component.is_surgered:
                continue
            assumed = component.id in assumed_tight
            verdict = classify_lemma_tight(assumed, p, q)
            trace = (f"component {component.id!r}:",) + verdict.trace
            if verdict.conclusion is Conclusion.TIGHT and q == 1 and p >= 2:
                try:
                    tb = dual_invariants(diagram, component.id).tb_q
                except (NonNullhomologousDual, MissingCoefficient, Unsupported) as error:
                    trace += (
                        "Conway check skipped: tb in the surgered manifold is "
                        f"undefined: {error}",
                    )
                else:
                    if tb.denominator == 1 and tb <= -2 and p < -tb:
                        trace += (
                            f"{CONWAY_FLAG}: tb = {format_rational(tb)} <= -2 in "
                            f"the surgered manifold and 2 <= n = {p} < |tb| = "
                            f"{-int(tb)}, yet contact (+{p})-surgery is tight, "
                            "contradicting the conjecture that it must be "
                            "overtwisted",
                        )
            verdicts.append(
                Verdict(conclusion=verdict.conclusion, rule=verdict.rule, trace=trace)
            )
    return verdicts


def verdict_to_obj(verdict: Verdict) -> dict:
    """JSON-ready form: conclusion, rule, trace (rationals as 'p/q' strings)."""
    return {
        "conclusion": verdict.conclusion.value,
        "rule": verdict.rule,
        "trace": list(verdict.trace),
    }
