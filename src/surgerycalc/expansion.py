"""Expansion of rational contact surgeries into (+-1)-surgery presentations.

A contact (r)-surgery with rational coefficient r decomposes into a
sequence of contact (+1)- and (-1)-surgeries along (stabilized)
push-offs of the knot:

* r = +1/n: contact (+1)-surgeries along n successive push-offs, no
  stabilizations.
* r = +p/q with p > q >= 1 coprime: one contact (+1)-surgery along the
  knot itself followed by a contact (-p/(p-q))-surgery along its
  push-off, which is then expanded further.
* r < 0: write r = a1 - 1/(a2 - 1/(... - 1/am)) in negative continued
  fraction normal form, a1 <= -1 and ai <= -2 for i >= 2 (found
  greedily with floors; the form is unique). The chain has m curves,
  each given a contact (-1)-surgery: the first is the knot itself
  after |a1 + 1| stabilizations, and each later curve is a push-off of
  its predecessor after |ai + 2| stabilizations.

Bookkeeping rules, applied cumulatively along a chain: a stabilization
lowers tb by 1 and moves rot by its sign (+1 raises, -1 lowers); a
push-off copies the tb and rot of the curve it is pushed off from; the
linking number of a later chain curve with an earlier curve c equals
the contact framing of c, i.e. c's tb at the moment the push-off was
taken. Curves derived from different sources link as their sources do.

Positive coefficients +p/q in lowest terms with 1 < p < q are outside
the shapes the expansion rules above certify and raise Unsupported.
One private dispatch picks the shape for every caller: ``expand_diagram``
runs it on each surgered component (so +1 and -1 pass through as the
knot itself), and the single-knot expanders run it after checking that
their argument has the shape they are named for.

Stabilization sign choices ("zigzags") are not canonical and genuinely
change the resulting contact structure. They are fixed by a policy
("all-negative" by default) that is recorded in the output, so results
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
)
from .exact import RationalLike, as_rational, format_rational

__all__ = [
    "ExpandedPresentation",
    "ExpansionStep",
    "NotCoprime",
    "RangeError",
    "Unsupported",
    "ZIGZAG_POLICIES",
    "evaluate_negative_continued_fraction",
    "expand_diagram",
    "expand_negative_rational",
    "expand_positive_rational",
    "expand_positive_unit_fraction",
    "negative_continued_fraction",
    "stabilization_counts",
]

ZIGZAG_POLICIES = ("all-negative", "all-positive", "balanced")

DEFAULT_ZIGZAG_POLICY = "all-negative"

#: A policy is either one of the named choices or, for the single-knot
#: expanders, an explicit list of sign tuples (one per chain curve).
ZigzagPolicy = Union[str, Sequence[Sequence[int]]]


class NotCoprime(ValueError):
    """p and q were required to be relatively prime."""


class RangeError(ValueError):
    """A surgery coefficient lies outside the range an expander handles."""


class Unsupported(ValueError):
    """The coefficient shape is outside what the expansion rules certify."""


@dataclass(frozen=True)
class ExpansionStep:
    """One (+-1)-surgery in an expanded presentation.

    ``stabilization_signs`` lists the zigzag signs in the order the
    stabilizations are applied; its length equals ``stabilizations``.
    """

    source_id: str
    coefficient: Fraction
    stabilizations: int
    stabilization_signs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "stabilization_signs", tuple(self.stabilization_signs)
        )
        coefficient = as_rational(self.coefficient)
        if coefficient not in (Fraction(1), Fraction(-1)):
            raise ValidationError(
                f"expansion step coefficient must be +1 or -1, got "
                f"{format_rational(coefficient)}"
            )
        object.__setattr__(self, "coefficient", coefficient)
        if self.stabilizations < 0:
            raise ValidationError("stabilization count must be non-negative")
        if len(self.stabilization_signs) != self.stabilizations:
            raise ValidationError(
                f"{len(self.stabilization_signs)} stabilization signs for "
                f"{self.stabilizations} stabilizations"
            )
        if any(sign not in (-1, 1) for sign in self.stabilization_signs):
            raise ValidationError("stabilization signs must be +1 or -1")


@dataclass(frozen=True)
class ExpandedPresentation:
    """The result of expanding rational coefficients into (+-1)-surgeries.

    ``derived_diagram`` realizes the steps as an ordinary surgery
    diagram (every surgered component carries coefficient +1 or -1);
    ``zigzag_policy`` records how stabilization signs were chosen.
    """

    steps: tuple[ExpansionStep, ...]
    derived_diagram: SurgeryDiagram
    zigzag_policy: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


# --------------------------------------------------------------------------
# Negative continued fractions


def negative_continued_fraction(r: RationalLike) -> tuple[int, ...]:
    """Digits (a1, ..., am) with r = a1 - 1/(a2 - 1/(... - 1/am)).

    Greedy floor algorithm: a = floor(remainder) at each stage. For
    r < 0 this yields the normal form a1 <= -1 and ai <= -2 for i >= 2.
    """
    value = as_rational(r)
    if value >= 0:
        raise RangeError(
            f"negative continued fraction needs r < 0, got {format_rational(value)}"
        )
    digits = []
    while True:
        a = math.floor(value)
        digits.append(a)
        if value == a:
            return tuple(digits)
        # r = a - 1/r' with r' = -1/(r - a); r - a lies in (0, 1), so
        # r' < -1 and the next digit is at most -2.
        value = Fraction(-1) / (value - a)


def evaluate_negative_continued_fraction(digits: Sequence[int]) -> Fraction:
    """Evaluate a1 - 1/(a2 - 1/(... - 1/am)) exactly."""
    if not digits:
        raise ValueError("empty continued fraction")
    value = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        value = a - Fraction(1) / value
    return value


def stabilization_counts(digits: Sequence[int]) -> tuple[int, ...]:
    """Per-curve stabilization counts of a negative chain.

    The first curve carries |a1 + 1| stabilizations, every later one
    |ai + 2|: a chain of once-(-1)-surgered curves realizes the digit
    a via a curve whose contact framing has dropped by that many
    stabilizations.
    """
    if not digits:
        raise ValueError("empty continued fraction")
    return (abs(digits[0] + 1),) + tuple(abs(a + 2) for a in digits[1:])


# --------------------------------------------------------------------------
# Zigzag policies


def _signs_for(count: int, policy: str) -> tuple[int, ...]:
    if policy == "all-negative":
        return (-1,) * count
    if policy == "all-positive":
        return (1,) * count
    if policy == "balanced":
        return tuple(-1 if k % 2 == 0 else 1 for k in range(count))
    raise ValueError(
        f"unknown zigzag policy {policy!r}; expected one of {ZIGZAG_POLICIES} "
        "or an explicit list of sign sequences"
    )


def _resolve_policy(
    policy: ZigzagPolicy, counts: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    if isinstance(policy, str):
        return tuple(_signs_for(count, policy) for count in counts)
    explicit = tuple(tuple(signs) for signs in policy)
    if len(explicit) != len(counts):
        raise ValidationError(
            f"explicit zigzag policy lists signs for {len(explicit)} curves, "
            f"chain has {len(counts)}"
        )
    for position, (signs, count) in enumerate(zip(explicit, counts), start=1):
        if len(signs) != count:
            raise ValidationError(
                f"curve {position} needs {count} stabilization signs, got "
                f"{len(signs)}"
            )
    return explicit


# --------------------------------------------------------------------------
# Chain assembly


@dataclass(frozen=True)
class _Curve:
    """Internal: one derived curve with its surgery data and origin."""

    knot: LegendrianKnotData
    coefficient: Optional[Fraction]
    step: Optional[ExpansionStep]


def _negative_chain(
    source: LegendrianKnotData,
    r: Fraction,
    zigzag_policy: ZigzagPolicy,
    *,
    first_is_pushoff: bool,
) -> list[_Curve]:
    """Build the (-1)-surgered chain expanding contact (r)-surgery, r < 0.

    When ``first_is_pushoff`` is false the first curve is the source
    knot itself (stabilized as needed); otherwise it is a push-off of
    the source. Either way tb and rot bookkeeping is identical because
    a push-off copies both.
    """
    digits = negative_continued_fraction(r)
    counts = stabilization_counts(digits)
    signs = _resolve_policy(zigzag_policy, counts)
    identity = len(digits) == 1 and counts[0] == 0 and not first_is_pushoff
    curves = []
    tb = source.tb
    rot = source.rot
    for position, (count, sign_list) in enumerate(zip(counts, signs), start=1):
        tb -= count
        rot += sum(sign_list)
        curve_id = source.id if identity else f"{source.id}#{position}"
        knot = LegendrianKnotData(
            id=curve_id, tb=tb, rot=rot, euler_char=source.euler_char
        )
        step = ExpansionStep(
            source_id=source.id,
            coefficient=Fraction(-1),
            stabilizations=count,
            stabilization_signs=sign_list,
        )
        curves.append(_Curve(knot=knot, coefficient=Fraction(-1), step=step))
    return curves


def _plus_one_curve(source: LegendrianKnotData, curve_id: str) -> _Curve:
    """A contact (+1)-surgery along an unstabilized push-off of ``source``."""
    knot = LegendrianKnotData(
        id=curve_id, tb=source.tb, rot=source.rot, euler_char=source.euler_char
    )
    step = ExpansionStep(
        source_id=source.id,
        coefficient=Fraction(1),
        stabilizations=0,
        stabilization_signs=(),
    )
    return _Curve(knot=knot, coefficient=Fraction(1), step=step)


def _knot_group(
    knot: LegendrianKnotData, r: Fraction, zigzag_policy: ZigzagPolicy
) -> list[_Curve]:
    """The curves expanding contact (r)-surgery along one knot.

    This is the only place that maps a coefficient shape to its
    expansion; +1 and -1 expand to the knot itself.
    """
    if r > 0 and r.numerator == 1:
        n = r.denominator
        return [
            _plus_one_curve(knot, knot.id if n == 1 else f"{knot.id}#{position}")
            for position in range(1, n + 1)
        ]
    if r > 0 and r.numerator > r.denominator:
        p, q = r.numerator, r.denominator
        tail = _negative_chain(
            knot, Fraction(-p, p - q), zigzag_policy, first_is_pushoff=True
        )
        return [_plus_one_curve(knot, knot.id)] + tail
    if r < 0:
        return _negative_chain(knot, r, zigzag_policy, first_is_pushoff=False)
    raise Unsupported(
        f"contact coefficient {format_rational(r)} on component "
        f"{knot.id!r} is not of an expandable shape "
        "(+-1, +1/n, +p/q with p > q >= 1, or negative)"
    )


def _assemble(
    groups: Sequence[Sequence[_Curve]],
    source_linking,
    ambient: AmbientStatus,
    zigzag_policy: ZigzagPolicy,
) -> ExpandedPresentation:
    """Glue per-component curve groups into one derived diagram.

    ``source_linking(a, b)`` gives the linking number of the sources of
    groups a and b; curves from different groups inherit it verbatim.
    Within a group a later curve is a parallel copy of a push-off of an
    earlier one, so the two link by the earlier curve's contact
    framing: its tb.
    """
    flat = [(g, curve) for g, group in enumerate(groups) for curve in group]
    size = len(flat)
    linking = [[0] * size for _ in range(size)]
    for a in range(size):
        ga, curve_a = flat[a]
        for b in range(a + 1, size):
            gb = flat[b][0]
            value = curve_a.knot.tb if ga == gb else source_linking(ga, gb)
            linking[a][b] = value
            linking[b][a] = value
    components = tuple(
        SurgeryComponent(knot=curve.knot, contact_coefficient=curve.coefficient)
        for _, curve in flat
    )
    derived = SurgeryDiagram(
        ambient=ambient,
        components=components,
        linking=tuple(tuple(row) for row in linking),
    )
    steps = tuple(
        curve.step for _, curve in flat if curve.step is not None
    )
    policy_name = zigzag_policy if isinstance(zigzag_policy, str) else "explicit"
    return ExpandedPresentation(
        steps=steps, derived_diagram=derived, zigzag_policy=policy_name
    )


def _expand_knot(
    knot: LegendrianKnotData, r: Fraction, zigzag_policy: ZigzagPolicy
) -> ExpandedPresentation:
    """Expansion of contact (r)-surgery along one knot, ambient unknown."""
    return _assemble(
        [_knot_group(knot, r, zigzag_policy)],
        lambda a, b: 0,
        AmbientStatus.UNKNOWN,
        zigzag_policy,
    )


def _check_coprime_positive(p: int, q: int) -> None:
    """Raise unless p and q are relatively prime positive integers."""
    for name, value in (("p", p), ("q", q)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p = {p} and q = {q} are not relatively prime")


# --------------------------------------------------------------------------
# Public expanders


def expand_positive_unit_fraction(
    knot: LegendrianKnotData, n: int
) -> ExpandedPresentation:
    """Expand contact (+1/n)-surgery along a knot.

    Produces n steps of coefficient +1 with no stabilizations; the
    derived diagram's linking matrix is the (+1)-push-off chain matrix
    (diagonal tb + 1, off-diagonal tb).
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    return _expand_knot(knot, Fraction(1, n), DEFAULT_ZIGZAG_POLICY)


def expand_negative_rational(
    knot: LegendrianKnotData,
    r: RationalLike,
    *,
    zigzag_policy: ZigzagPolicy = DEFAULT_ZIGZAG_POLICY,
) -> ExpandedPresentation:
    """Expand contact (r)-surgery with r < 0 into (-1)-surgeries.

    Step i carries |a_i + 2| stabilizations for i >= 2 and |a_1 + 1|
    for i = 1, where (a_1, ..., a_m) is the negative continued
    fraction of r.
    """
    value = as_rational(r)
    if value >= 0:
        raise RangeError(
            f"negative expansion needs r < 0, got {format_rational(value)}"
        )
    return _expand_knot(knot, value, zigzag_policy)


def expand_positive_rational(
    knot: LegendrianKnotData,
    p: int,
    q: int,
    *,
    zigzag_policy: ZigzagPolicy = DEFAULT_ZIGZAG_POLICY,
) -> ExpandedPresentation:
    """Expand contact (+p/q)-surgery with coprime p > q >= 1.

    One contact (+1)-surgery along the knot itself, then the expansion
    of a contact (-p/(p-q))-surgery along its push-off.
    """
    _check_coprime_positive(p, q)
    if q - p >= 0:
        raise RangeError(
            f"positive rational expansion needs p > q >= 1, got +{p}/{q} "
            "(only +1/n is expandable when p <= q)"
        )
    return _expand_knot(knot, Fraction(p, q), zigzag_policy)


def expand_diagram(
    diagram: SurgeryDiagram,
    *,
    zigzag_policy: str = DEFAULT_ZIGZAG_POLICY,
) -> ExpandedPresentation:
    """Expand every surgered component of a diagram into (+-1)-surgeries.

    Each surgered component goes through the same shape dispatch as
    the single-knot expanders, so +1 and -1 pass through unchanged;
    unsurgered components pass through as they are. Derived curves
    keep their source's linking numbers with curves derived from other
    components. Only the named zigzag policies are accepted here;
    per-curve explicit signs are a single-knot affair.
    """
    if not isinstance(zigzag_policy, str):
        raise ValidationError(
            "expand_diagram accepts only named zigzag policies; "
            "use the single-knot expanders for explicit sign lists"
        )
    _signs_for(0, zigzag_policy)  # validate the name early
    groups = [
        [_Curve(knot=component.knot, coefficient=None, step=None)]
        if component.contact_coefficient is None
        else _knot_group(component.knot, component.contact_coefficient, zigzag_policy)
        for component in diagram.components
    ]
    return _assemble(groups, diagram.linking_number, diagram.ambient, zigzag_policy)
