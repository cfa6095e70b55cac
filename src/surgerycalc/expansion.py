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
their argument has the shape they are named for. Its shape test is one
predicate, ``_check_expandable``, which ``invariants`` shares.

Stabilization sign choices ("zigzags") are not canonical and genuinely
change the resulting contact structure. They are fixed by a policy
("all-negative" by default) that is recorded in the output, so results
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple, Optional, Sequence, Union

from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    LinkingBlocks,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    _check_knot_int,
    _check_unique_ids,
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

_SIGNS = frozenset((-1, 1))

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
        if coefficient not in (1, -1):
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
        _check_signs(self.stabilization_signs)


@dataclass(frozen=True)
class ExpandedPresentation:
    """The result of expanding rational coefficients into (+-1)-surgeries.

    The expansion is kept as the expanders derive it, one record per
    derived curve in order. ``records[i]`` holds the id and the Euler
    characteristic of the curve's source knot and the curve itself: its
    id, tb and rot, its coefficient (+1 or -1, or None for an unsurgered
    component passing through) and the zigzag signs that reached it.
    ``linking_blocks`` holds the linking matrix as per-group blocks
    (``LinkingBlocks``), from which the CLI writes the rows without
    building the matrix; ``zigzag_policy`` records how stabilization
    signs were chosen. The CLI writes its report from these fields
    alone.

    ``components`` (one SurgeryComponent per record), ``steps`` (one
    ExpansionStep per surgered record) and ``derived_diagram`` (which
    realizes them, with the N x N matrix, as an ordinary surgery
    diagram whose surgered components all carry +1 or -1) are views,
    built and validated on first access. Every check that can fail on
    input has run in the expander before it returned, so building them
    cannot fail (see ``_assemble``).
    """

    records: tuple[_Record, ...]
    zigzag_policy: str
    ambient: AmbientStatus
    linking_blocks: LinkingBlocks

    @cached_property
    def components(self) -> tuple[SurgeryComponent, ...]:
        return tuple(
            SurgeryComponent(
                knot=LegendrianKnotData(
                    id=curve.id, tb=curve.tb, rot=curve.rot, euler_char=euler_char
                ),
                contact_coefficient=(
                    None if curve.coefficient is None else Fraction(curve.coefficient)
                ),
            )
            for _, euler_char, curve in self.records
        )

    @cached_property
    def steps(self) -> tuple[ExpansionStep, ...]:
        return tuple(
            ExpansionStep(
                source_id=source_id,
                coefficient=Fraction(curve.coefficient),
                stabilizations=len(curve.signs),
                stabilization_signs=curve.signs,
            )
            for source_id, _, curve in self.records
            if curve.coefficient is not None
        )

    @cached_property
    def derived_diagram(self) -> SurgeryDiagram:
        return SurgeryDiagram(
            ambient=self.ambient,
            components=self.components,
            linking=self.linking_blocks.matrix(),
        )


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
    p, q = value.numerator, value.denominator
    digits = []
    while True:
        a, s = divmod(p, q)
        digits.append(a)
        if s == 0:
            return tuple(digits)
        # r = a + s/q = a - 1/r' with r' = -q/s; 0 < s < q, so r' < -1
        # and the next digit is at most -2.
        p, q = -q, s


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


class _Curve(NamedTuple):
    """Internal: one derived curve of a group, before it becomes a component.

    ``coefficient`` is +1 or -1 for an expanded curve and None for an
    unsurgered component passing through; ``signs`` are the zigzags
    applied to reach this curve from its predecessor. ``invariants``
    never builds curves: it reads each group's contribution off the
    coefficient in closed form.
    """

    id: str
    tb: int
    rot: int
    coefficient: Optional[int]
    signs: tuple[int, ...]


#: One derived curve with the id and the Euler characteristic of its
#: source knot, as ``ExpandedPresentation`` keeps it: a plain tuple, built
#: at C speed.
_Record = tuple[str, int, _Curve]


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
        curves.append(_Curve(curve_id, tb, rot, -1, sign_list))
    if not isinstance(zigzag_policy, str):
        _check_explicit_curves(curves)
    return curves


def _check_explicit_curves(curves: Sequence[_Curve]) -> None:
    """The checks a curve reached by explicit signs can fail, curve by curve.

    They are the checks of ``LegendrianKnotData`` and ``ExpansionStep``
    that depend on the signs, with their messages and in their order:
    rot must be an integer (a sign such as 1.0 equals 1, passes the
    value check and makes rot a float), and every sign +1 or -1. Named
    policies pass both by construction.
    """
    for curve in curves:
        _check_knot_int(curve.id, "rot", curve.rot)
        _check_signs(curve.signs)


def _check_signs(signs: tuple[int, ...]) -> None:
    if not _SIGNS.issuperset(signs):
        raise ValidationError("stabilization signs must be +1 or -1")


def _check_expandable(knot: LegendrianKnotData, r: Fraction) -> None:
    """Raise Unsupported unless contact (r)-surgery along ``knot`` has an
    expandable shape: +1/n, +p/q with p > q >= 1, or negative."""
    if r < 0 or r.numerator == 1 or r.numerator > r.denominator:
        return
    raise Unsupported(
        f"contact coefficient {format_rational(r)} on component "
        f"{knot.id!r} is not of an expandable shape "
        "(+-1, +1/n, +p/q with p > q >= 1, or negative)"
    )


def _knot_group(
    knot: LegendrianKnotData, r: Fraction, zigzag_policy: ZigzagPolicy
) -> list[_Curve]:
    """The curves expanding contact (r)-surgery along one knot, in chain order.

    This is the only place that maps a coefficient shape to its
    expansion; +1 and -1 expand to the knot itself. Every curve is a
    (+1)-surgery along an unstabilized push-off or a (-1)-surgery.
    """
    _check_expandable(knot, r)
    if r < 0:
        return _negative_chain(knot, r, zigzag_policy, first_is_pushoff=False)
    p, q = r.numerator, r.denominator
    if p == 1:
        return [
            _Curve(
                knot.id if q == 1 else f"{knot.id}#{position}", knot.tb, knot.rot, 1, ()
            )
            for position in range(1, q + 1)
        ]
    tail = _negative_chain(
        knot, Fraction(-p, p - q), zigzag_policy, first_is_pushoff=True
    )
    return [_Curve(knot.id, knot.tb, knot.rot, 1, ())] + tail


def _assemble(
    sources: Sequence[LegendrianKnotData],
    groups: Sequence[Sequence[_Curve]],
    source_linking,
    ambient: AmbientStatus,
    zigzag_policy: ZigzagPolicy,
) -> ExpandedPresentation:
    """Glue per-component curve groups into one expanded presentation.

    Group a holds the curves derived from ``sources[a]``; each curve
    becomes one record with that source's id and Euler characteristic.
    ``source_linking(a, b)`` gives the linking number of the sources of
    groups a and b; curves from different groups inherit it verbatim.
    Within a group a later curve is a parallel copy of a push-off of an
    earlier one, so the two link by the earlier curve's contact
    framing: its tb. That is the rule ``LinkingBlocks`` describes, so
    the linking matrix is kept as the groups' tbs and the k x k table of
    ``source_linking``, read once per pair of groups.

    No per-curve object is built. The checks that can fail on input
    run in the expander, in the order the objects' constructors and
    ``SurgeryDiagram`` would make them: the coefficient shape
    (``_check_expandable``) and the lengths of an explicit sign list
    (``_resolve_policy``) while the groups are built, then each curve's
    rot and sign values when they come from explicit signs
    (``_check_explicit_curves``), then, here, unique ids on the curves
    and symmetry on the k x k table. Every other check those
    constructors make holds by construction, since the curves come
    from knots that were already validated: ids are non-empty strs; tb
    drops by int counts and rot moves by checked signs, so both stay
    ints; euler_char is the source's; coefficients are +1 or -1 and
    each stabilization count is the length of its sign tuple.
    """
    _check_unique_ids(chain.from_iterable(groups))
    records = tuple(
        chain.from_iterable(
            zip(repeat(source.id), repeat(source.euler_char), group)
            for source, group in zip(sources, groups)
        )
    )
    k = len(groups)
    blocks = LinkingBlocks(
        tbs=tuple(tuple(curve.tb for curve in group) for group in groups),
        source=tuple(
            tuple(0 if g == h else source_linking(g, h) for h in range(k))
            for g in range(k)
        ),
    )
    policy_name = zigzag_policy if isinstance(zigzag_policy, str) else "explicit"
    return ExpandedPresentation(
        records=records,
        zigzag_policy=policy_name,
        ambient=ambient,
        linking_blocks=blocks,
    )


def _expand_knot(
    knot: LegendrianKnotData, r: Fraction, zigzag_policy: ZigzagPolicy
) -> ExpandedPresentation:
    """Expansion of contact (r)-surgery along one knot, ambient unknown."""
    return _assemble(
        [knot],
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
    knots = [component.knot for component in diagram.components]
    groups = [
        [_Curve(knot.id, knot.tb, knot.rot, None, ())]
        if component.contact_coefficient is None
        else _knot_group(knot, component.contact_coefficient, zigzag_policy)
        for knot, component in zip(knots, diagram.components)
    ]
    return _assemble(
        knots, groups, diagram.linking_number, diagram.ambient, zigzag_policy
    )
