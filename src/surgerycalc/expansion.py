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
``expand_diagram`` is the only expander; a single knot is expanded as
a one-component diagram. One private dispatch, ``_knot_group``, picks
the shape of each surgered component, so +1 and -1 pass through as the
knot itself. Its shape test is one predicate, ``_check_expandable``,
which ``invariants`` shares.

Stabilization sign choices ("zigzags") are not canonical and genuinely
change the resulting contact structure. They are fixed by a named
policy (one of ``ZIGZAG_POLICIES``, "all-negative" by default) that is
recorded in the output, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import NamedTuple, Optional, Sequence

from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    LinkingBlocks,
    SurgeryComponent,
    SurgeryDiagram,
    _check_unique_ids,
)
from .exact import RationalLike, as_rational, format_rational

__all__ = [
    "ExpandedPresentation",
    "RangeError",
    "Unsupported",
    "ZIGZAG_POLICIES",
    "evaluate_negative_continued_fraction",
    "expand_diagram",
    "negative_continued_fraction",
    "stabilization_counts",
]

ZIGZAG_POLICIES = ("all-negative", "all-positive", "balanced")

DEFAULT_ZIGZAG_POLICY = "all-negative"


class RangeError(ValueError):
    """A value lies outside the range a function handles.

    ``negative_continued_fraction`` raises it for r >= 0.
    """


class Unsupported(ValueError):
    """The coefficient shape is outside what the expansion rules certify."""


@dataclass(frozen=True)
class ExpandedPresentation:
    """The result of expanding rational coefficients into (+-1)-surgeries.

    The expansion is kept as ``expand_diagram`` derives it, one record
    per derived curve in order. ``records[i]`` holds the id and the
    Euler characteristic of the curve's source knot and the curve
    itself: its id, tb and rot, its coefficient (+1 or -1, or None for
    an unsurgered component passing through) and the zigzag signs that
    reached it. ``linking_blocks`` holds the linking matrix as
    per-group blocks (``LinkingBlocks``), from which the CLI writes the
    rows without building the matrix; ``zigzag_policy`` records how
    stabilization signs were chosen. The CLI writes its report from
    these fields alone.

    ``derived_diagram`` realizes the records, with the N x N matrix, as
    an ordinary surgery diagram whose surgered components all carry +1
    or -1. It is built and validated on first access; every check that
    can fail on input has run in ``expand_diagram`` before it returned,
    so building it cannot fail.
    """

    records: tuple[_Record, ...]
    zigzag_policy: str
    ambient: AmbientStatus
    linking_blocks: LinkingBlocks

    @cached_property
    def derived_diagram(self) -> SurgeryDiagram:
        components = tuple(
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
        return SurgeryDiagram(
            ambient=self.ambient,
            components=components,
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
    """Evaluate a1 - 1/(a2 - 1/(... - 1/am)) exactly.

    The suffix ai - 1/(... - 1/am) is kept as the integer continuant
    pair (P, Q), from (am, 1) by (P, Q) -> (ai P - Q, P), and one
    Fraction is built at the end. P and Q stay coprime, so a suffix is 0
    exactly when its P is; dividing by it raises ZeroDivisionError.
    """
    if not digits:
        raise ValueError("empty continued fraction")
    numerator, denominator = digits[-1], 1
    for a in reversed(digits[:-1]):
        if not numerator:
            raise ZeroDivisionError("a suffix of the continued fraction is 0")
        numerator, denominator = a * numerator - denominator, numerator
    return Fraction(numerator, denominator)


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
    return tuple(-1 if k % 2 == 0 else 1 for k in range(count))  # balanced


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
    zigzag_policy: str,
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
    identity = len(digits) == 1 and counts[0] == 0 and not first_is_pushoff
    curves = []
    tb = source.tb
    rot = source.rot
    for position, count in enumerate(counts, start=1):
        signs = _signs_for(count, zigzag_policy)
        tb -= count
        rot += sum(signs)
        curve_id = source.id if identity else f"{source.id}#{position}"
        curves.append(_Curve(curve_id, tb, rot, -1, signs))
    return curves


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
    knot: LegendrianKnotData, r: Fraction, zigzag_policy: str
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


# --------------------------------------------------------------------------
# The expander


def expand_diagram(
    diagram: SurgeryDiagram,
    *,
    zigzag_policy: str = DEFAULT_ZIGZAG_POLICY,
) -> ExpandedPresentation:
    """Expand every surgered component of a diagram into (+-1)-surgeries.

    Each surgered component becomes its group of curves through the
    shape dispatch ``_knot_group``, so +1 and -1 pass through
    unchanged; an unsurgered component passes through as it is. Each
    curve becomes one record with its source's id and Euler
    characteristic. Curves from different groups link as their sources
    do. Within a group a later curve is a parallel copy of a push-off
    of an earlier one, so the two link by the earlier curve's contact
    framing: its tb. That is the rule ``LinkingBlocks`` describes, so
    the linking matrix is kept as the groups' tbs and the diagram's own
    k x k linking matrix.

    No per-curve object is built. The checks that can fail on input
    run here, in the order the objects' constructors and
    ``SurgeryDiagram`` would make them: the policy name, the
    coefficient shape (``_check_expandable``) while the groups are
    built, then unique ids on the curves. Every other check those
    constructors make holds by construction, since the curves come
    from a diagram that was already validated: ids are non-empty strs;
    tb drops by int counts and rot moves by +-1 signs, so both stay
    ints; euler_char is the source's; coefficients are +1 or -1; the
    k x k table is symmetric with a zero diagonal.
    """
    if zigzag_policy not in ZIGZAG_POLICIES:
        raise ValueError(
            f"unknown zigzag policy {zigzag_policy!r}; expected one of "
            f"{ZIGZAG_POLICIES}"
        )
    knots = [component.knot for component in diagram.components]
    groups = [
        [_Curve(knot.id, knot.tb, knot.rot, None, ())]
        if component.contact_coefficient is None
        else _knot_group(knot, component.contact_coefficient, zigzag_policy)
        for knot, component in zip(knots, diagram.components)
    ]
    _check_unique_ids(chain.from_iterable(groups))
    records = tuple(
        chain.from_iterable(
            zip(repeat(knot.id), repeat(knot.euler_char), group)
            for knot, group in zip(knots, groups)
        )
    )
    blocks = LinkingBlocks(
        tbs=tuple(tuple(curve.tb for curve in group) for group in groups),
        source=diagram.linking,
    )
    return ExpandedPresentation(
        records=records,
        zigzag_policy=zigzag_policy,
        ambient=diagram.ambient,
        linking_blocks=blocks,
    )
