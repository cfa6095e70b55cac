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
the shape of each surgered component; it alone passes +1 and -1
through as the knot itself, and every other shape gets curves named
"<id>#<position>". Its shape test is one predicate,
``_check_expandable``, which ``invariants`` shares. The expansion is
kept as one named record per derived curve, which carries the id and
the Euler characteristic of its source knot, and its linking matrix as
per-group blocks (``LinkingBlocks``), which the CLI writes row by row.

Stabilization sign choices ("zigzags") are not canonical and genuinely
change the resulting contact structure. They are fixed by a named
policy (one of ``ZIGZAG_POLICIES``, "all-negative" by default) that is
recorded in the output, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional, Sequence

from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
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

    The expansion is kept as ``expand_diagram`` derives it, one named
    record per derived curve in order. ``records[i]`` is a ``_Curve``
    read by field name: the curve's ``id``, ``tb`` and ``rot``, the
    ``euler_char`` and ``source_id`` of its source knot, its
    ``coefficient`` (+1 or -1, or None for an unsurgered component
    passing through) and the zigzag ``signs`` that reached it.
    ``linking_blocks`` holds the linking matrix as per-group blocks
    (``LinkingBlocks``), from which the CLI writes the rows without
    building the matrix; ``zigzag_policy`` records how stabilization
    signs were chosen. The CLI writes its report from these fields
    alone.

    ``derived_diagram`` realizes the records, with the N x N matrix, as
    an ordinary surgery diagram whose surgered components all carry +1
    or -1. No command reads it: its one reader is the benchmark's span
    hook on ``expand_diagram``, which counts its components. It is
    built and validated on first access; every check that can fail on
    input has run in ``expand_diagram`` before it returned, so building
    it cannot fail.
    """

    records: tuple[_Curve, ...]
    zigzag_policy: str
    ambient: AmbientStatus
    linking_blocks: LinkingBlocks

    @cached_property
    def derived_diagram(self) -> SurgeryDiagram:
        components = tuple(
            SurgeryComponent(
                knot=LegendrianKnotData(
                    id=curve.id, tb=curve.tb, rot=curve.rot, euler_char=curve.euler_char
                ),
                contact_coefficient=(
                    None if curve.coefficient is None else Fraction(curve.coefficient)
                ),
            )
            for curve in self.records
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
    """One derived curve of an expansion, as ``ExpandedPresentation`` keeps it.

    ``id``, ``tb`` and ``rot`` are the curve's own; ``euler_char`` and
    ``source_id`` are those of the source knot it was derived from.
    ``coefficient`` is +1 or -1 for an expanded curve and None for an
    unsurgered component passing through; ``signs`` are the zigzags
    applied to reach this curve from its predecessor. ``invariants``
    never builds curves: it reads each group's contribution off the
    coefficient in closed form.
    """

    id: str
    tb: int
    rot: int
    euler_char: int
    coefficient: Optional[int]
    signs: tuple[int, ...]
    source_id: str


def _unstabilized(
    knot: LegendrianKnotData, coefficient: Optional[int], curve_id: Optional[str] = None
) -> _Curve:
    """The knot itself, or its push-off ``curve_id``, with ``coefficient``."""
    return _Curve(
        knot.id if curve_id is None else curve_id,
        knot.tb, knot.rot, knot.euler_char, coefficient, (), knot.id,
    )


def _negative_chain(
    source: LegendrianKnotData, r: Fraction, zigzag_policy: str
) -> list[_Curve]:
    """The (-1)-surgered chain expanding contact (r)-surgery, r < 0, r != -1.

    Curve i is ``{source.id}#i``. The first curve is the source knot
    itself (stabilized as needed) or, in a +p/q tail, a push-off of it:
    the tb and rot bookkeeping is the same either way, because a
    push-off copies both.
    """
    digits = negative_continued_fraction(r)
    curves = []
    tb = source.tb
    rot = source.rot
    for position, count in enumerate(stabilization_counts(digits), start=1):
        signs = _signs_for(count, zigzag_policy)
        tb -= count
        rot += sum(signs)
        curves.append(
            _Curve(
                f"{source.id}#{position}", tb, rot, source.euler_char, -1, signs,
                source.id,
            )
        )
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
    expansion; +1 and -1 are the knot itself. Every curve is a
    (+1)-surgery along an unstabilized push-off or a (-1)-surgery.
    """
    _check_expandable(knot, r)
    if abs(r) == 1:
        return [_unstabilized(knot, r.numerator)]
    if r < 0:
        return _negative_chain(knot, r, zigzag_policy)
    p, q = r.numerator, r.denominator
    if p == 1:
        return [
            _unstabilized(knot, 1, f"{knot.id}#{position}")
            for position in range(1, q + 1)
        ]
    tail = _negative_chain(knot, Fraction(-p, p - q), zigzag_policy)
    return [_unstabilized(knot, 1)] + tail


# --------------------------------------------------------------------------
# The expander


@dataclass(frozen=True)
class LinkingBlocks:
    """A linking matrix of curves in consecutive groups, as per-group blocks.

    ``tbs[g]`` holds the tbs of group g's curves in order, and
    ``source[g][h]`` (g != h) links every curve of group g with every
    curve of group h; within a group a later curve links an earlier one
    by the earlier curve's tb. So the row of curve i of group g, which
    has L curves, is ``source[g][h]`` repeated len(tbs[h]) times for
    each h < g, the tbs of the curves before i, 0, ``tbs[g][i]``
    repeated L - i - 1 times, and ``source[g][h]`` repeated len(tbs[h])
    times for each h > g.

    Entries are ints, the diagonal is 0 and ``source`` is symmetric, by
    construction from validated knots and diagrams.
    """

    tbs: tuple[tuple[int, ...], ...]
    source: tuple[tuple[int, ...], ...]

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The linking matrix as a tuple of int tuples."""
        rows = []
        for g, tbs in enumerate(self.tbs):
            blocks = [
                (entry,) * len(self.tbs[h]) for h, entry in enumerate(self.source[g])
            ]
            left = sum(blocks[:g], ())
            right = sum(blocks[g + 1 :], ())
            for i, tb in enumerate(tbs):
                rows.append(left + tbs[:i] + (0,) + (tb,) * (len(tbs) - i - 1) + right)
        return tuple(rows)

    def row_texts(self, sep: str, opener: str, closer: str):
        """Each row's entries joined by ``sep``, between ``opener`` and ``closer``.

        One str per block and per curve, and none per entry: a block is
        one string repeated.
        """
        for g, tbs in enumerate(self.tbs):
            row = self.source[g]
            left = "".join([(str(row[h]) + sep) * len(self.tbs[h]) for h in range(g)])
            right = "".join(
                [(sep + str(row[h])) * len(self.tbs[h])
                 for h in range(g + 1, len(self.tbs))]
            )
            pieces = [str(tb) + sep for tb in tbs]
            earlier = "".join(pieces)
            offset = 0
            for i, tb in enumerate(tbs):
                yield "".join(
                    (opener, left, earlier[:offset], "0",
                     (sep + str(tb)) * (len(tbs) - i - 1), right, closer)
                )
                offset += len(pieces[i])


def expand_diagram(
    diagram: SurgeryDiagram,
    *,
    zigzag_policy: str = DEFAULT_ZIGZAG_POLICY,
) -> ExpandedPresentation:
    """Expand every surgered component of a diagram into (+-1)-surgeries.

    Each surgered component becomes its group of curves through the
    shape dispatch ``_knot_group``, so +1 and -1 pass through
    unchanged; an unsurgered component passes through as it is. Each
    curve is one named record (``_Curve``) that carries its source's
    id and Euler characteristic. Curves from different groups link as
    their sources do. Within a group a later curve is a parallel copy
    of a push-off of an earlier one, so the two link by the earlier
    curve's contact framing: its tb. That is the rule
    ``LinkingBlocks`` describes, so the linking matrix is kept as the
    groups' tbs and the diagram's own k x k linking matrix.

    No knot, component or matrix is built. The checks that can fail on
    input run here, in the order the objects' constructors and
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
    groups = [
        [_unstabilized(component.knot, None)]
        if component.contact_coefficient is None
        else _knot_group(component.knot, component.contact_coefficient, zigzag_policy)
        for component in diagram.components
    ]
    records = tuple(chain.from_iterable(groups))
    _check_unique_ids(records)
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
