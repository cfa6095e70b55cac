"""Exact rationals and the one exact linear solve.

Every number in this package is exact: an int or a
`fractions.Fraction`. Floating point is never used: the downstream
tight-or-overtwisted verdicts flip on the exact sign of a determinant,
so a single rounding error could silently change an answer.

`fractions.Fraction` already maintains the canonical form the rest of
the package relies on (positive denominator, lowest terms, zero stored
as 0/1) on top of arbitrary-precision integers.

The one linear system the package solves is the k x k framed linking
system of ``invariants`` (one row per surgered component, never one
per expanded curve). ``invariants`` builds it with its denominators
already cleared, so ``solve_integral`` takes augmented rows of Python
ints only. It runs fraction-free Bareiss elimination (Bareiss 1968)
and back-substitutes for y = d * x, where d = det A with its sign
(the last pivot times the parity of the row swaps). By Cramer's rule
y is integral, so every division is exact, and no gcd is ever taken.
Elimination is cubic in the dimension.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

__all__ = [
    "DimensionMismatch",
    "RationalLike",
    "SingularMatrix",
    "TooManyDigits",
    "as_rational",
    "format_rational",
    "parse_rational",
    "solve_integral",
]

RationalLike = Union[int, str, Fraction]

_RATIONAL_FORMAT = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


class DimensionMismatch(ValueError):
    """A row of a linear system has the wrong length."""


class SingularMatrix(ValueError):
    """Linear solve attempted on a matrix with determinant zero."""


class TooManyDigits(ValueError):
    """A number has more digits than CPython converts to a string."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "p/q" string to an exact Fraction.

    Floats (and bools) are rejected outright; accepting them would
    invite silent loss of exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as "p/q", or "n" for an integer.

    The denominator, when present, must be a positive integer.
    Decimal notation is rejected: files and options exchange rationals
    exactly or not at all.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational 'p/q' string: {text!r}")
    stripped = text.strip()
    if not _RATIONAL_FORMAT.fullmatch(stripped):
        raise ValueError(f"not a rational 'p/q' string: {text!r}")
    return Fraction(stripped)


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p/q", or plain "p" when the denominator is 1.

    Raises TooManyDigits past CPython's int-string digit limit."""
    value = as_rational(value)
    try:
        return str(value)
    except ValueError:
        raise TooManyDigits(
            "result too large to print: more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def solve_integral(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Integers (y, d), d = det A != 0, with A . (y / d) = b exactly.

    ``rows`` are the n augmented rows (A_i | b_i) of the system, each n
    ints and then b_i. Raises TypeError for an entry that is not an int
    (bools, floats, Fractions and strs included), DimensionMismatch for
    a row whose length is not n + 1 and SingularMatrix when det A = 0
    (no pivot can be found).
    """
    n = len(rows)
    for index, row in enumerate(rows):
        if len(row) != n + 1:
            raise DimensionMismatch(
                f"row {index} has {len(row)} entries, expected {n + 1}"
            )
        for value in row:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"row {index}: not an int: {value!r}")
    # Fraction-free (Bareiss) elimination over ints, which leaves
    # ``rows`` unmodified: upper[k] is row k of the upper triangular
    # form from column k on, rhs last, and sign the parity of the row
    # swaps.
    active = list(rows)
    upper = []
    sign = pivot = 1
    for _ in range(n):
        if not active[0][0]:
            swap = next((i for i, row in enumerate(active) if row[0]), None)
            if swap is None:
                raise SingularMatrix("matrix has determinant zero")
            active[0], active[swap] = active[swap], active[0]
            sign = -sign
        top = active[0]
        previous_pivot, pivot = pivot, top[0]
        tail = top[1:]
        upper.append(top)
        # Bareiss step on the rows below, which drop the pivot column:
        # the division by the previous pivot is exact.
        active = [
            [(x * pivot - row[0] * y) // previous_pivot for x, y in zip(row[1:], tail)]
            for row in active[1:]
        ]
    # The last pivot is the determinant of the row-swapped system, so
    # d = det A (1 for n = 0). y = d * x is integral by Cramer's rule, so
    # back-substitution for y divides exactly. Row i is (pivot, entries
    # right of it, rhs).
    d = sign * pivot
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = upper[i]
        y[i] = (d * row[-1] - sum(map(mul, row[1:-1], y[i + 1 :]))) // row[0]
    return tuple(y), d
