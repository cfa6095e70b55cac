"""Exact rational arithmetic and exact dense linear algebra.

Every number in this package is exact: an int or a
`fractions.Fraction`. Floating point is never used: the downstream
tight-or-overtwisted verdicts flip on the exact sign of a determinant,
so a single rounding error could silently change an answer.

`fractions.Fraction` already maintains the canonical form the rest of
the package relies on (positive denominator, lowest terms, zero stored
as 0/1) on top of arbitrary-precision integers.

Integers stay integers until a result is built. The linking matrices
of surgery diagrams are integer matrices, so `SquareMatrix` stores an
int entry as the int it is (strings and Fractions become Fractions),
and `solve_integral` keeps int vector entries likewise.

Determinants and solves share one elimination kernel. It scales each
row that holds a Fraction (right-hand side included) by the lcm of its
denominators, runs fraction-free Bareiss elimination (Bareiss 1968)
over Python ints, and back-substitutes for y = d * x, where d is the
last pivot (the determinant of the scaled system up to sign). By
Cramer's rule y is integral, so every division is exact.
`solve_integral` returns the pair (y, d) itself, and `det` one
Fraction. The kernel serves the k x k solve of ``invariants`` (one row
per surgered component, never one per expanded curve) and the
selftest's determinants of chain matrices; elimination is cubic in the
dimension, and the per-entry gcd of Fraction arithmetic stays out of
its inner loop.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "DimensionMismatch",
    "RationalLike",
    "SingularMatrix",
    "SquareMatrix",
    "TooManyDigits",
    "as_rational",
    "det",
    "format_rational",
    "parse_rational",
    "solve_integral",
]

RationalLike = Union[int, str, Fraction]

_RATIONAL_FORMAT = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")

# Entry types stored as they are; bool (an int subclass) is not one.
_EXACT_TYPES = frozenset((int, Fraction))


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions do not agree."""


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


def _entries(values: Iterable[RationalLike]) -> tuple[int | Fraction, ...]:
    """Ints and Fractions as they are, anything else through ``as_rational``."""
    values = tuple(values)
    if set(map(type, values)) <= _EXACT_TYPES:
        return values
    return tuple(v if type(v) in _EXACT_TYPES else as_rational(v) for v in values)


def _integers(entries: Sequence[int | Fraction]) -> tuple[Sequence[int], int]:
    """(v, s) with entries = v / s: s is the lcm of the denominators."""
    if set(map(type, entries)) <= {int}:
        return entries, 1
    s = math.lcm(*(entry.denominator for entry in entries))
    return [entry.numerator * (s // entry.denominator) for entry in entries], s


class SquareMatrix:
    """Immutable square matrix of exact rationals.

    Rows are stored as a tuple of tuples; every operation treats the
    matrix as a value. Entries may be given as ints, Fractions or "p/q"
    strings. An int entry is stored as the int it is, the others as
    Fractions, so an integer matrix reaches the elimination kernel
    without conversion; results are Fractions either way.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        normalized = tuple(_entries(row) for row in rows)
        for index, row in enumerate(normalized):
            if len(row) != len(normalized):
                raise DimensionMismatch(
                    f"row {index} has {len(row)} entries, expected {len(normalized)}"
                )
        self._rows = normalized

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[int | Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, key: tuple[int, int]) -> int | Fraction:
        i, j = key
        return self._rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(format_rational(x) for x in row) + "]" for row in self._rows
        )
        return f"SquareMatrix([{body}])"


def _eliminate(
    rows: Sequence[Sequence[int | Fraction]], n: int
) -> tuple[list[Sequence[int]], int, int] | None:
    """Integer fraction-free (Bareiss) elimination of the first n columns.

    A row of ints is taken as it is; a row holding a Fraction is first
    scaled by the lcm of its denominators. So the elimination runs over
    Python ints and no gcd is ever taken. Rows may carry extra columns
    (a right-hand side) that are transformed along. Returns
    (upper, sign, scale): upper[k] is row k of the upper triangular
    integer form from column k on, the parity of the row swaps and the
    product of the row scales, so that det = sign * upper[n-1][0] / scale.
    Returns None when a pivot column is zero, that is, when the matrix
    is singular.
    """
    active = []
    scale = 1
    for row in rows:
        integers, s = _integers(row)
        active.append(integers)
        scale *= s
    upper = []
    sign = 1
    previous_pivot = 1
    for _ in range(n):
        if not active[0][0]:
            swap = next((i for i, row in enumerate(active) if row[0]), None)
            if swap is None:
                return None
            active[0], active[swap] = active[swap], active[0]
            sign = -sign
        top = active[0]
        pivot = top[0]
        tail = top[1:]
        upper.append(top)
        # Bareiss step on the rows below, which drop the pivot column:
        # the division by the previous pivot is exact.
        active = [
            [(x * pivot - row[0] * y) // previous_pivot for x, y in zip(row[1:], tail)]
            for row in active[1:]
        ]
        previous_pivot = pivot
    return upper, sign, scale


def det(matrix: SquareMatrix) -> Fraction:
    """Exact determinant by integer fraction-free elimination.

    The empty (0 x 0) matrix has determinant 1, so bordered and chain
    constructions compose correctly in the degenerate "no surgery"
    case.
    """
    n = matrix.dimension
    if n == 0:
        return Fraction(1)
    reduced = _eliminate(matrix.rows, n)
    if reduced is None:
        return Fraction(0)
    upper, sign, scale = reduced
    return Fraction(sign * upper[-1][0], scale)


def solve_integral(
    matrix: SquareMatrix, vector: Sequence[RationalLike]
) -> tuple[tuple[int, ...], int]:
    """Integers (y, d), d != 0, with matrix . (y / d) = vector exactly.

    Raises SingularMatrix when the determinant vanishes (no pivot can
    be found), DimensionMismatch when the vector length is wrong.
    """
    n = matrix.dimension
    vec = _entries(vector)
    if len(vec) != n:
        raise DimensionMismatch(
            f"vector has {len(vec)} entries, matrix dimension is {n}"
        )
    if n == 0:
        return (), 1
    reduced = _eliminate([row + (v,) for row, v in zip(matrix.rows, vec)], n)
    if reduced is None:
        raise SingularMatrix("matrix has determinant zero")
    upper = reduced[0]
    # With d the last pivot (the determinant of the row-scaled, permuted
    # system), y = d * x is integral by Cramer's rule, so back-substitution
    # for y divides exactly. Row i is (pivot, entries right of it, rhs).
    d = upper[-1][0]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = upper[i]
        y[i] = (d * row[-1] - sum(map(mul, row[1:-1], y[i + 1 :]))) // row[0]
    return tuple(y), d

