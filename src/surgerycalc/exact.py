"""Exact rational arithmetic and exact dense linear algebra.

Every numeric quantity in this package is an exact rational
(`fractions.Fraction`). Floating point is never used: the downstream
tight-or-overtwisted verdicts flip on the exact sign of a determinant,
so a single rounding error could silently change an answer.

`fractions.Fraction` already maintains the canonical form the rest of
the package relies on (positive denominator, lowest terms, zero stored
as 0/1) on top of arbitrary-precision integers.

Determinants and solves share one elimination kernel. It scales each
row (right-hand side included) by the lcm of its denominators, runs
fraction-free Bareiss elimination (Bareiss 1968) over Python ints, and
back-substitutes for y = d * x, where d is the last pivot (the
determinant of the scaled system up to sign). By Cramer's rule y is
integral, so every division is exact. Fractions are built only for the
returned values. Linking matrices of expanded presentations are integer
matrices with up to hundreds of rows; elimination is cubic in the
dimension, and keeping the per-entry gcd of Fraction arithmetic out of
the inner loop is what makes those sizes affordable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "DimensionMismatch",
    "Rational",
    "RationalLike",
    "SingularMatrix",
    "SquareMatrix",
    "as_rational",
    "det",
    "format_rational",
    "inner_product",
    "parse_rational",
    "solve",
]

#: The universal numeric type of the package.
Rational = Fraction

RationalLike = Union[int, str, Fraction]

_RATIONAL_FORMAT = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions do not agree."""


class SingularMatrix(ValueError):
    """Linear solve attempted on a matrix with determinant zero."""


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
    """Render a rational as "p/q", or plain "p" when the denominator is 1."""
    return str(as_rational(value))


class SquareMatrix:
    """Immutable square matrix of exact rationals.

    Rows are stored as a tuple of tuples of Fraction; every operation
    treats the matrix as a value. Entries may be given as ints,
    Fractions or "p/q" strings.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        normalized = tuple(tuple(as_rational(entry) for entry in row) for row in rows)
        for index, row in enumerate(normalized):
            if len(row) != len(normalized):
                raise DimensionMismatch(
                    f"row {index} has {len(row)} entries, expected {len(normalized)}"
                )
        self._rows = normalized

    @classmethod
    def identity(cls, dimension: int) -> "SquareMatrix":
        return cls(
            tuple(
                tuple(Fraction(int(i == j)) for j in range(dimension))
                for i in range(dimension)
            )
        )

    @property
    def dimension(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def row(self, index: int) -> tuple[Fraction, ...]:
        return self._rows[index]

    def column(self, index: int) -> tuple[Fraction, ...]:
        return tuple(row[index] for row in self._rows)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def is_symmetric(self) -> bool:
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.dimension)
            for j in range(i)
        )

    def apply(self, vector: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Matrix-vector product, exact."""
        vec = tuple(as_rational(entry) for entry in vector)
        if len(vec) != self.dimension:
            raise DimensionMismatch(
                f"vector has {len(vec)} entries, matrix dimension is {self.dimension}"
            )
        return tuple(inner_product(row, vec) for row in self._rows)

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
    rows: Sequence[Sequence[Fraction]], n: int
) -> tuple[list[list[int]], int, int] | None:
    """Integer fraction-free (Bareiss) elimination of the first n columns.

    Each row is first scaled by the lcm of its denominators, so the
    elimination runs over Python ints and no gcd is ever taken. Rows
    may carry extra columns (a right-hand side) that are transformed
    along. Returns (rows, sign, scale): the upper triangular integer
    rows, the parity of the row swaps and the product of the row
    scales, so that det = sign * rows[n-1][n-1] / scale. Returns None
    when a pivot column is zero, that is, when the matrix is singular.
    """
    a = []
    scale = 1
    for row in rows:
        s = math.lcm(*(entry.denominator for entry in row))
        scale *= s
        a.append([entry.numerator * (s // entry.denominator) for entry in row])
    sign = 1
    previous_pivot = 1
    for k in range(n):
        swap = next((i for i in range(k, n) if a[i][k]), None)
        if swap is None:
            return None
        if swap != k:
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        zeros = [0] * (k + 1)
        tail = a[k][k + 1 :]
        for i in range(k + 1, n):
            factor = a[i][k]
            # Bareiss step: the division by the previous pivot is exact.
            a[i] = zeros + [
                (x * pivot - factor * y) // previous_pivot
                for x, y in zip(a[i][k + 1 :], tail)
            ]
        previous_pivot = pivot
    return a, sign, scale


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
    a, sign, scale = reduced
    return Fraction(sign * a[n - 1][n - 1], scale)


def solve(matrix: SquareMatrix, vector: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Solve matrix . x = vector exactly.

    Raises SingularMatrix when the determinant vanishes (no pivot can
    be found), DimensionMismatch when the vector length is wrong.
    """
    n = matrix.dimension
    vec = tuple(as_rational(entry) for entry in vector)
    if len(vec) != n:
        raise DimensionMismatch(
            f"vector has {len(vec)} entries, matrix dimension is {n}"
        )
    if n == 0:
        return ()
    reduced = _eliminate([row + (v,) for row, v in zip(matrix.rows, vec)], n)
    if reduced is None:
        raise SingularMatrix("matrix has determinant zero")
    a = reduced[0]
    # With d the last pivot (the determinant of the row-scaled, permuted
    # system), y = d * x is integral by Cramer's rule, so back-substitution
    # for y divides exactly.
    d = a[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = a[i]
        acc = d * row[n]
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    return tuple(Fraction(value, d) for value in y)


def inner_product(
    left: Sequence[RationalLike], right: Sequence[RationalLike]
) -> Fraction:
    """Exact dot product of two equal-length rational vectors."""
    a = tuple(as_rational(entry) for entry in left)
    b = tuple(as_rational(entry) for entry in right)
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    total = Fraction(0)
    for x, y in zip(a, b):
        total += x * y
    return total
