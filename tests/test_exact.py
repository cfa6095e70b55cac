"""Exact arithmetic core: canonical form, determinants, solves."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgerycalc import (
    DimensionMismatch,
    SingularMatrix,
    SquareMatrix,
    as_rational,
    det,
    format_rational,
    inner_product,
    parse_rational,
    solve,
)
from surgerycalc.selftest import _cofactor_det as cofactor_det

from helpers import random_rational

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


# --------------------------------------------------------------------------
# Rationals


def test_parse_rational_basic():
    assert parse_rational("3") == 3
    assert parse_rational("-5/3") == Fraction(-5, 3)
    assert parse_rational("+1/4") == Fraction(1, 4)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["", "a", "1.5", "1/0", "1/-2", "--3", "3/", "/2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)


def test_format_round_trip():
    for text in ("0", "-7", "2/5", "-13/9"):
        assert format_rational(parse_rational(text)) == text


@settings(deadline=None)
@given(fractions_st, fractions_st, fractions_st)
def test_canonical_form_after_arithmetic(x, y, z):
    # Fractions must stay reduced with positive denominator through any
    # arithmetic; zero is always 0/1.
    for value in (x + y, x - z, x * y, x + y * z, (x - y) * (y - z)):
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1
    zero = x - x
    assert zero.numerator == 0 and zero.denominator == 1


# --------------------------------------------------------------------------
# Determinants


def test_det_identity_2x2():
    assert det(SquareMatrix.identity(2)) == 1


def test_det_counterexample_matrices():
    assert det(SquareMatrix([[0, -1], [-1, -2]])) == -1
    assert det(SquareMatrix([[0, -1, 0], [-1, 0, -1], [0, -1, -2]])) == 2


def test_det_pushoff_chain_3x3():
    matrix = SquareMatrix([[-1, -2, -2], [-2, -1, -2], [-2, -2, -1]])
    # n = 3 push-offs of a tb = -2 knot: det must equal n*tb + 1 = -5.
    assert det(matrix) == -5
    assert cofactor_det(matrix.rows) == -5


def test_cofactor_oracle_returns_fraction_for_int_entries():
    for rows in ([], [[7]], [[2, 1], [1, 3]]):
        assert isinstance(cofactor_det(rows), Fraction)
    assert cofactor_det([[7]]) == 7


def test_det_dimension_zero_is_one():
    assert det(SquareMatrix([])) == 1


def test_det_matches_cofactor_oracle_randomized():
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(SquareMatrix(rows)) == cofactor_det(rows)


def test_det_duplicated_row_is_zero():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        source, target = rng.sample(range(n), 2)
        rows[target] = list(rows[source])
        assert det(SquareMatrix(rows)) == 0


def test_det_rational_entries():
    matrix = SquareMatrix([["1/2", "1/3"], ["1/4", "1/5"]])
    assert det(matrix) == Fraction(1, 10) - Fraction(1, 12)


def _random_rational_rows(rng, n):
    # Mixed denominators, and zeros often enough to force row swaps and
    # singular matrices.
    return [
        [Fraction(0) if rng.random() < 0.3 else random_rational(rng) for _ in range(n)]
        for _ in range(n)
    ]


def test_det_and_solve_rational_entries_randomized():
    rng = random.Random(20261017)
    singular = 0
    for _ in range(600):
        n = rng.randint(0, 6)
        rows = _random_rational_rows(rng, n)
        matrix = SquareMatrix(rows)
        oracle = cofactor_det(rows)
        assert det(matrix) == oracle
        vector = tuple(random_rational(rng, allow_zero=True) for _ in rows)
        if oracle == 0:
            singular += 1
            with pytest.raises(SingularMatrix):
                solve(matrix, vector)
        else:
            assert matrix.apply(solve(matrix, vector)) == vector
    assert singular > 0


# First pivot zero: elimination must swap rows to proceed.
ZERO_FIRST_PIVOT = (
    [[0, 2, 1], [3, 1, 0], [1, 0, 4]],
    [[0, "1/2"], ["2/3", "1/5"]],
    [[0, 0, "1/3"], [0, "-5/2", 1], ["7/4", 1, 0]],
)

# Nonzero pivots until the last one, which vanishes.
ZERO_LAST_PIVOT = (
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [["1/2", 1, "3/2"], [2, "5/2", 3], ["7/2", 4, "9/2"]],
    [[2, 1], [6, 3]],
)


@pytest.mark.parametrize("rows", ZERO_FIRST_PIVOT)
def test_zero_first_pivot_needs_row_swap(rows):
    matrix = SquareMatrix(rows)
    assert matrix[0, 0] == 0
    assert det(matrix) == cofactor_det(matrix.rows) != 0
    vector = tuple(Fraction(k + 1, 3) for k in range(matrix.dimension))
    assert matrix.apply(solve(matrix, vector)) == vector


@pytest.mark.parametrize("rows", ZERO_LAST_PIVOT)
def test_singular_only_at_last_pivot(rows):
    matrix = SquareMatrix(rows)
    n = matrix.dimension
    assert all(
        cofactor_det([row[:k] for row in matrix.rows[:k]]) != 0 for k in range(1, n)
    )
    assert cofactor_det(matrix.rows) == 0
    assert det(matrix) == 0
    with pytest.raises(SingularMatrix):
        solve(matrix, (1,) * n)


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        SquareMatrix([[1, 2], [3]])


# --------------------------------------------------------------------------
# Solves


def test_solve_identity():
    assert solve(SquareMatrix.identity(2), (3, 5)) == (3, 5)


def test_solve_pushoff_matrix():
    # n = 2 push-offs of a tb = -2 knot; the solution of M x = (tb, tb)
    # is the constant vector tb/(n*tb + 1) = 2/3 (verified by
    # multiplying back: each row gives (-1 - 2) * 2/3 = -2).
    matrix = SquareMatrix([[-1, -2], [-2, -1]])
    solution = solve(matrix, (-2, -2))
    assert solution == (Fraction(2, 3), Fraction(2, 3))
    assert matrix.apply(solution) == (Fraction(-2), Fraction(-2))


def test_solve_multiply_back_randomized():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        matrix = SquareMatrix(rows)
        if det(matrix) == 0:
            continue
        vector = tuple(rng.randint(-9, 9) for _ in range(4))
        assert matrix.apply(solve(matrix, vector)) == tuple(
            Fraction(v) for v in vector
        )
        done += 1


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve(SquareMatrix([[1, 2], [2, 4]]), (1, 1))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(SquareMatrix.identity(2), (1, 2, 3))


def test_solve_dimension_zero():
    assert solve(SquareMatrix([]), ()) == ()


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
)
def test_solve_multiply_back_hypothesis(rows, vector):
    matrix = SquareMatrix(rows)
    # Singularity is decided by the independent oracle: det shares the
    # elimination kernel with solve.
    if cofactor_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            solve(matrix, vector)
        return
    assert matrix.apply(solve(matrix, vector)) == tuple(Fraction(v) for v in vector)


# --------------------------------------------------------------------------
# Inner products


def test_inner_product_empty():
    assert inner_product((), ()) == 0


def test_inner_product_orthogonal_units():
    assert inner_product((1, 0), (0, 1)) == 0


def test_inner_product_rotation_pairing():
    # rot = 1, tb = -2, n = 2: pairing of (rot, rot) with the constant
    # vector tb/(n*tb + 1) = 2/3. Hand expansion: 2 * (1 * 2/3) = 4/3,
    # consistent with rot_Q = rot - 4/3 = -1/3 = rot/(n*tb + 1).
    pairing = inner_product((1, 1), (Fraction(2, 3), Fraction(2, 3)))
    assert pairing == Fraction(4, 3)
    assert 1 - pairing == Fraction(1, 2 * -2 + 1)


def test_inner_product_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product((1, 2), (1,))
