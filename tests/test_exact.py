"""Exact arithmetic core: canonical form, determinants, solves."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgerycalc import (
    DimensionMismatch,
    SingularMatrix,
    SquareMatrix,
    TooManyDigits,
    as_rational,
    det,
    format_rational,
    parse_rational,
    solve_integral,
)
from surgerycalc.selftest import _cofactor_det as cofactor_det

from helpers import random_rational

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)

IDENTITY_2 = SquareMatrix([[1, 0], [0, 1]])


def multiply_back(matrix, vector):
    """``solve_integral``'s (y, d), checked: ints with matrix . y = d * vector."""
    y, d = solve_integral(matrix, vector)
    assert {type(v) for v in y} <= {int} and type(d) is int and d != 0
    assert tuple(sum(map(mul, row, y)) for row in matrix.rows) == tuple(
        d * v for v in vector
    )
    return y, d


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


def test_format_beyond_the_digit_limit_raises_too_many_digits():
    limit = sys.get_int_max_str_digits()
    for value in (10**limit, Fraction(1, 10**limit), -(10**limit)):
        with pytest.raises(TooManyDigits, match=f"more than {limit} digits"):
            format_rational(value)
    assert format_rational(10**limit - 1) == "9" * limit
    with pytest.raises(ValueError) as error:
        format_rational("1.5")
    assert type(error.value) is ValueError


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
    assert det(IDENTITY_2) == 1


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
                solve_integral(matrix, vector)
        else:
            multiply_back(matrix, vector)
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
    multiply_back(matrix, tuple(Fraction(k + 1, 3) for k in range(matrix.dimension)))


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
        solve_integral(matrix, (1,) * n)


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        SquareMatrix([[1, 2], [3]])


# --------------------------------------------------------------------------
# Solves


def test_solve_identity():
    assert solve_integral(IDENTITY_2, (3, 5)) == ((3, 5), 1)


def test_solve_pushoff_matrix():
    # n = 2 push-offs of a tb = -2 knot; the solution of M x = (tb, tb)
    # is the constant vector tb/(n*tb + 1) = 2/3 (verified by
    # multiplying back: each row gives (-1 - 2) * 2/3 = -2).
    matrix = SquareMatrix([[-1, -2], [-2, -1]])
    y, d = multiply_back(matrix, (-2, -2))
    assert tuple(Fraction(v, d) for v in y) == (Fraction(2, 3), Fraction(2, 3))


def test_solve_multiply_back_randomized():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        matrix = SquareMatrix(rows)
        if det(matrix) == 0:
            continue
        multiply_back(matrix, tuple(rng.randint(-9, 9) for _ in range(4)))
        done += 1


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve_integral(SquareMatrix([[1, 2], [2, 4]]), (1, 1))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_integral(IDENTITY_2, (1, 2, 3))


def test_solve_dimension_zero():
    assert solve_integral(SquareMatrix([]), ()) == ((), 1)


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
    # elimination kernel with solve_integral.
    if cofactor_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            solve_integral(matrix, vector)
        return
    multiply_back(matrix, vector)


# --------------------------------------------------------------------------
# Entry types: ints stay ints inside, det is a Fraction, y and d ints


def _encode(rng, value, form):
    """``value`` written as an int, a Fraction or a "p/q" string."""
    if form == "mixed":
        form = rng.choice(("int", "fraction", "string"))
    if form == "int":
        return value
    if form == "fraction":
        return Fraction(value)
    scale = rng.randint(1, 5)
    return f"{value * scale}/{scale}"


def _kernel_results(rows, vector):
    matrix = SquareMatrix(rows)
    try:
        solution = solve_integral(matrix, vector)
    except SingularMatrix:
        solution = None
    return det(matrix), solution


def test_kernel_results_do_not_depend_on_entry_type():
    rng = random.Random(20261019)
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 7)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        vector = [rng.randint(-9, 9) for _ in range(n)]
        expected = _kernel_results(rows, vector)
        singular += expected[1] is None
        for form in ("int", "fraction", "string", "mixed"):
            results = _kernel_results(
                [[_encode(rng, v, form) for v in row] for row in rows],
                [_encode(rng, v, form) for v in vector],
            )
            assert results == expected
            value, solution = results
            assert type(value) is Fraction
            assert solution is None or {type(x) for x in solution[0]} <= {int}
            assert solution is None or type(solution[1]) is int
    assert 0 < singular < 300


@pytest.mark.parametrize("inexact", [0.5, 1.0, True, False])
def test_kernel_rejects_floats_and_bools(inexact):
    with pytest.raises(TypeError):
        SquareMatrix([[1, 0], [0, inexact]])
    with pytest.raises(TypeError):
        solve_integral(SquareMatrix([[1, 0], [0, 1]]), (1, inexact))
