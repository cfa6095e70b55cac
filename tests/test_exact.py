"""Exact arithmetic core: canonical form, the integer kernel, solves."""

from __future__ import annotations

import ast
import random
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surgerycalc
from surgerycalc import (
    DimensionMismatch,
    SingularMatrix,
    TooManyDigits,
    as_rational,
    format_rational,
    parse_rational,
    solve_integral,
)
from surgerycalc.selftest import _cofactor_det as cofactor_det
from surgerycalc.selftest import _det as det

from helpers import clear_denominators, cramer, fraction_det, random_rational

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)

IDENTITY_2 = [[1, 0], [0, 1]]


def augment(rows, vector):
    """The augmented rows (A | b) that ``solve_integral`` takes."""
    return [[*row, v] for row, v in zip(rows, vector)]


def multiply_back(rows, vector):
    """``solve_integral``'s (y, d) for A = ``rows``, b = ``vector``, checked:
    ints with A . y = d * b."""
    y, d = solve_integral(augment(rows, vector))
    assert {type(v) for v in y} <= {int} and type(d) is int and d != 0
    assert tuple(sum(map(mul, row, y)) for row in rows) == tuple(d * v for v in vector)
    return y, d


def solve_rational(rows, vector):
    """The solution of a rational system, through its row-scaled int rows."""
    scaled, _ = clear_denominators(augment(rows, vector))
    y, d = solve_integral(scaled)
    return tuple(Fraction(v, d) for v in y)


# --------------------------------------------------------------------------
# Rationals


def test_parse_rational_basic():
    assert parse_rational("3") == 3
    assert parse_rational("-5/3") == Fraction(-5, 3)
    assert parse_rational("+1/4") == Fraction(1, 4)
    assert parse_rational(" 2/6 ") == Fraction(1, 3)


@pytest.mark.parametrize("bad", ["", "a", "1.5", "1/0", "1/-2", "--3", "3/", "/2", 5])
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
# Determinants: the selftest's det over the elimination kernel, against
# the cofactor and Fraction elimination oracles


def test_det_identity_2x2():
    assert det(IDENTITY_2) == 1


def test_det_counterexample_matrices():
    assert det([[0, -1], [-1, -2]]) == -1
    assert det([[0, -1, 0], [-1, 0, -1], [0, -1, -2]]) == 2


def test_det_pushoff_chain_3x3():
    rows = [[-1, -2, -2], [-2, -1, -2], [-2, -2, -1]]
    # n = 3 push-offs of a tb = -2 knot: det must equal n*tb + 1 = -5.
    assert det(rows) == -5
    assert cofactor_det(rows) == -5


def test_cofactor_oracle_returns_fraction_for_int_entries():
    for rows in ([], [[7]], [[2, 1], [1, 3]]):
        assert isinstance(cofactor_det(rows), Fraction)
    assert cofactor_det([[7]]) == 7


def test_det_dimension_zero_is_one():
    assert det([]) == 1


def test_det_matches_cofactor_oracle_randomized():
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(rows) == cofactor_det(rows) == fraction_det(rows)


def test_det_duplicated_row_is_zero():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        source, target = rng.sample(range(n), 2)
        rows[target] = list(rows[source])
        assert det(rows) == 0


def test_det_rational_entries():
    # A rational matrix reaches the kernel row-scaled: each row times the
    # lcm of its denominators (2 * 3 and 4 * 5), and the determinant
    # divides by the product of the scales.
    rows, scale = clear_denominators([["1/2", "1/3"], ["1/4", "1/5"]])
    assert (rows, scale) == ([[3, 2], [5, 4]], 120)
    assert Fraction(det(rows), scale) == Fraction(1, 10) - Fraction(1, 12)


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
        oracle = cofactor_det(rows)
        scaled, scale = clear_denominators(rows)
        assert Fraction(det(scaled), scale) == oracle == fraction_det(rows)
        vector = tuple(random_rational(rng, allow_zero=True) for _ in rows)
        if oracle == 0:
            singular += 1
            with pytest.raises(SingularMatrix):
                solve_rational(rows, vector)
        else:
            assert solve_rational(rows, vector) == cramer(rows, vector)
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
    rows = [[Fraction(entry) for entry in row] for row in rows]
    assert rows[0][0] == 0
    scaled, scale = clear_denominators(rows)
    assert Fraction(det(scaled), scale) == cofactor_det(rows) != 0
    vector = tuple(Fraction(k + 1, 3) for k in range(len(rows)))
    assert solve_rational(rows, vector) == cramer(rows, vector)


@pytest.mark.parametrize("rows", ZERO_LAST_PIVOT)
def test_singular_only_at_last_pivot(rows):
    rows = [[Fraction(entry) for entry in row] for row in rows]
    n = len(rows)
    assert all(cofactor_det([row[:k] for row in rows[:k]]) != 0 for k in range(1, n))
    assert cofactor_det(rows) == 0
    assert det(clear_denominators(rows)[0]) == 0
    with pytest.raises(SingularMatrix):
        solve_rational(rows, (1,) * n)


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch, match="row 1 has 2 entries, expected 3"):
        solve_integral([[1, 2, 0], [3, 0]])


# --------------------------------------------------------------------------
# Solves


def test_solve_identity():
    assert solve_integral(augment(IDENTITY_2, (3, 5))) == ((3, 5), 1)


def test_solve_pushoff_matrix():
    # n = 2 push-offs of a tb = -2 knot; the solution of M x = (tb, tb)
    # is the constant vector tb/(n*tb + 1) = 2/3 (verified by
    # multiplying back: each row gives (-1 - 2) * 2/3 = -2).
    y, d = multiply_back([[-1, -2], [-2, -1]], (-2, -2))
    assert tuple(Fraction(v, d) for v in y) == (Fraction(2, 3), Fraction(2, 3))


def test_solve_multiply_back_randomized():
    rng = random.Random(4242)
    done = 0
    while done < 200:
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        if cofactor_det(rows) == 0:
            continue
        y, d = multiply_back(rows, tuple(rng.randint(-9, 9) for _ in range(4)))
        # d is the determinant of the system, row swaps included
        assert d == cofactor_det(rows)
        done += 1


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve_integral([[1, 2, 1], [2, 4, 1]])


def test_solve_dimension_mismatch():
    # a right-hand side too many: each row must hold n + 1 entries
    with pytest.raises(DimensionMismatch, match="row 0 has 4 entries, expected 3"):
        solve_integral([[1, 0, 1, 3], [0, 1, 2, 3]])


def test_solve_dimension_zero():
    assert solve_integral([]) == ((), 1)


@st.composite
def int_systems(draw):
    """Augmented int rows (A | b) of dimension 0-5; about half of them
    have a zero leading entry, so that elimination must swap rows."""
    n = draw(st.integers(min_value=0, max_value=5))
    entries = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    if n and draw(st.booleans()):
        rows[0][0] = 0
    return rows


@settings(deadline=None, max_examples=300)
@given(int_systems())
@example([[0, 1, 0], [1, 0, 0]])
def test_solve_d_is_the_signed_determinant(rows):
    # d is det A with its sign, row swaps included, against the
    # independent cofactor oracle; SingularMatrix exactly when det A = 0.
    determinant = cofactor_det([row[:-1] for row in rows])
    if determinant == 0:
        with pytest.raises(SingularMatrix):
            solve_integral(rows)
        return
    y, d = solve_integral(rows)
    assert d == determinant


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
    # Singularity is decided by the independent oracle: det shares the
    # elimination kernel with solve_integral.
    if cofactor_det(rows) == 0:
        with pytest.raises(SingularMatrix):
            solve_integral(augment(rows, vector))
        return
    multiply_back(rows, vector)


# --------------------------------------------------------------------------
# The kernel's boundary: int entries only, n + 1 per row


def test_solve_leaves_its_rows_unchanged():
    rows = [[0, 2, 1, 1], [3, 1, 0, 2], [1, 0, 4, 3]]
    copy = [list(row) for row in rows]
    solve_integral(rows)
    assert rows == copy


@pytest.mark.parametrize(
    "inexact", [0.5, 1.0, True, False, Fraction(1, 2), Fraction(1), "1", "1/2"]
)
def test_kernel_rejects_floats_and_bools(inexact):
    # bools, floats, Fractions and strs are all refused, in the matrix
    # and in the right-hand side alike
    for rows in ([[1, 0, 1], [0, inexact, 1]], [[1, 0, 1], [0, 1, inexact]]):
        with pytest.raises(TypeError, match=r"row 1: not an int: "):
            solve_integral(rows)
    assert solve_integral([[1, 0, 1], [0, 1, 1]]) == ((1, 1), 1)


# --------------------------------------------------------------------------
# No float anywhere


def inexact_sites(source: str) -> list[str]:
    """Where a module could make a float: a true division ``/``, a float
    or complex literal, or a call of ``float``, ``round`` or ``complex``."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "/"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = repr(node.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round", "complex")
        ):
            what = f"{node.func.id}()"
        else:
            continue
        sites.append((node.lineno, node.col_offset, what))
    return [f"line {line}: {what}" for line, _, what in sorted(sites)]


def test_inexact_sites_finds_each_kind():
    source = "a = b / c\na /= 2\nx = 0.5 + 1j\ny = float(a) + round(a) + complex(a)\n"
    assert inexact_sites(source) == [
        "line 1: /", "line 2: /", "line 3: 0.5", "line 3: 1j",
        "line 4: float()", "line 4: round()", "line 4: complex()",
    ]
    assert inexact_sites("a = b // c\nr = Fraction(1, 2)\n") == []


def test_the_package_makes_no_float():
    # Every number is an int or a Fraction: the verdicts flip on exact
    # signs, so no module divides with / or names a float.
    package = Path(surgerycalc.__file__).resolve().parent
    found = {
        path.name: sites
        for path in sorted(package.glob("*.py"))
        if (sites := inexact_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}
