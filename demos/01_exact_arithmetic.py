"""Exact rationals and exact linear algebra.

Every number in surgerycalc is an int or a `fractions.Fraction`; the
tight versus overtwisted answers downstream flip on the exact sign of a
determinant, so no floats appear anywhere. This script walks through
the arithmetic core: parsing, matrices, Bareiss determinants and exact
solves in integers.
"""

from fractions import Fraction

from surgerycalc import (
    SquareMatrix,
    det,
    format_rational,
    parse_rational,
    solve_integral,
)

# Rationals travel as "p/q" strings in files and options.
r = parse_rational("-5/3")
print("parsed:", r, "  rendered:", format_rational(r))

# The linking matrix of two (+1)-surgered push-offs of a tb = -2 knot:
# topological framings tb + 1 = -1 on the diagonal, linking tb = -2 off it.
m = SquareMatrix([[-1, -2], [-2, -1]])
print("\nM =", m)
print("det M =", det(m), " (equals n*tb + 1 = -3)")

# Solving M x = (tb, tb) gives the constant vector tb/(n*tb + 1); this is
# the inner workhorse of the rational rotation number formula. The solve
# works in integers: it returns y and d with x = y / d.
y, d = solve_integral(m, (-2, -2))
print("as integers over one denominator: y =", y, " d =", d)
x = tuple(Fraction(value, d) for value in y)
print("M^-1 (tb, tb) =", tuple(map(str, x)))

# Pairing it with the rotation vector (rot, rot), rot = 1, in integers
# over d, and one Fraction for the result:
rot = 1
pairing = Fraction(sum(rot * value for value in y), d)
print("<(rot, rot), M^-1 (tb, tb)> =", pairing)
print("rot_Q = rot - pairing =", 1 - pairing, " (equals rot/(n*tb+1) = -1/3)")

# Determinants are exact for any rational entries, and the empty matrix
# has det 1 so bordered constructions compose in the no-surgery case.
print("\ndet of a rational matrix:", det(SquareMatrix([["1/2", "1/3"], ["1/4", "1/5"]])))
print("det of the 0x0 matrix:", det(SquareMatrix([])))

# Sanity: an exact solve multiplies back exactly, no tolerance needed,
# and all in ints: each row of the matrix paired with y gives d times the
# right-hand side.
big = SquareMatrix([[3, -7, 2, 0], [1, 5, -4, 9], [0, 2, 8, -3], [6, -1, 1, 4]])
v = (1, -2, 3, -4)
y, d = solve_integral(big, v)
assert tuple(sum(a * b for a, b in zip(row, y)) for row in big.rows) == tuple(
    d * value for value in v
)
print("\nmultiply-back check on a 4x4 solve, M y = d v in integers: exact")
