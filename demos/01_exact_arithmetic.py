"""Exact rationals and the exact linear solve.

Every number in surgerycalc is an int or a `fractions.Fraction`; the
tight versus overtwisted answers downstream flip on the exact sign of a
determinant, so no floats appear anywhere. This script walks through
the arithmetic core: parsing, rendering, and the one exact solve, which
takes a linear system as rows of ints and answers in ints.
"""

from fractions import Fraction

from surgerycalc import format_rational, parse_rational, solve_integral

# Rationals travel as "p/q" strings in files and options.
r = parse_rational("-5/3")
print("parsed:", r, "  rendered:", format_rational(r))

# The linking matrix of two (+1)-surgered push-offs of a tb = -2 knot:
# topological framings tb + 1 = -1 on the diagonal, linking tb = -2 off it.
# A system M x = b is given as its augmented rows (M_i | b_i); here
# b = (tb, tb), the inner workhorse of the rational rotation number
# formula.
m = [[-1, -2], [-2, -1]]
rows = [row + [-2] for row in m]
print("\n(M | b) =", rows)

# The solve works in integers: it returns y and d with x = y / d, and d
# is the determinant of the system, det M = 1 - 4 = -3.
y, d = solve_integral(rows)
print("as integers over one denominator: y =", y, " d =", d)
print("|det M| = |d| =", abs(d), " (equals |n*tb + 1| = 3)")
x = tuple(Fraction(value, d) for value in y)
print("M^-1 (tb, tb) =", tuple(map(str, x)))

# Pairing it with the rotation vector (rot, rot), rot = 1, in integers
# over d, and one Fraction for the result:
rot = 1
pairing = Fraction(sum(rot * value for value in y), d)
print("<(rot, rot), M^-1 (tb, tb)> =", pairing)
print("rot_Q = rot - pairing =", 1 - pairing, " (equals rot/(n*tb+1) = -1/3)")

# A rational row is cleared of its denominator before the solve. Give
# the first push-off contact (+1/3)-surgery instead: its framing is
# tb + 1/3 = -5/3, and its row (-5/3, -2 | 1) times q = 3 is the int row
# (-5, -6 | 3). The solution does not change.
lam = [[Fraction(-5, 3), -2], [-2, -1]]
b = (1, 0)
scaled = [[-5, -6, 3], [-2, -1, 0]]
assert scaled[0] == [3 * v for v in (*lam[0], b[0])]
y, d = solve_integral(scaled)
x = tuple(Fraction(value, d) for value in y)
assert tuple(sum(a * v for a, v in zip(row, x)) for row in lam) == b
print("\nrow (-5/3, -2 | 1) cleared by q = 3:", scaled[0])
print("solution of the rational system:", tuple(map(str, x)))

# The empty system has d = 1, so bordered constructions compose in the
# no-surgery case.
print("\nthe 0x0 system:", solve_integral([]))

# Sanity: an exact solve multiplies back exactly, no tolerance needed,
# and all in ints: each row of the matrix paired with y gives d times the
# right-hand side.
big = [[3, -7, 2, 0], [1, 5, -4, 9], [0, 2, 8, -3], [6, -1, 1, 4]]
v = (1, -2, 3, -4)
y, d = solve_integral([row + [value] for row, value in zip(big, v)])
assert tuple(sum(a * b for a, b in zip(row, y)) for row in big) == tuple(
    d * value for value in v
)
print("\nmultiply-back check on a 4x4 solve, M y = d v in integers: exact")
