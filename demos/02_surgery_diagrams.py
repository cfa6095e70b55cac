"""Surgery diagrams and their linking matrices.

A diagram stores each Legendrian component's classical invariants
(tb, rot, euler characteristic of a Seifert surface), an optional
contact surgery coefficient, and the symmetric linking matrix.
Framings are always derived as tb + coefficient.
"""

from fractions import Fraction

import surgerycalc.data as bundled
from surgerycalc import (
    SingularMatrix,
    chain_diagram,
    parse_diagram,
    serialize_diagram,
    solve_integral,
)


def linking_matrices(diagram, dual_id):
    """M, M0 and lk read off a diagram whose coefficients are integers.

    M frames the components other than ``dual_id`` (tb + coefficient on
    the diagonal, linking numbers elsewhere), lk holds their linking
    numbers with the dual, and M0 borders M with corner 0 and lk.
    """
    dual = diagram.component_index(dual_id)
    others = [i for i in range(len(diagram.components)) if i != dual]
    m = [
        [
            int(diagram.components[i].knot.tb + diagram.components[i].contact_coefficient)
            if i == j
            else diagram.linking[i][j]
            for j in others
        ]
        for i in others
    ]
    lk = [diagram.linking[dual][i] for i in others]
    return m, [[0, *lk]] + [[v, *row] for v, row in zip(lk, m)], lk


def abs_det(rows):
    """|det| of a square int matrix: |d| of a solve with it (d is the
    determinant of the system), 0 when it is singular."""
    try:
        return abs(solve_integral([row + [0] for row in rows])[1])
    except SingularMatrix:
        return 0


def det_ratio(m, lk):
    """det(M0) / det(M) = -<lk, M^-1 lk>, the Schur complement of M in M0."""
    y, d = solve_integral([row + [v] for row, v in zip(m, lk)])
    return Fraction(-sum(v * w for v, w in zip(lk, y)), d)


# The (+1)-push-off chain of contact (+1/n)-surgery: n curves, framing
# tb + 1 each, pairwise linking tb. Two closed-form determinants drive
# every invariant formula downstream. M frames the chain without its
# dual push-off; M0 borders M with the dual's linking numbers.
tb, rot, chi, n = -2, 1, -1, 3
m, m0, lk = linking_matrices(chain_diagram(tb, rot, chi, n), "dual")
print("chain matrix M =", m)
print("|det M| =", abs_det(m), " (|n*tb + 1|)")
print("extended matrix M0 =", m0)
print("|det M0| =", abs_det(m0), " (n*tb^2)")
print("det M0 / det M = -<lk, M^-1 lk> =", det_ratio(m, lk), " (-n*tb^2 / (n*tb + 1))")

print("\nidentity check over a small grid:")
for tb in range(-4, 0):
    for n in range(1, 5):
        m, m0, lk = linking_matrices(chain_diagram(tb, 0, 1, n), "dual")
        assert abs_det(m) == abs(n * tb + 1)
        assert abs_det(m0) == n * tb * tb
        if n * tb + 1:
            assert det_ratio(m, lk) == Fraction(-n * tb * tb, n * tb + 1)
print("  |det M| = |n*tb+1|, |det M0| = n*tb^2 and det M0 / det M = -n*tb^2/(n*tb+1)")
print("  hold for tb in [-4,-1], n in [1,4] (the ratio where n*tb+1 != 0)")

# A bundled diagram: the counterexample configuration. The knot L is
# unsurgered; a (+1)-curve and a (-1)-curve produce the manifold it
# lives in after surgery.
diagram = bundled.load("figure1.json")
print("\nbundled counterexample diagram:")
for component in diagram.components:
    coefficient = component.contact_coefficient
    if coefficient is None:
        framing = "unsurgered"
    else:
        sign = "+" if coefficient > 0 else ""
        framing = (
            f"contact {sign}{coefficient}, "
            f"topological {component.knot.tb + coefficient}"
        )
    print(f"  {component.id}: tb={component.knot.tb}  {framing}")

m, m0, lk = linking_matrices(diagram, "L")
print("general matrices for dual L:")
print("  M =", m, " |det| =", abs_det(m))
print("  M0 =", m0, " |det| =", abs_det(m0))
print("  linking vector of L:", tuple(lk))
print("  tb_Q = tb + det(M0)/det(M) =", diagram.component("L").knot.tb + det_ratio(m, lk))

# Diagrams round-trip through JSON bit-exactly (rationals as "p/q").
assert parse_diagram(serialize_diagram(diagram)) == diagram
print("\nJSON round trip: exact")
