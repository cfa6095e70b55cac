"""Rational invariants of surgery-dual knots.

Two independent routes compute tb_Q and rot_Q of the knot an
unsurgered component becomes in the surgered manifold:
``dual_invariants``, which every command runs and which evaluates the
linking-matrix formulas (tb_Q = tb + det M0 / det M, rot_Q through
M^-1), and, for (+1/n)-chains, the closed forms tb/(n*tb+1) and
rot/(n*tb+1) with homological order |n*tb+1|. They must agree exactly.
"""

from surgerycalc import (
    NonNullhomologousDual,
    chain_diagram,
    dual_invariants,
    dual_invariants_closed_form,
    format_rational,
)
import surgerycalc.data as bundled

# Closed forms for contact (+1/3)-surgery along a tb=-2, rot=1 knot.
invariants = dual_invariants_closed_form(tb=-2, rot=1, euler_char=-1, n=3)
print("closed form, tb=-2 rot=1 n=3:")
print(f"  tb_q = {format_rational(invariants.tb_q)}")
print(f"  rot_q = {format_rational(invariants.rot_q)}")
print(f"  order = {invariants.order}")

# The matrix path on the generated chain diagram agrees entrywise.
diagram = chain_diagram(-2, 1, -1, 3)
via_matrix = dual_invariants(diagram, "dual")
assert via_matrix == invariants
print("matrix path on the generated chain: identical")

print("\nagreement over tb in [-5,-1], rot in [-3,3], n in [1,5]:")
cases = 0
for tb in range(-5, 0):
    for n in range(1, 6):
        if n * tb + 1 == 0:
            continue
        for rot in range(-3, 4):
            assert dual_invariants(chain_diagram(tb, rot, 1, n), "dual") == (
                dual_invariants_closed_form(tb, rot, 1, n)
            )
            cases += 1
print(f"  {cases} cases, exact equality on both fields and the order")

# The counterexample diagram: the knot L has tb = -1 before surgery and
# tb = -1 + det(M0)/det(M) = -1 + 2/(-1) = -3 afterwards.
figure = bundled.load("figure1.json")
invariants = dual_invariants(figure, "L")
print(f"\ncounterexample diagram: tb of L in the surgered manifold = "
      f"{format_rational(invariants.tb_q)}")

# Degenerate case: contact (+1)-surgery on the standard tb=-1 unknot
# produces S^1 x S^2 and the push-off dual is not rationally
# nullhomologous (n*tb + 1 = 0, det M = 0).
try:
    dual_invariants_closed_form(tb=-1, rot=0, euler_char=1, n=1)
except NonNullhomologousDual as error:
    print("\nclosed form for tb=-1, n=1 rejected:", error)
s1xs2 = bundled.load("s1xs2.json")
try:
    dual_invariants(s1xs2, "U")
except NonNullhomologousDual as error:
    print("degenerate push-off dual rejected:", error)
