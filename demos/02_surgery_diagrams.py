"""Surgery diagrams and their linking matrices.

A diagram stores each Legendrian component's classical invariants
(tb, rot, euler characteristic of a Seifert surface), an optional
contact surgery coefficient, and the symmetric linking matrix.
Framings are always derived as tb + coefficient.
"""

import surgerycalc.data as bundled
from surgerycalc import (
    PlusOneChainSpec,
    build_general_matrices,
    chain_diagram,
    det,
    parse_diagram,
    presentation_matrix,
    serialize_diagram,
    topological_coefficient,
)

# The (+1)-push-off chain of contact (+1/n)-surgery: n curves, framing
# tb + 1 each, pairwise linking tb. Two closed-form determinants drive
# every invariant formula downstream. M frames the chain without its
# dual push-off; M0 borders M with the dual's linking numbers.
spec = PlusOneChainSpec(tb=-2, rot=1, euler_char=-1, n=3)
m = presentation_matrix(chain_diagram(spec, dual_id=None))
m0 = build_general_matrices(chain_diagram(spec), spec.n)[1]
print("chain matrix M =", m)
print("det M =", det(m), " (n*tb + 1)")
print("extended matrix M0 =", m0)
print("det M0 =", det(m0), " (-n*tb^2)")

print("\nidentity check over a small grid:")
for tb in range(-4, 0):
    for n in range(1, 5):
        s = PlusOneChainSpec(tb=tb, rot=0, euler_char=1, n=n)
        m, m0, _ = build_general_matrices(chain_diagram(s), n)
        assert det(m) == n * tb + 1
        assert det(m0) == -n * tb * tb
print("  det(M) = n*tb+1 and det(M0) = -n*tb^2 hold for tb in [-4,-1], n in [1,4]")

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
            f"topological {topological_coefficient(component)}"
        )
    print(f"  {component.id}: tb={component.knot.tb}  {framing}")

m, m0, link_vector = build_general_matrices(diagram, diagram.component_index("L"))
print("general matrices for dual L:")
print("  M =", m, " det =", det(m))
print("  M0 =", m0, " det =", det(m0))
print("  linking vector of L:", link_vector)

# Diagrams round-trip through JSON bit-exactly (rationals as "p/q").
assert parse_diagram(serialize_diagram(diagram)) == diagram
print("\nJSON round trip: exact")
