"""Expanding rational contact surgeries into (+-1)-surgeries.

Three coefficient shapes are expandable: +1/n (n successive push-offs,
each (+1)-surgered), negative r (a chain of stabilized push-offs, each
(-1)-surgered, driven by the negative continued fraction of r), and
+p/q with p > q >= 1 (one (+1)-surgery, then a negative chain on a
push-off). ``expand_diagram`` expands every surgered component of a
diagram, so a single knot is expanded as a one-component diagram. The
expansion is checked here against first homology: for a surgery with
topological coefficient a/b on a knot in the 3-sphere, |H1| = |a| must
equal |det| of the derived presentation matrix, read off as |d| from
``solve_integral`` (d is the determinant of the system up to sign).
"""

from fractions import Fraction
from math import gcd

from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    SurgeryComponent,
    SurgeryDiagram,
    evaluate_negative_continued_fraction,
    expand_diagram,
    negative_continued_fraction,
    solve_integral,
)

# Negative continued fractions: greedy floors, digits a1 <= -1, rest <= -2.
for r in (Fraction(-1), Fraction(-5, 3), Fraction(-1, 2), Fraction(-17, 5)):
    digits = negative_continued_fraction(r)
    assert evaluate_negative_continued_fraction(digits) == r
    print(f"{str(r):>6} = {list(digits)}")

unknot = LegendrianKnotData(id="L", tb=-1, rot=0, euler_char=1)

def expand(knot, r, policy="all-negative"):
    """Contact (r)-surgery along one knot, as a one-component diagram."""
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot, contact_coefficient=r),),
        linking=((0,),),
    )
    return expand_diagram(diagram, zigzag_policy=policy)


def abs_det(diagram):
    """|det| of the framed linking matrix of a (+-1)-surgered diagram:
    tb + coefficient on the diagonal, linking numbers elsewhere."""
    rows = [
        [c.knot.tb + int(c.contact_coefficient) if i == j else lk for j, lk in enumerate(row)]
        + [0]
        for i, (c, row) in enumerate(zip(diagram.components, diagram.linking))
    ]
    return abs(solve_integral(rows)[1])


def signed(value):
    return f"+{value}" if value > 0 else str(value)


# Contact (+1/3)-surgery: three (+1)-surgered push-offs, no zigzags.
# Each record holds the source's id and Euler characteristic and the curve.
presentation = expand(unknot, Fraction(1, 3))
print("\n+1/3 on the tb=-1 unknot:")
for source_id, _, curve in presentation.records:
    print(f"  ({signed(curve.coefficient)}) on a push-off of {source_id}, "
          f"{len(curve.signs)} stabilizations")

# Contact (+5/2)-surgery: (+1) on L, then the expansion of -5/3 = [-2, -3]
# along push-offs, one stabilization each.
presentation = expand(unknot, Fraction(5, 2))
print("\n+5/2 on the tb=-1 unknot:")
for _, _, curve in presentation.records:
    print(f"  {curve.id}: coefficient {signed(curve.coefficient)}, "
          f"{len(curve.signs)} stabilizations, tb={curve.tb}")
print(f"  |det| of the derived presentation = {abs_det(presentation.derived_diagram)}  "
      f"(topological coefficient tb + 5/2 = 3/2, so |H1| = 3)")

# The same homology cross-check over a grid of negative coefficients.
print("\nhomology cross-check for -p/q on the tb=-1 unknot, p,q <= 8:")
checked = 0
for p in range(1, 9):
    for q in range(1, 9):
        if gcd(p, q) != 1:
            continue
        ep = expand(unknot, Fraction(-p, q))
        assert abs_det(ep.derived_diagram) == abs(-q - p)
        checked += 1
print(f"  {checked} expansions match |q*tb - p|")

# Zigzag signs are a recorded policy; tb bookkeeping is sign-independent.
for policy in ("all-negative", "all-positive", "balanced"):
    ep = expand(unknot, Fraction(-8, 3), policy)
    rots = [c.knot.rot for c in ep.derived_diagram.components]
    print(f"\npolicy {ep.zigzag_policy}: chain rot values {rots}")
