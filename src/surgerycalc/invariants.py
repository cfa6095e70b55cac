"""Rational classical invariants of surgery-dual knots.

After surgering every other component of a diagram, an unsurgered
component L survives as a knot in the new manifold (the "dual" of the
presentation). When the surgery's linking matrix is nonsingular that
knot is rationally nullhomologous and carries exact rational
invariants. For an integer-surgered diagram with linking matrix M of
the surgered components, linking vector lk with L and rotation vector
rot:

    tb_Q  = tb + det(M0) / det(M) = tb - < lk, M^-1 lk >
    rot_Q = rot - < rot, M^-1 lk >

where M0 borders M with lk (corner 0); the second form of tb_Q is the
Schur complement identity det(M0) = -det(M) * < lk, M^-1 lk >. The
homological order of L is the smallest positive integer r with
r * M^-1 lk integral, i.e. the order of L's class in the surgery
homology lattice; the denominators of tb_Q and rot_Q always divide it.
The rational Seifert surface of L is the image of one for the original
knot, so its Euler characteristic is carried over verbatim.
``dual_invariants`` is the one entry point. On an expanded diagram,
where every surgered coefficient is +-1, each surgered curve is a
one-curve group with pair (1, rot) (step 3 below), so it evaluates
exactly these formulas with M the matrix it solves. It takes the solve
as integers y / d (``exact.solve_integral``, on the int rows that
``diagram`` builds) and builds only tb_Q and rot_Q as Fractions.

Integer-coefficient convention. When every surgered coefficient is an
integer, each surgered component is one curve with its own tb and rot
and M is the k x k framed linking matrix. Otherwise every surgered
component K_i (coefficient r_i) stands for its group of m_i curves
c_1, ..., c_m from ``expansion._knot_group`` with the default
(all-negative) zigzags: tb t_j, rot rot_j, coefficient e_j = +-1.
Within a group c_a and c_b (a < b) link by t_a; curves of different
groups link as their sources do, and each links L by l_i = lk(L, K_i).
M is then (sum m_i) x (sum m_i).

``dual_invariants`` never builds that M:

1. Lambda is the k x k matrix with Lambda_ii = tb_i + r_i and
   Lambda_ij = lk_ij. It is built cleared of denominators: with
   r_i = p_i / q_i, row i of (Lambda | l) times q_i is the int row
   (q_i lk_i1, ..., q_i tb_i + p_i, ..., q_i lk_ik | q_i l_i), which
   leaves the solution as it is. One exact solve of these rows gives
   sigma = Lambda^-1 l = y / d, the sums of the group parts of
   x = M^-1 lk, and tb_Q = tb - < l, sigma > = (tb d - < l, y >) / d.
2. In the basis c'_j = c_j - c_(j-1) a group's block G becomes the
   symmetric tridiagonal H with H_11 = t_1 + e_1,
   H_jj = t_j - t_(j-1) + e_j + e_(j-1) and H_(j,j+1) = -e_j, and the
   all-ones vector becomes e_1: the group couples to L and to other
   groups only through its first curve. The tail T = H[2..m] has
   continuants D_j = det H[j..m], D_(m+1) = 1, D_(m+2) = 0,
   D_j = H_jj D_(j+1) - D_(j+2). The tail rows give the suffix sums
   x'_j = x_j + ... + x_m = sigma_i eps_j D_(j+1) / D_2 with
   eps_j = e_1 ... e_(j-1), and < rot, x > = < P rot, x' > (P the
   difference map) = sigma_i w / D_2 with
   w = sum_j eps_j D_(j+1) (rot_j - rot_(j-1)), rot_0 = 0.
3. The pair (D_2, w) has a closed form. For coefficient r = p/q in
   lowest terms (q > 0) and all-negative zigzags it is
   (D_2, w) = +-(q, q rot_K + p - sgn p) with rot_K the rot of K_i and
   one sign for both entries; an unexpanded component
   (integer-coefficient convention) is (1, rot_K).
   Proof. Let s_j be the stabilizations of c_j, so
   rot_j - rot_(j-1) = -s_j for j >= 2 and rot_1 = rot_K - s_1, and
   w = D_2 rot_K - sum_j eps_j D_(j+1) s_j. For Hirzebruch-Jung
   continuants F_j = b_j F_(j+1) - F_(j+2) (F_(m+1) = 1,
   F_(m+2) = 0) of a chain [b_1, ..., b_m] the sum telescopes:
       F_2 (b_1 - 1) + sum_(j>=2) F_(j+1) (b_j - 2) = F_1 - 1,
   since b_j F_(j+1) = F_j + F_(j+2).
   * r < 0 with negative continued fraction digits (a_1, ..., a_m):
     e_j = -1, s_1 = -a_1 - 1, s_j = -a_j - 2, so H_jj = a_j for
     j >= 2. F_j = (-1)^(m+1-j) D_j are the continuants of b_j = -a_j,
     which give -r = F_1 / F_2 in lowest terms: F_1 = -p, F_2 = q.
     Then D_2 = (-1)^(m-1) q and eps_j D_(j+1) = (-1)^(m-1) F_(j+1),
     so sum_j eps_j D_(j+1) s_j = (-1)^(m-1) (-p - 1) by the identity.
   * r = +1/n: e_j = +1 and s_j = 0, so H_jj = 2 for j >= 2,
     D_j = m - j + 2, D_2 = n = q and w = q rot_K (p - sgn p = 0).
   * r = +p/q with p > q: c_1 is the knot itself (e_1 = +1, s_1 = 0),
     and c_2, ..., c_m is the chain of -p/(p-q) = [a'_1, ..., a'_(m-1)]
     pushed off it, so H_22 = a'_1 + 1 and H_jj = a'_(j-1) for j >= 3.
     With F'_i the continuants of b'_i = -a'_i (F'_1 = p,
     F'_2 = p - q), D_(j+1) = (-1)^(m-j) F'_j for j >= 2, and
     D_2 = (a'_1 + 1) D_3 - D_4 = (-1)^m (F'_2 - F'_1) = (-1)^(m-1) q.
     eps_j D_(j+1) = (-1)^m F'_j for j >= 2, and the identity gives
     sum_j eps_j D_(j+1) s_j = (-1)^m (p - 1).
   rot_Q = rot - sum_i y_i w_i / (d D_2), summed over the common
   denominator d lcm_i(D_2); the common sign of a pair cancels there.
4. The order is the lcm of the denominators of x. In group i every x_j
   is an integer multiple of sigma_i / D_2 and x_m = eps_m sigma_i / D_2,
   so group i contributes the denominator of y_i / (d D_2), that is
   |d D_2| / gcd(y_i, d D_2), in which the sign cancels too.

Each group costs O(1) integer operations whatever its curve count m.
Two facts make ``dual_invariants`` total:

* det M = det Lambda * prod_i D_2^(i). The change of basis is
  unimodular. Eliminating the tails (a Schur complement on the
  block-diagonal T_i, det T_i = D_2 = +-q, never 0) leaves the first
  curves with diagonal p_1 = H_11 - D_3 / D_2 and off-diagonal lk_ij,
  and p_1 = tb_i + r_i in every shape: tb + 1 - (m-1)/m = tb + 1/n;
  tb + a_1 - (a_1 - r) = tb + r, as F_3 / F_2 = b_1 - F_1 / F_2;
  tb + 1 + (p-q)/q = tb + p/q. That matrix is Lambda. Hence M is
  singular exactly when Lambda is, and a SingularMatrix from the
  k x k solve is exactly the case det M = 0 (NonNullhomologousDual).
* A group with tb_i + r_i = 0 needs no special case: that is a zero
  diagonal entry of Lambda, which the exact solve pivots around, and
  the closed form divides by nothing. Such a G is singular by itself
  (det G = p_1 D_2 = 0), but nothing here ever inverts G.

For the (+1)-push-off chain presentation of contact (+1/n)-surgery the
formulas collapse to closed forms:

    tb_Q = tb / (n*tb + 1),  rot_Q = rot / (n*tb + 1),  r = |n*tb + 1|

and n*tb + 1 = 0 is exactly the degenerate case in which the dual is
not rationally nullhomologous (for example contact (+1)-surgery along
the standard tb = -1 unknot, which yields S^1 x S^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .diagram import (
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    _check_positive,
    _dual_links,
    _framed_matrix,
)
from .exact import SingularMatrix, format_rational, solve_integral
from .expansion import _check_expandable

__all__ = [
    "DualKnotInvariants",
    "NonNullhomologousDual",
    "dual_invariants",
    "dual_invariants_closed_form",
]


class NonNullhomologousDual(ValueError):
    """The surgery-dual knot is not rationally nullhomologous.

    Its rational invariants are undefined; arises exactly when the
    linking matrix of the surgered components is singular.
    """


@dataclass(frozen=True)
class DualKnotInvariants:
    """(tb_Q, rot_Q), homological order and Seifert Euler characteristic."""

    tb_q: Fraction
    rot_q: Fraction
    order: int
    euler_char: int

    def __post_init__(self) -> None:
        if isinstance(self.order, bool) or not isinstance(self.order, int):
            raise ValidationError(f"order must be an integer, got {self.order!r}")
        if self.order < 1:
            raise ValidationError(f"order must be >= 1, got {self.order}")
        for name in ("tb_q", "rot_q"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                raise ValidationError(f"{name} must be a Fraction, got {value!r}")
            if self.order % value.denominator != 0:
                raise ValidationError(
                    f"denominator of {name} = {format_rational(value)} does not "
                    f"divide the homological order {self.order}"
                )


def dual_invariants_closed_form(
    tb: int, rot: int, euler_char: int, n: int
) -> DualKnotInvariants:
    """Closed-form dual invariants for contact (+1/n)-surgery.

    The homological order is |n*tb + 1|; n*tb + 1 = 0 is the degenerate
    case, NonNullhomologousDual.
    """
    _check_positive(n, "n")
    denominator = n * tb + 1
    if denominator == 0:
        raise NonNullhomologousDual(
            f"n*tb + 1 = 0 for tb = {tb}, n = {n}: the surgery is topologically "
            "a 0-surgery and the dual knot is not rationally nullhomologous"
        )
    return DualKnotInvariants(
        tb_q=Fraction(tb, denominator),
        rot_q=Fraction(rot, denominator),
        order=abs(denominator),
        euler_char=euler_char,
    )


def dual_invariants(diagram: SurgeryDiagram, component_id: str) -> DualKnotInvariants:
    """Invariants of component ``component_id`` after surgering the others.

    One k x k solve sigma = Lambda^-1 l = y / d over the unexpanded
    components and each curve group's (D_2, w) in closed form, all in
    ints until tb_Q and rot_Q (module docstring, steps 1, 3 and 4); the
    expanded diagram is never built. Under the integer-coefficient
    convention a diagram whose surgered coefficients are all integers
    is not expanded: an integer coefficient other than +-1 keeps its
    knot's unstabilized rot, so rot_Q can differ from the one of the
    expansion that ``expand`` prints, while tb_Q and the order agree.
    Otherwise each surgered component is taken as its group of curves
    under the default zigzag policy (``_group_pairs``).

    Errors, first to last: ValidationError for an unknown or surgered
    dual; Unsupported for the first surgered coefficient outside the
    expandable shapes, when the diagram is expanded; MissingCoefficient
    for the first other unsurgered component; NonNullhomologousDual
    when Lambda, and with it M, is singular.
    """
    dual_index = diagram.component_index(component_id)
    others, link_vector = _dual_links(diagram, dual_index)
    pairs = _group_pairs([diagram.components[i] for i in others])
    try:
        y, d = solve_integral(_framed_matrix(diagram, others, link_vector))
    except SingularMatrix:
        raise NonNullhomologousDual(
            "det(M) = 0: the dual knot is not rationally nullhomologous and "
            "its rational invariants are undefined"
        ) from None
    scale = math.lcm(*(tail for tail, _ in pairs))
    groups = list(zip(y, pairs))
    rotation = sum(y_i * weight * (scale // tail) for y_i, (tail, weight) in groups)
    order = math.lcm(
        *(abs(d * tail) // math.gcd(y_i, d * tail) for y_i, (tail, _) in groups)
    )
    dual = diagram.components[dual_index].knot
    return DualKnotInvariants(
        tb_q=Fraction(dual.tb * d - sum(map(mul, link_vector, y)), d),
        rot_q=Fraction(dual.rot * d * scale - rotation, d * scale),
        order=order,
        euler_char=dual.euler_char,
    )


def _group_pairs(components: list[SurgeryComponent]) -> list[tuple[int, int]]:
    """(D_2, w) of each component other than the dual, up to one sign per
    pair (module docstring, step 3).

    The integer-coefficient convention: the diagram is expanded exactly
    when, in diagram order, a non-integer coefficient comes before any
    unsurgered component. Then every surgered component p/q is its
    curve group, (q, q rot + p - sgn p), and the first coefficient
    outside the expandable shapes raises Unsupported here, before
    Lambda is built. Otherwise each is one curve, (1, rot), and no
    shape is checked. An unsurgered component's pair is never read:
    building Lambda raises MissingCoefficient for the first one.
    """
    first = next(
        (
            c
            for c in components
            if not c.is_surgered or c.contact_coefficient.denominator != 1
        ),
        None,
    )
    expand = first is not None and first.is_surgered
    pairs = []
    for c in components:
        if expand and c.is_surgered:
            r = c.contact_coefficient
            _check_expandable(c.knot, r)
            p, q = r.numerator, r.denominator
            pairs.append((q, q * c.knot.rot + p - (1 if p > 0 else -1)))
        else:
            pairs.append((1, c.knot.rot))
    return pairs
