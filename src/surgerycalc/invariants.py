"""Rational classical invariants of surgery-dual knots.

After surgering every other component of a diagram, an unsurgered
component survives as a knot in the new manifold (the "dual" of the
presentation). When the linking matrix M of the surgered components is
nonsingular that knot is rationally nullhomologous and carries exact
rational invariants:

    tb_Q  = tb + det(M0) / det(M) = tb - < lk, M^-1 lk >
    rot_Q = rot - < (rot_1, ..., rot_k), M^-1 lk >

where lk = (lk_1, ..., lk_k) are the linking numbers of the dual with
the surgered components, rot_i are their rotation numbers and M0
borders M with lk (corner 0). The second form of tb_Q is the Schur
complement identity det(M0) = -det(M) * < lk, M^-1 lk >; it is the one
computed, so a single exact solve x = M^-1 lk yields all three
invariants. The homological order r of the dual is the smallest
positive integer with r * x integral, i.e. the order of the dual's
class in the surgery homology lattice; the denominators of tb_Q and
rot_Q always divide it. The rational Seifert surface of the dual is
the image of one for the original knot, so its Euler characteristic
is carried over verbatim.

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

from .diagram import SurgeryDiagram, ValidationError, build_general_matrices
from .exact import SingularMatrix, format_rational, inner_product, solve

__all__ = [
    "DualKnotInvariants",
    "NonNullhomologousDual",
    "dual_invariants_closed_form",
    "dual_invariants_matrix",
    "homological_order",
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


def homological_order(tb: int, n: int) -> int:
    """|n*tb + 1|, the dual's homological order for a (+1/n)-chain.

    A return of 0 signals the degenerate non-nullhomologous case; it
    is consumed as an error trigger by the invariant computations.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    return abs(n * tb + 1)


def dual_invariants_closed_form(
    tb: int, rot: int, euler_char: int, n: int
) -> DualKnotInvariants:
    """Closed-form dual invariants for contact (+1/n)-surgery."""
    r = homological_order(tb, n)
    if r == 0:
        raise NonNullhomologousDual(
            f"n*tb + 1 = 0 for tb = {tb}, n = {n}: the surgery is topologically "
            "a 0-surgery and the dual knot is not rationally nullhomologous"
        )
    denominator = n * tb + 1
    return DualKnotInvariants(
        tb_q=Fraction(tb, denominator),
        rot_q=Fraction(rot, denominator),
        order=r,
        euler_char=euler_char,
    )


def dual_invariants_matrix(
    diagram: SurgeryDiagram, dual_index: int
) -> DualKnotInvariants:
    """Dual invariants via the general linking-matrix formulas.

    Every component except ``dual_index`` must carry an integer contact
    coefficient (expand the diagram first if necessary). One exact
    solve x = M^-1 lk gives tb_Q = tb - <lk, x>,
    rot_Q = rot - <(rot_1, ..., rot_k), x> and the order as the lcm of
    the denominators of x. Raises
    NonNullhomologousDual when det(M) = 0.
    """
    m, _, link_vector = build_general_matrices(diagram, dual_index)
    try:
        solution = solve(m, link_vector)
    except SingularMatrix:
        raise NonNullhomologousDual(
            "det(M) = 0: the dual knot is not rationally nullhomologous and "
            "its rational invariants are undefined"
        ) from None
    dual = diagram.components[dual_index].knot
    order = math.lcm(*(value.denominator for value in solution)) if solution else 1
    others = [i for i in range(len(diagram.components)) if i != dual_index]
    rotations = tuple(diagram.components[i].knot.rot for i in others)
    tb_q = Fraction(dual.tb) - inner_product(link_vector, solution)
    rot_q = Fraction(dual.rot) - inner_product(rotations, solution)
    return DualKnotInvariants(
        tb_q=tb_q, rot_q=rot_q, order=order, euler_char=dual.euler_char
    )
