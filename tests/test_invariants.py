"""Dual-knot invariants: closed forms, matrix path, homological order."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    DualKnotInvariants,
    LegendrianKnotData,
    MissingCoefficient,
    NonNullhomologousDual,
    SurgeryComponent,
    SurgeryDiagram,
    Unsupported,
    ValidationError,
    chain_diagram,
    dual_invariants,
    dual_invariants_closed_form,
    evaluate_negative_continued_fraction,
    expand_diagram,
)
from surgerycalc.expansion import _knot_group
from surgerycalc.invariants import _group_pairs
from surgerycalc.selftest import _cofactor_det as cofactor_det

from helpers import (
    fraction_det,
    framed_matrices,
    group_sweep,
    random_diagram,
    reverse_orientation,
    tail_continuants,
)


def test_homological_order_values():
    # |n*tb + 1|; n*tb + 1 = 0 is the degenerate, non-nullhomologous case
    assert dual_invariants_closed_form(-2, 0, 1, 3).order == 5
    assert dual_invariants_closed_form(-5, 0, 1, 2).order == 9
    assert dual_invariants_closed_form(3, 0, 1, 2).order == 7
    with pytest.raises(NonNullhomologousDual):
        dual_invariants_closed_form(-1, 0, 1, 1)


def test_closed_form_examples():
    invariants = dual_invariants_closed_form(-2, 1, 1, 3)
    assert invariants.tb_q == Fraction(2, 5)
    assert invariants.rot_q == Fraction(-1, 5)
    assert invariants.order == 5
    assert invariants.euler_char == 1

    invariants = dual_invariants_closed_form(-3, 0, 1, 1)
    assert invariants.tb_q == Fraction(3, 2)
    assert invariants.rot_q == 0
    assert invariants.order == 2


def test_closed_form_degenerate():
    with pytest.raises(NonNullhomologousDual):
        dual_invariants_closed_form(-1, 0, 1, 1)


def test_matrix_path_counterexample():
    diagram = bundled.load("figure1.json")
    invariants = dual_invariants(diagram, "L")
    # tb in the surgered manifold: tb0 + det(M0)/det(M) = -1 + 2/(-1) = -3
    assert invariants.tb_q == -3
    assert invariants.rot_q == 0
    assert invariants.order == 1
    assert invariants.euler_char == 1


def test_matrix_path_single_pushoff_dual():
    diagram = chain_diagram(-2, 0, 1, 1)
    invariants = dual_invariants(diagram, "dual")
    # tb_q = tb + det(M0)/det(M) = -2 + (-4)/(-1) = 2, matching the
    # closed form -2/(1*(-2)+1) = 2.
    assert invariants.tb_q == 2
    assert invariants == dual_invariants_closed_form(-2, 0, 1, 1)


def test_matrix_path_degenerate():
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(NonNullhomologousDual):
        dual_invariants(diagram, "U")


def test_closed_form_matches_matrix_path_on_grid():
    for tb in range(-6, 0):
        for n in range(1, 7):
            if n * tb + 1 == 0:
                continue
            for rot in range(-6, 7):
                diagram = chain_diagram(tb, rot, 1, n)
                via_matrix = dual_invariants(diagram, "dual")
                closed = dual_invariants_closed_form(tb, rot, 1, n)
                assert via_matrix == closed
                assert via_matrix.order % via_matrix.tb_q.denominator == 0
                assert via_matrix.order % via_matrix.rot_q.denominator == 0


def test_unlinked_dual_keeps_classical_invariants():
    knot = LegendrianKnotData(id="L", tb=-4, rot=1, euler_char=-1)
    other = LegendrianKnotData(id="A", tb=-1, rot=0, euler_char=1)
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=other, contact_coefficient=Fraction(-1)),
            SurgeryComponent(knot=knot),
        ),
        linking=((0, 0), (0, 0)),
    )
    invariants = dual_invariants(diagram, "L")
    assert invariants.tb_q == -4
    assert invariants.rot_q == 1
    assert invariants.order == 1


def test_order_is_lattice_order_not_determinant():
    # Two unlinked (+1)-surgeries on tb = 1 knots give det(M) = 4, but
    # the dual's class already dies once: its order is 1.
    a = LegendrianKnotData(id="A", tb=1, rot=0, euler_char=-1)
    b = LegendrianKnotData(id="B", tb=1, rot=0, euler_char=-1)
    dual = LegendrianKnotData(id="D", tb=0, rot=1, euler_char=-1)
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=a, contact_coefficient=Fraction(1)),
            SurgeryComponent(knot=b, contact_coefficient=Fraction(1)),
            SurgeryComponent(knot=dual),
        ),
        linking=((0, 0, 2), (0, 0, 0), (2, 0, 0)),
    )
    invariants = dual_invariants(diagram, "D")
    assert invariants.order == 1
    assert invariants.tb_q.denominator == 1


def test_invariants_validation():
    with pytest.raises(ValidationError):
        DualKnotInvariants(
            tb_q=Fraction(1, 3), rot_q=Fraction(0), order=2, euler_char=1
        )
    with pytest.raises(ValidationError):
        DualKnotInvariants(tb_q=Fraction(1), rot_q=Fraction(0), order=0, euler_char=1)


def _dual_cases(rng):
    """Random unexpanded diagrams with exactly one unsurgered component."""
    while True:
        diagram = random_diagram(rng, max_components=6)
        unsurgered = [c.id for c in diagram.components if not c.is_surgered]
        if len(unsurgered) == 1:
            yield diagram, unsurgered[0]


def _replace_column(rows, index, column):
    return [row[:index] + [v] + row[index + 1 :] for row, v in zip(rows, column)]


def test_matrix_path_matches_cofactor_oracle_randomized():
    # Oracle shares no code with the elimination kernel: tb_Q from the
    # bordered determinant, the solution x from Cramer's rule. It runs on
    # the diagram itself when every coefficient is an integer and on its
    # expansion otherwise; dual_invariants gets the unexpanded diagram.
    seen = dict.fromkeys(("degenerate", "expanded", "integer", "unsupported"), 0)
    checked = 0
    for diagram, dual_id in _dual_cases(random.Random(20261017)):
        if checked == 300:
            break
        coefficients = [c.contact_coefficient for c in diagram.components]
        if all(r is None or r.denominator == 1 for r in coefficients):
            oracle_diagram = diagram
            unit_only = all(r in (None, 1, -1) for r in coefficients)
            kind = None if unit_only else "integer"
        else:
            try:
                oracle_diagram = expand_diagram(diagram).derived_diagram
            except Unsupported:
                seen["unsupported"] += 1
                with pytest.raises(Unsupported):
                    dual_invariants(diagram, dual_id)
                continue
            kind = "expanded"
        if not 1 <= len(oracle_diagram.components) - 1 <= 6:
            continue
        checked += 1
        if kind:
            seen[kind] += 1
        dual_index = oracle_diagram.component_index(dual_id)
        rows, m0, link_vector = framed_matrices(oracle_diagram, dual_id)
        det_m = cofactor_det(rows)
        if det_m == 0:
            seen["degenerate"] += 1
            with pytest.raises(NonNullhomologousDual):
                dual_invariants(diagram, dual_id)
            continue
        x = [
            cofactor_det(_replace_column(rows, i, link_vector)) / det_m
            for i in range(len(rows))
        ]
        others = [c for c in oracle_diagram.components if c.id != dual_id]
        dual = oracle_diagram.components[dual_index].knot
        rot_q = dual.rot - sum(c.knot.rot * value for c, value in zip(others, x))
        expected = DualKnotInvariants(
            tb_q=dual.tb + cofactor_det(m0) / det_m,
            rot_q=rot_q,
            order=math.lcm(*(value.denominator for value in x)),
            euler_char=dual.euler_char,
        )
        assert dual_invariants(diagram, dual_id) == expected
    assert all(seen.values()), seen


def _one_surgery_and_dual(coefficient, dual_linking=1):
    """Knot K (tb = -1) surgered with ``coefficient``; unsurgered dual L."""
    return SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(
                knot=LegendrianKnotData(id="K", tb=-1, rot=0, euler_char=1),
                contact_coefficient=coefficient,
            ),
            SurgeryComponent(
                knot=LegendrianKnotData(id="L", tb=-1, rot=0, euler_char=1)
            ),
        ),
        linking=((0, dual_linking), (dual_linking, 0)),
    )


@pytest.mark.parametrize(
    "diagram, component_id, error",
    [
        (bundled.load("s1xs2.json"), "U", NonNullhomologousDual),
        (bundled.load("figure1.json"), "Z", ValidationError),
        (_one_surgery_and_dual(Fraction(2, 5)), "L", Unsupported),
        (_one_surgery_and_dual(None), "L", MissingCoefficient),
        (_one_surgery_and_dual(Fraction(-1), dual_linking=0), "L", None),
    ],
)
def test_dual_invariants_errors(diagram, component_id, error):
    # A second unsurgered component makes the dual's complement
    # unsurgered (MissingCoefficient); the last row is the control.
    if error is None:
        assert dual_invariants(diagram, component_id).tb_q == -1
        return
    with pytest.raises(error):
        dual_invariants(diagram, component_id)


def test_dual_invariants_keeps_integer_coefficients_unexpanded():
    # Contact (-3)-surgery along K: the diagram is taken as given, with
    # K's unstabilized rot = 0 and M = [tb + r] = [-4]. The expansion that
    # `expand` prints stabilizes K twice (rot = -2 under all-negative
    # zigzags), so rot_Q differs there, while tb_Q and the order agree.
    diagram = _one_surgery_and_dual(Fraction(-3))
    invariants = dual_invariants(diagram, "L")
    m, m0, _ = framed_matrices(diagram, "L")
    assert (m, invariants.tb_q) == ([[-4]], -1 + fraction_det(m0) / fraction_det(m))
    assert invariants == DualKnotInvariants(
        tb_q=Fraction(-3, 4), rot_q=Fraction(0), order=4, euler_char=1
    )
    derived = expand_diagram(diagram).derived_diagram
    assert [c.knot.rot for c in derived.components] == [-2, 0]
    expanded = dual_invariants(derived, "L")
    assert (expanded.tb_q, expanded.order) == (invariants.tb_q, invariants.order)
    assert expanded.rot_q == Fraction(-1, 2)


# --------------------------------------------------------------------------
# Compressed path vs the dense oracle


def _dense_oracle(diagram, component_id):
    """The dense formulas: ``dual_invariants`` on the diagram's expansion
    (default zigzags, every curve a (1, rot) group) when the
    integer-coefficient convention expands it, else on the diagram as
    given."""
    if _convention_expands(diagram, component_id):
        derived = expand_diagram(diagram).derived_diagram
        return dual_invariants(derived, component_id)
    return dual_invariants(diagram, component_id)


def _convention_expands(diagram, component_id):
    """Whether ``component_id`` names an unsurgered component and, among
    the others in diagram order, a non-integer coefficient comes before
    any unsurgered component."""
    if component_id not in diagram.ids or diagram.component(component_id).is_surgered:
        return False
    for c in diagram.components:
        if c.id == component_id:
            continue
        if not c.is_surgered:
            return False
        if c.contact_coefficient.denominator != 1:
            return True
    return False


def _outcome(function, diagram, component_id):
    try:
        return function(diagram, component_id)
    except ValueError as error:
        return type(error), str(error)


def _expanded(diagram):
    """Whether the invariants path takes curve groups: some coefficient is
    not an integer."""
    return any(
        c.is_surgered and c.contact_coefficient.denominator != 1
        for c in diagram.components
    )


def _singular_multi_curve_group(diagram):
    """Whether the diagram is expanded and some multi-curve group has
    tb_i + r_i = 0 (its own block G is singular)."""
    return _expanded(diagram) and any(
        c.is_surgered
        and c.knot.tb + c.contact_coefficient == 0
        and len(_knot_group(c.knot, c.contact_coefficient, "all-negative")) > 1
        for c in diagram.components
    )


def test_compressed_path_matches_dense_oracle_randomized():
    seen = dict.fromkeys(("defined", "singular", "singular-group", "error"), 0)
    cases = 0
    for diagram, dual_id in _dual_cases(random.Random(20261018)):
        if cases == 2000:
            break
        cases += 1
        expected = _outcome(_dense_oracle, diagram, dual_id)
        assert _outcome(dual_invariants, diagram, dual_id) == expected
        if isinstance(expected, DualKnotInvariants):
            seen["defined"] += 1
            seen["singular-group"] += _singular_multi_curve_group(diagram)
        elif expected[0] is NonNullhomologousDual:
            seen["singular"] += 1
        else:
            seen["error"] += 1
    assert all(seen.values()), seen


def test_errors_keep_dense_precedence():
    # Any component may be the one asked about (a surgered one is a
    # ValidationError), and a second unsurgered component competes with an
    # unexpandable coefficient by position, as the integer-coefficient
    # convention orders them.
    rng = random.Random(7)
    kinds = set()
    for _ in range(1500):
        diagram = random_diagram(rng, max_components=5)
        for component in diagram.components:
            expected = _outcome(_dense_oracle, diagram, component.id)
            assert _outcome(dual_invariants, diagram, component.id) == expected
            kinds.add(expected[0] if isinstance(expected, tuple) else "defined")
    assert kinds == {
        "defined",
        ValidationError,
        MissingCoefficient,
        Unsupported,
        NonNullhomologousDual,
    }


def _negative_digits(m, deepest):
    """m continued-fraction digits cycling through -2, ..., deepest."""
    return [-2 - k % (-1 - deepest) for k in range(m)]


def _long_coefficient(kind, m):
    """A coefficient whose group has exactly m curves."""
    if kind == "minus-n1-over-n":
        return Fraction(-(m + 1), m)
    if kind == "inverse":
        return Fraction(1, m)
    if kind == "stabilized":
        return evaluate_negative_continued_fraction(_negative_digits(m, -9))
    # positive: a head curve, then a tail -P/Q of m - 1 curves
    tail = -evaluate_negative_continued_fraction(_negative_digits(m - 1, -4))
    return Fraction(tail.numerator, tail.numerator - tail.denominator)


@pytest.mark.parametrize(
    "kinds, sizes",
    [
        (("minus-n1-over-n",), (40,)),
        (("inverse",), (35,)),
        (("stabilized",), (45,)),
        (("positive",), (60,)),
        (("positive", "stabilized", "inverse"), (20, 15, 15)),
    ],
)
def test_long_chain_shapes_match_dense_oracle(kinds, sizes):
    components = [
        SurgeryComponent(
            knot=LegendrianKnotData(id=f"K{j}", tb=-2 - j, rot=j - 1, euler_char=1),
            contact_coefficient=_long_coefficient(kind, m),
        )
        for j, (kind, m) in enumerate(zip(kinds, sizes))
    ]
    components.append(
        SurgeryComponent(knot=LegendrianKnotData(id="L", tb=-3, rot=1, euler_char=-1))
    )
    size = len(components)
    linking = tuple(
        tuple(0 if i == j else (2 if (i + j) % 2 else -2) for j in range(size))
        for i in range(size)
    )
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN, components=tuple(components), linking=linking
    )
    derived = expand_diagram(diagram).derived_diagram
    assert len(derived.components) == sum(sizes) + 1
    assert dual_invariants(diagram, "L") == _dense_oracle(diagram, "L")


def test_group_pairs_closed_form_matches_sweep():
    # Every expandable coefficient p/q with |p|, |q| <= 40 under the
    # default zigzags: the curve-by-curve sweep gives |D_2| = q and
    # w / D_2 = rot + (p - sgn p) / q, the pair `_group_pairs` reads off
    # the coefficient (up to one common sign). The tail continuants
    # D_2, ..., D_(m+1) are nonzero, and the first pivot H_11 - D_3/D_2
    # is tb + r, so the group's block has det G = (tb + r) * D_2.
    # A 1/2-surgered component first keeps the diagram out of the
    # integer-coefficient convention, so integer p/q is expanded too.
    half = SurgeryComponent(
        knot=LegendrianKnotData(id="H", tb=-1, rot=0, euler_char=1),
        contact_coefficient=Fraction(1, 2),
    )
    shapes = 0
    for tb, rot in ((-5, -3), (-3, 2), (-1, 0), (0, -3), (3, 2)):
        knot = LegendrianKnotData(id="K", tb=tb, rot=rot, euler_char=1)
        for p in range(-40, 41):
            for q in range(1, 41):
                r = Fraction(p, q)
                if p == 0 or math.gcd(p, q) != 1 or 1 < p < q:
                    continue
                curves = _knot_group(knot, r, "all-negative")
                below = tail_continuants(curves)
                assert all(below[: len(curves)]), (r, below)
                first = curves[0].tb + curves[0].coefficient
                assert first * below[0] - below[1] == (tb + r) * below[0]
                tail, weight = group_sweep(curves)
                sign = 1 if p > 0 else -1
                assert abs(tail) == q
                assert Fraction(weight, tail) == rot + Fraction(p - sign, q)
                component = SurgeryComponent(knot=knot, contact_coefficient=r)
                pair = _group_pairs([half, component])[1]
                assert pair in ((tail, weight), (-tail, -weight)), (r, pair)
                shapes += 1
    assert shapes > 5000


def _push_off_diagram(coefficient, tb_k, rot_k, tb_l, rot_l, link):
    return SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(
                knot=LegendrianKnotData(id="K", tb=tb_k, rot=rot_k, euler_char=1),
                contact_coefficient=coefficient,
            ),
            SurgeryComponent(
                knot=LegendrianKnotData(id="L", tb=tb_l, rot=rot_l, euler_char=-1)
            ),
        ),
        linking=((0, link), (link, 0)),
    )


@pytest.mark.parametrize("n", [10**4, 10**30])
def test_plus_one_over_n_at_scale_matches_closed_form(n):
    # L a push-off of K: contact (+1/N)-surgery, N curves.
    for tb, rot in ((-2, 1), (-5, -3), (3, 2)):
        diagram = _push_off_diagram(Fraction(1, n), tb, rot, tb, rot, tb)
        assert dual_invariants(diagram, "L") == dual_invariants_closed_form(
            tb, rot, -1, n
        )


@pytest.mark.parametrize(
    "r",
    [
        Fraction(-(10**4 + 1), 10**4),
        # a negative continued fraction of about 1.25 * 10^11 digits
        Fraction(-1000000000001, 999999999993),
        # 4,000 digits in q: about 10^3999 curves
        Fraction(-(7 * 10**3999 + 2), 3 * 10**3999 + 1),
    ],
)
def test_minus_n1_over_n_at_scale(r):
    # Contact (r)-surgery along K with an astronomical curve count:
    # sigma = l/(tb_K + r), tb_Q = tb_L - l^2/(tb_K + r) and
    # rot_Q = rot_L - sigma (rot_K + (p + 1)/q).
    assert r.denominator >= 10**4
    for tb_k, tb_l, link in ((-3, -2, 5), (-1, -4, 1), (2, 0, -3)):
        diagram = _push_off_diagram(r, tb_k, 1, tb_l, 0, link)
        invariants = dual_invariants(diagram, "L")
        sigma = link / (tb_k + r)
        assert invariants.tb_q == tb_l - link * sigma
        weight = 1 + Fraction(r.numerator + 1, r.denominator)  # w / D_2
        assert invariants.rot_q == -sigma * weight
        assert invariants.order % invariants.tb_q.denominator == 0


def test_curve_names_of_the_expansion_do_not_matter():
    # The expansion of K (coefficient 1/2) names its curves K#1, K#2, which
    # collides with the component K#1; the derived diagram is invalid, but
    # the dual's invariants do not depend on curve names.
    def diagram(other_id):
        return SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(
                SurgeryComponent(
                    knot=LegendrianKnotData(id="K", tb=-2, rot=1, euler_char=1),
                    contact_coefficient=Fraction(1, 2),
                ),
                SurgeryComponent(
                    knot=LegendrianKnotData(id=other_id, tb=-1, rot=0, euler_char=1),
                    contact_coefficient=Fraction(-1),
                ),
                SurgeryComponent(
                    knot=LegendrianKnotData(id="L", tb=-1, rot=0, euler_char=1)
                ),
            ),
            linking=((0, 1, 1), (1, 0, 0), (1, 0, 0)),
        )

    with pytest.raises(ValidationError, match="duplicate component id 'K#1'"):
        expand_diagram(diagram("K#1"))
    expected = _dense_oracle(diagram("M"), "L")
    assert expected == DualKnotInvariants(
        tb_q=Fraction(0), rot_q=Fraction(1), order=2, euler_char=1
    )
    assert dual_invariants(diagram("K#1"), "L") == expected


# --------------------------------------------------------------------------
# Invariance properties of the compressed path


def _defined_case(seed):
    """A random diagram with one unsurgered component whose dual is defined."""
    rng = random.Random(seed)
    for diagram, dual_id in _dual_cases(rng):
        try:
            return diagram, dual_id, dual_invariants(diagram, dual_id)
        except (NonNullhomologousDual, Unsupported):
            continue


def _unstabilized(diagram, component):
    """Whether the path taken gives ``component`` no stabilized curve."""
    if not _expanded(diagram):
        return True
    curves = _knot_group(component.knot, component.contact_coefficient, "all-negative")
    return all(not curve.signs for curve in curves)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reversing_the_dual_negates_rot_q(seed):
    diagram, dual_id, invariants = _defined_case(seed)
    reversed_dual = dual_invariants(reverse_orientation(diagram, dual_id), dual_id)
    assert reversed_dual == DualKnotInvariants(
        tb_q=invariants.tb_q,
        rot_q=-invariants.rot_q,
        order=invariants.order,
        euler_char=invariants.euler_char,
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reversing_a_surgered_component(seed):
    # tb_Q and the order never change. rot_Q does not change when the
    # component's curves carry no stabilization; otherwise reversal turns
    # its all-negative zigzags into all-positive ones (checked exactly
    # when it is the only surgered component).
    diagram, dual_id, invariants = _defined_case(seed)
    for component in diagram.components:
        if not component.is_surgered:
            continue
        flipped = dual_invariants(reverse_orientation(diagram, component.id), dual_id)
        assert (flipped.tb_q, flipped.order) == (invariants.tb_q, invariants.order)
        if _unstabilized(diagram, component):
            assert flipped == invariants
        elif len(diagram.components) == 2:
            derived = expand_diagram(diagram, zigzag_policy="all-positive")
            derived = derived.derived_diagram
            assert flipped == dual_invariants(derived, dual_id)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.randoms())
def test_permuting_components_changes_nothing(seed, shuffler):
    diagram, dual_id, invariants = _defined_case(seed)
    order = list(range(len(diagram.components)))
    shuffler.shuffle(order)
    permuted = SurgeryDiagram(
        ambient=diagram.ambient,
        components=tuple(diagram.components[i] for i in order),
        linking=tuple(
            tuple(diagram.linking[i][j] for j in order) for i in order
        ),
    )
    assert dual_invariants(permuted, dual_id) == invariants


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_zigzag_policy_changes_rot_q_only(seed):
    # The policies place the stabilizations differently but give the same
    # expanded linking matrix, so dual_invariants on each expansion agrees
    # on tb_Q and the order (or fails the same way); rot_Q may differ.
    diagram, dual_id = next(_dual_cases(random.Random(seed)))
    outcomes = set()
    for policy in ("all-negative", "all-positive", "balanced"):
        try:
            derived = expand_diagram(diagram, zigzag_policy=policy).derived_diagram
            invariants = dual_invariants(derived, dual_id)
        except ValueError as error:
            outcomes.add((type(error), str(error)))
        else:
            outcomes.add((invariants.tb_q, invariants.order, invariants.euler_char))
    assert len(outcomes) == 1
