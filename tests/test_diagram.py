"""Diagram model: builders, validation, matrices, JSON round trip."""

from __future__ import annotations

import hashlib
import json
import random
import types
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surgerycalc
import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    DualKnotInvariants,
    LegendrianKnotData,
    MissingCoefficient,
    ParseError,
    SingularMatrix,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    chain_diagram,
    dual_invariants,
    parse_diagram,
    serialize_diagram,
    solve_integral,
)
from surgerycalc.diagram import _check_positive, _dual_links, _framed_matrix
from surgerycalc.selftest import _cofactor_det as cofactor_det
from surgerycalc.selftest import _det as det

from helpers import cramer, fraction_det, framed_matrices, json_text, random_diagram


def unknot(cid="K", tb=-1, rot=0, chi=1):
    return LegendrianKnotData(id=cid, tb=tb, rot=rot, euler_char=chi)


# --------------------------------------------------------------------------
# Knot and component validation


def test_euler_char_above_one_rejected():
    with pytest.raises(ValidationError):
        LegendrianKnotData(id="K", tb=-1, rot=0, euler_char=3)


def test_even_euler_char_warns_but_passes():
    # Constructing a value has no side effects; parsing outside data
    # warns once per input component, at a real source line.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        knot = LegendrianKnotData(id="K", tb=-1, rot=0, euler_char=0)
    assert knot.euler_char == 0
    document = {
        "ambient": "unknown",
        "components": [
            {"id": "K", "tb": -1, "rot": 0, "euler_char": 0,
             "contact_coefficient": "1/3"},
            {"id": "M", "tb": -1, "rot": 0, "euler_char": 1,
             "contact_coefficient": None},
            {"id": "N", "tb": -2, "rot": 0, "euler_char": -2,
             "contact_coefficient": None},
        ],
        "linking": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    }
    with pytest.warns(UserWarning) as record:
        diagram = parse_diagram(json.dumps(document))
    assert [str(w.message).split(".")[0] for w in record] == ["K", "N"]
    assert all(w.filename.endswith("diagram.py") for w in record)
    assert diagram.component("K").knot == knot


def test_zero_coefficient_rejected():
    with pytest.raises(ValidationError):
        SurgeryComponent(knot=unknot(), contact_coefficient=Fraction(0))


def test_duplicate_ids_rejected():
    components = (
        SurgeryComponent(knot=unknot("A")),
        SurgeryComponent(knot=unknot("A")),
    )
    with pytest.raises(ValidationError):
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=components,
            linking=((0, 0), (0, 0)),
        )


def test_asymmetric_linking_rejected():
    with pytest.raises(ValidationError, match=r"linking\[1\]\[0\]"):
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(
                SurgeryComponent(knot=unknot("A")),
                SurgeryComponent(knot=unknot("B")),
            ),
            linking=((0, 1), (2, 0)),
        )


@pytest.mark.parametrize(
    "linking, message",
    [
        (
            ((0, True, 0), (True, 0, 0), (0, 0, 0)),
            "linking[0][1] must be an integer, got True",
        ),
        (
            ((0, 1, 0), (1.0, 0, 0), (0, 0, 0)),
            "linking[1][0] must be an integer, got 1.0",
        ),
        (((0, 1, 0), (2, 0, 0), (0, 0, 5)), "linking[1][0] != linking[0][1]"),
        (((0, 0, 1), (0, 3, 0), (2, 0, 0)), "linking[1][1] = 3 must be 0"),
        (((0, 0, 1), (0, 0, 0), (2, 0, 0)), "linking[2][0] != linking[0][2]"),
    ],
)
def test_linking_errors_name_the_first_bad_entry(linking, message):
    with pytest.raises(ValidationError) as error:
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=tuple(SurgeryComponent(knot=unknot(i)) for i in "ABC"),
            linking=linking,
        )
    assert str(error.value).startswith(message)


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError, match=r"linking\[0\]\[0\]"):
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(SurgeryComponent(knot=unknot("A")),),
            linking=((1,),),
        )


class Int(int):
    """An int subclass: every constructor accepts it as an int."""


class Ratio(Fraction):
    """A Fraction subclass: every constructor accepts it as a Fraction."""


def knot_of(**fields):
    return LegendrianKnotData(**{"id": "K", "tb": -2, "rot": 1, "euler_char": -1, **fields})


def dual_of(**fields):
    values = {"tb_q": Fraction(-2, 3), "rot_q": Fraction(1, 3), "order": 3, "euler_char": 1}
    return DualKnotInvariants(**{**values, **fields})


def component_of(coefficient):
    return SurgeryComponent(knot=unknot(), contact_coefficient=coefficient)


# Values each validating constructor rejects, with the error it raises:
# bools, floats and numeric strs are not ints, and a zero coefficient, an
# euler_char above 1 and an order that a denominator does not divide are
# out of range.
CONSTRUCTOR_ERRORS = [
    (lambda: knot_of(tb=True), ValidationError, "K.tb must be an integer, got True"),
    (lambda: knot_of(rot=False), ValidationError, "K.rot must be an integer, got False"),
    (lambda: knot_of(tb=-2.0), ValidationError, "K.tb must be an integer, got -2.0"),
    (lambda: knot_of(rot="1"), ValidationError, "K.rot must be an integer, got '1'"),
    (lambda: knot_of(euler_char=1.0), ValidationError,
     "K.euler_char must be an integer, got 1.0"),
    (lambda: knot_of(euler_char=2), ValidationError,
     "K.euler_char = 2 exceeds 1, impossible for a surface with boundary"),
    (lambda: knot_of(euler_char=Int(3)), ValidationError,
     "K.euler_char = 3 exceeds 1, impossible for a surface with boundary"),
    (lambda: knot_of(id=""), ValidationError, "knot id must be a non-empty string"),
    (lambda: knot_of(id=5), ValidationError, "knot id must be a non-empty string"),
    (lambda: component_of(Fraction(0)), ValidationError,
     "K: contact coefficient 0 is not a surgery"),
    (lambda: component_of(Ratio(0)), ValidationError,
     "K: contact coefficient 0 is not a surgery"),
    (lambda: component_of(0), ValidationError, "K: contact coefficient 0 is not a surgery"),
    (lambda: component_of("0/5"), ValidationError,
     "K: contact coefficient 0 is not a surgery"),
    (lambda: component_of(True), TypeError, "not an exact rational: True"),
    (lambda: component_of(0.5), TypeError, "not an exact rational: 0.5"),
    (lambda: component_of("0.5"), ValueError, "not a rational 'p/q' string: '0.5'"),
    (lambda: dual_of(order=0), ValidationError, "order must be >= 1, got 0"),
    (lambda: dual_of(order=True), ValidationError, "order must be an integer, got True"),
    (lambda: dual_of(order=3.0), ValidationError, "order must be an integer, got 3.0"),
    (lambda: dual_of(order="3"), ValidationError, "order must be an integer, got '3'"),
    (lambda: dual_of(order=2), ValidationError,
     "denominator of tb_q = -2/3 does not divide the homological order 2"),
    (lambda: dual_of(rot_q=Fraction(1, 6)), ValidationError,
     "denominator of rot_q = 1/6 does not divide the homological order 3"),
    (lambda: dual_of(tb_q=-1), ValidationError, "tb_q must be a Fraction, got -1"),
    (lambda: dual_of(rot_q=0.5), ValidationError, "rot_q must be a Fraction, got 0.5"),
    (lambda: dual_of(rot_q="1/3"), ValidationError, "rot_q must be a Fraction, got '1/3'"),
]


@pytest.mark.parametrize("build, error, message", CONSTRUCTOR_ERRORS)
def test_constructors_reject_inexact_and_out_of_range_values(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def test_constructors_accept_subclasses():
    knot = knot_of(tb=Int(-2), rot=Int(1), euler_char=Int(-1))
    assert (type(knot.tb), knot) == (Int, knot_of())
    assert knot_of(id=type("Id", (str,), {})("K")) == knot_of()
    for coefficient, stored in (
        (Ratio(3, 2), Ratio(3, 2)),
        (Int(2), Fraction(2)),
        ("3/2", Fraction(3, 2)),
    ):
        component = component_of(coefficient)
        assert type(component.contact_coefficient) is type(stored)
        assert component.contact_coefficient == stored
    invariants = dual_of(tb_q=Ratio(-2, 3), order=Int(6))
    assert type(invariants.order) is Int and invariants == dual_of(order=6)
    # int subclasses in a diagram reach the kernel and solve as ints
    for coefficient in (Ratio(3, 2), Int(2)):
        diagrams = [
            SurgeryDiagram(
                ambient=AmbientStatus.UNKNOWN,
                components=(
                    SurgeryComponent(knot=knot_of(tb=tb), contact_coefficient=coefficient),
                    SurgeryComponent(knot=unknot("L")),
                ),
                linking=((0, lk), (lk, 0)),
            )
            for tb, lk in ((Int(-1), Int(3)), (-1, 3))
        ]
        assert dual_invariants(diagrams[0], "L") == dual_invariants(diagrams[1], "L")


# --------------------------------------------------------------------------
# The framed linking system, row-scaled where it is built


def one_surgery(tb, coefficient, dual_linking=2):
    """Knot K (tb ``tb``) surgered with ``coefficient``; unsurgered dual L."""
    return SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=unknot(tb=tb), contact_coefficient=coefficient),
            SurgeryComponent(knot=unknot("L")),
        ),
        linking=((0, dual_linking), (dual_linking, 0)),
    )


def test_framed_matrix_diagonal_values():
    # the row of tb + p/q is q times (tb + p/q | lk): q tb + p and q lk
    for tb, coefficient, row in (
        (-2, Fraction(1, 3), [-5, 6]),
        (-1, Fraction(1), [0, 2]),
        (-1, Fraction(-1), [-2, 2]),
        (4, Fraction(-7, 5), [13, 10]),
    ):
        assert _framed_matrix(one_surgery(tb, coefficient), [0], [2]) == [row]
        assert framed_matrices(one_surgery(tb, coefficient), "L")[0] == [
            [tb + coefficient]
        ]


def test_framed_matrix_missing_coefficient():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot()), SurgeryComponent(knot=unknot("L"))),
        linking=((0, 1), (1, 0)),
    )
    for build in (
        lambda: _framed_matrix(diagram, [0], [1]),
        lambda: dual_invariants(diagram, "L"),
    ):
        with pytest.raises(MissingCoefficient) as raised:
            build()
        assert str(raised.value) == "component 'K' carries no contact surgery coefficient"


def _random_system_diagram(rng):
    """1-4 surgered components p/q (|p| <= 30, q <= 7), then the dual L."""
    k = rng.randint(1, 4)
    components = []
    for index in range(k):
        while True:
            coefficient = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            if coefficient:
                break
        components.append(
            SurgeryComponent(
                knot=unknot(f"K{index}", tb=rng.randint(-6, 3)),
                contact_coefficient=coefficient,
            )
        )
    components.append(SurgeryComponent(knot=unknot("L")))
    linking = [[0] * (k + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        for j in range(i):
            linking[i][j] = linking[j][i] = rng.randint(-3, 3)
    return SurgeryDiagram(AmbientStatus.UNKNOWN, tuple(components), linking)


def test_row_scaled_system_solves_like_lambda():
    # The int rows q_i (Lambda_i | l_i) have the solution of the
    # unscaled rational system Lambda x = l, by Cramer's rule over the
    # cofactor determinant, and are singular exactly when Lambda is.
    rng = random.Random(20261019)
    singular = 0
    for _ in range(1200):
        diagram = _random_system_diagram(rng)
        others, link_vector = _dual_links(diagram, diagram.component_index("L"))
        rows = _framed_matrix(diagram, others, link_vector)
        lam, _, lk = framed_matrices(diagram, "L")
        assert lk == link_vector
        for row, lam_row, l, component in zip(rows, lam, lk, diagram.components):
            q = component.contact_coefficient.denominator
            assert {type(entry) for entry in row} == {int}
            assert row == [q * entry for entry in (*lam_row, l)]
        expected = cramer(lam, lk)
        if expected is None:
            singular += 1
            with pytest.raises(SingularMatrix):
                solve_integral(rows)
            continue
        y, d = solve_integral(rows)
        assert tuple(Fraction(v, d) for v in y) == expected
    assert singular > 0


# --------------------------------------------------------------------------
# Chain matrices


def chain_m(tb, rot, chi, n):
    """The chain's n x n linking matrix M."""
    return framed_matrices(chain_diagram(tb, rot, chi, n), "dual")[0]


def chain_m0(tb, rot, chi, n):
    """The chain's (n+1) x (n+1) bordered matrix M0."""
    return framed_matrices(chain_diagram(tb, rot, chi, n), "dual")[1]


def test_linking_matrix_single_pushoff():
    assert chain_m(-2, 0, 1, 1) == [[-1]]


def test_linking_matrix_three_pushoffs():
    assert chain_m(-2, 0, 1, 3) == [[-1, -2, -2], [-2, -1, -2], [-2, -2, -1]]


def test_extended_matrix_single_pushoff():
    assert chain_m0(-2, 0, 1, 1) == [[0, -2], [-2, -1]]


def test_extended_matrix_small_case():
    matrix = chain_m0(-1, 0, 1, 2)
    assert matrix == [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]
    assert det(matrix) == -2 == cofactor_det(matrix)


def test_determinant_identities_on_grid():
    for tb in range(-10, 0):
        for n in range(1, 11):
            m = chain_m(tb, 0, 1, n)
            m0 = chain_m0(tb, 0, 1, n)
            assert m == [list(column) for column in zip(*m)]
            assert m0 == [list(column) for column in zip(*m0)]
            assert det(m) == fraction_det(m) == n * tb + 1
            assert det(m0) == fraction_det(m0) == -n * tb * tb


def validated_chain(tb, rot, euler_char, n):
    """The chain built through the validating constructors."""
    _check_positive(n, "n")
    components = [
        SurgeryComponent(
            knot=LegendrianKnotData(id=f"L#{i}", tb=tb, rot=rot, euler_char=euler_char),
            contact_coefficient=Fraction(1),
        )
        for i in range(1, n + 1)
    ]
    components.append(
        SurgeryComponent(
            knot=LegendrianKnotData(id="dual", tb=tb, rot=rot, euler_char=euler_char)
        )
    )
    size = len(components)
    return SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=components,
        linking=[[0 if i == j else tb for j in range(size)] for i in range(size)],
    )


def test_chain_diagram_equals_the_validated_chain():
    for tb in range(-10, 0):
        for n in range(1, 9):
            for rot in (-3, 0, 2, 7):
                for euler_char in (1, -1):
                    built = chain_diagram(tb, rot, euler_char, n)
                    oracle = validated_chain(tb, rot, euler_char, n)
                    assert built == oracle and hash(built) == hash(oracle)
                    assert type(built.components) is tuple
                    assert type(built.linking) is tuple
                    assert set(map(type, built.linking)) == {tuple}
                    assert serialize_diagram(built) == serialize_diagram(oracle)


def test_only_chain_diagram_builds_without_validation():
    # No path from parsed input (parse_diagram, diagram_from_obj, the
    # CLI's single-knot mode, the expander's derived_diagram) may reach
    # the helper that skips __post_init__: only chain_diagram names it.
    def owners(code, owner):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                inner = owner or const.co_name
                if "_prebuilt" in const.co_names:
                    yield inner
                yield from owners(const, inner)

    package = Path(surgerycalc.__file__).parent
    users = set()
    for source in sorted(package.rglob("*.py")):
        code = compile(source.read_text(encoding="utf-8"), str(source), "exec")
        users |= {(source.name, owner) for owner in owners(code, None)}
    assert users == {("diagram.py", "chain_diagram")}


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 0, 1, 2), "L#1.tb must be an integer, got True"),
        ((-2.0, 0, 1, 2), "L#1.tb must be an integer, got -2.0"),
        (("-2", 0, 1, 2), "L#1.tb must be an integer, got '-2'"),
        ((-2, False, 1, 2), "L#1.rot must be an integer, got False"),
        ((-2, 0.0, 1, 2), "L#1.rot must be an integer, got 0.0"),
        ((-2, "0", 1, 2), "L#1.rot must be an integer, got '0'"),
        ((-2, 0, 2, 2),
         "L#1.euler_char = 2 exceeds 1, impossible for a surface with boundary"),
        ((-2, 0, 1, 0), "n must be a positive integer, got 0"),
        ((-2, 0, 1, True), "n must be a positive integer, got True"),
        ((True, 0, 1, 0), "n must be a positive integer, got 0"),
    ],
)
def test_chain_diagram_rejects_what_the_constructors_reject(args, message):
    for build in (chain_diagram, validated_chain):
        with pytest.raises(ValidationError) as raised:
            build(*args)
        assert type(raised.value) is ValidationError and str(raised.value) == message


# --------------------------------------------------------------------------
# General matrices


def dual_system(diagram, dual_id):
    """The library's int rows of the dual's system, as ``dual_invariants``
    builds them."""
    others, link_vector = _dual_links(diagram, diagram.component_index(dual_id))
    return _framed_matrix(diagram, others, link_vector)


def test_general_matrices_counterexample_diagram():
    diagram = bundled.load("figure1.json")
    m, m0, link_vector = framed_matrices(diagram, "L")
    assert m == [[0, -1], [-1, -2]]
    assert m0 == [[0, -1, 0], [-1, 0, -1], [0, -1, -2]]
    assert link_vector == (-1, 0)
    assert dual_system(diagram, "L") == [[0, -1, -1], [-1, -2, 0]]


def test_general_matrices_degenerate_pushoff():
    diagram = bundled.load("s1xs2.json")
    m, m0, link_vector = framed_matrices(diagram, "U")
    assert m == [[0]]
    assert det(m) == 0
    assert link_vector == (-1,)
    with pytest.raises(SingularMatrix):
        solve_integral(dual_system(diagram, "U"))


def test_general_matrices_match_chain_builders():
    # Entries written out from the formulas: diagonal tb + 1 and
    # off-diagonal tb for M; M0 borders it with tb and corner 0.
    for tb in range(-5, 3):
        for n in range(1, 6):
            m_rows = [[tb + 1 if i == j else tb for j in range(n)] for i in range(n)]
            m0_rows = [[0] + [tb] * n] + [[tb] + row for row in m_rows]
            diagram = chain_diagram(tb, 2, -1, n)
            m, m0, link_vector = framed_matrices(diagram, "dual")
            assert m == chain_m(tb, 2, -1, n) == m_rows
            assert m0 == chain_m0(tb, 2, -1, n) == m0_rows
            assert link_vector == (tb,) * n
            assert dual_system(diagram, "dual") == [row + [tb] for row in m_rows]
            ids = [c.id for c in diagram.components]
            assert ids == [f"L#{i}" for i in range(1, n + 1)] + ["dual"]


def test_dual_system_table():
    figure1 = bundled.load("figure1.json")
    s1xs2 = bundled.load("s1xs2.json")
    lone = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot("L")),),
        linking=((0,),),
    )
    chain = chain_diagram(-3, 1, 1, 4)
    for diagram, dual_id in ((figure1, "L"), (s1xs2, "U"), (lone, "L"), (chain, "dual")):
        m, m0, link_vector = framed_matrices(diagram, dual_id)
        # every coefficient here is an integer, so no row is scaled
        assert dual_system(diagram, dual_id) == [
            row + [entry] for row, entry in zip(m, link_vector)
        ]
        assert m0 == [[0, *link_vector]] + [
            [entry, *row] for entry, row in zip(link_vector, m)
        ]
    for diagram, index, message in (
        (figure1, 3, "out of range"),
        (figure1, -1, "out of range"),
        (figure1, figure1.component_index("U"), "must not carry a surgery"),
        (s1xs2, s1xs2.component_index("K"), "must not carry a surgery"),
    ):
        with pytest.raises(ValidationError, match=message):
            _dual_links(diagram, index)


def test_general_matrices_no_surgered_components():
    # Degenerate bordered case: M is 0 x 0 with det 1, M0 = [[0]].
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot("L")),),
        linking=((0,),),
    )
    m, m0, link_vector = framed_matrices(diagram, "L")
    assert m == [] == dual_system(diagram, "L")
    assert det(m) == 1
    assert solve_integral([]) == ((), 1)
    assert m0 == [[0]]
    assert link_vector == ()


def test_general_matrices_rejects_surgered_dual():
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(ValidationError):
        _dual_links(diagram, diagram.component_index("K"))
    with pytest.raises(ValidationError):
        dual_invariants(diagram, "K")


def test_rational_coefficients_give_lambda():
    # Rational coefficients frame by tb + p/q: the unscaled matrix is
    # Lambda, with Fractions only on those diagonal entries, and the
    # library's rows are q_i (Lambda_i | l_i), all ints.
    a = SurgeryComponent(knot=unknot("A", tb=-2), contact_coefficient=Fraction(1, 2))
    b = SurgeryComponent(knot=unknot("B", tb=-3), contact_coefficient=Fraction(-7, 3))
    c = SurgeryComponent(knot=unknot("C", tb=-1), contact_coefficient=Fraction(-2))
    lam = [[Fraction(-3, 2), 2, 1], [2, Fraction(-16, 3), -1], [1, -1, -3]]
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(a, b, c, SurgeryComponent(knot=unknot("L"))),
        linking=((0, 2, 1, 1), (2, 0, -1, 0), (1, -1, 0, 3), (1, 0, 3, 0)),
    )
    m, m0, link_vector = framed_matrices(diagram, "L")
    assert m == lam
    assert m0 == [[0, 1, 0, 3]] + [[v] + row for v, row in zip((1, 0, 3), lam)]
    assert link_vector == (1, 0, 3)
    rows = dual_system(diagram, "L")
    assert rows == [[-3, 4, 2, 2], [6, -16, -3, 0], [1, -1, -3, 3]]
    assert {type(entry) for row in rows for entry in row} == {int}


def test_general_matrices_rejects_second_unsurgered():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=unknot("A")),
            SurgeryComponent(knot=unknot("L")),
        ),
        linking=((0, 1), (1, 0)),
    )
    with pytest.raises(MissingCoefficient):
        dual_system(diagram, "L")


def test_framed_matrix_requires_all_surgered():
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(MissingCoefficient):
        _framed_matrix(diagram, range(2), (0, 0))


# --------------------------------------------------------------------------
# Serialization


def test_bundled_diagrams_parse():
    figure = bundled.load("figure1.json")
    assert [c.id for c in figure.components] == ["L", "U", "V"]
    assert figure.ambient is AmbientStatus.TIGHT
    assert figure.component("U").contact_coefficient == 1
    assert figure.component("V").contact_coefficient == -1
    assert figure.component("L").contact_coefficient is None

    s1xs2 = bundled.load("s1xs2.json")
    assert [c.id for c in s1xs2.components] == ["K", "U"]
    assert _framed_matrix(s1xs2, [0], [-1]) == [[0, -1]]


def test_round_trip_bundled():
    for name in ("figure1.json", "s1xs2.json"):
        diagram = bundled.load(name)
        assert parse_diagram(serialize_diagram(diagram)) == diagram


def test_round_trip_randomized():
    rng = random.Random(1234)
    for _ in range(60):
        diagram = random_diagram(rng)
        assert parse_diagram(serialize_diagram(diagram)) == diagram


def test_serialization_bytes_pinned():
    # The serializer's bytes, not only its round trip: the SHA-256 of each
    # bundled diagram's document and of 60 random documents, concatenated.
    pinned = {
        "figure1.json": "371f85c90cc6b5fc4813bb6c2517e2f28888971f51dd1345e9df56ef4028d679",
        "s1xs2.json": "929c0734133343f5e0fb5d8a82df2ddeb69d33c11b2b244ba8985d17602d5878",
    }
    for name, digest in pinned.items():
        text = serialize_diagram(bundled.load(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
    rng = random.Random(1234)
    text = "".join(serialize_diagram(random_diagram(rng)) for _ in range(60))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "23aebcb5f9183e0b840d45845ce2e2d83e1334e40ddc05405fdfe140d00091f9"
    )


# --------------------------------------------------------------------------
# The JSON writer against json.dumps(indent=2, sort_keys=True)

_wide_ints = st.integers(min_value=-(2**70), max_value=2**70)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _wide_ints,
    st.floats(),
    st.text(),
    st.text(alphabet='ab"\\/\n\t\u00e9\u2603\U0001f600\x00'),
)
_json_values = st.recursive(
    _scalars | st.lists(_wide_ints) | st.lists(_wide_ints | st.booleans()),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example({"a\u00e9\"\\": [[{"b": [1, True, -(2**65), 2**64 + 1]}], ()], "e": {}, "f": []})
@example([[[[1, 2], [False, 0]], ({},)], None, "\u2603"])
# lists and tuples of records: dicts sharing one key set, with every kind
# of value in their columns
@example(
    [
        {"id": "K\u00e9", "n": None, "b": True, "x": 1.5, "e": [], "s": [1, -1],
         "d": {"z": None, "a": [2]}},
        {"id": "\u2603\"", "n": 3, "b": False, "x": -0.0, "e": [], "s": [],
         "d": {}},
    ]
)
@example(
    (
        {"a%s": 1, "%d": "%", "c": [True, None]},
        {"a%s": -(2**70), "%d": "%(x)s", "c": ()},
    )
)
@example({"k": [{"v": [{"w": 1}, {"w": [{"u": None}]}]}, {"v": ({"w": 2},)}]})
@example([{"a": 1}, {"b": 1}])  # key sets differ
@example([{"a": 1, "b": 2}, {"a": 1}])  # one key set contains the other
@example([{}, {}])  # empty dicts
@example([{}, {"a": 1}])
@example([{"only": [1, {"x": "y"}]}])  # a one-record list
@example(({"a": float("nan")}, {"a": float("inf")}))
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_json_text_rejects_non_str_keys():
    with pytest.raises(TypeError):
        json_text({"a": {1: "b"}})


def test_parse_rejects_bad_rational():
    text = """
    {"ambient": "tight",
     "components": [{"id": "A", "tb": -1, "rot": 0, "euler_char": 1,
                     "contact_coefficient": "0.5"}],
     "linking": [[0]]}
    """
    with pytest.raises(ParseError, match="contact_coefficient"):
        parse_diagram(text)


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_diagram("{not json")


def test_parse_rejects_asymmetric_linking():
    text = """
    {"ambient": "unknown",
     "components": [
        {"id": "A", "tb": -1, "rot": 0, "euler_char": 1, "contact_coefficient": "1"},
        {"id": "B", "tb": -1, "rot": 0, "euler_char": 1, "contact_coefficient": "1"}],
     "linking": [[0, 1], [2, 0]]}
    """
    with pytest.raises(ValidationError, match=r"linking\[1\]\[0\]"):
        parse_diagram(text)


def test_parse_rejects_bad_ambient():
    with pytest.raises(ParseError, match="ambient"):
        parse_diagram('{"ambient": "floppy", "components": [], "linking": []}')


def test_parse_accepts_integer_coefficient_and_comment():
    text = """
    {"ambient": "unknown", "comment": "ignored",
     "components": [{"id": "A", "tb": -3, "rot": 0, "euler_char": 1,
                     "contact_coefficient": 2}],
     "linking": [[0]]}
    """
    diagram = parse_diagram(text)
    assert diagram.component("A").contact_coefficient == 2
