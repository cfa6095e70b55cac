"""Diagram model: builders, validation, matrices, JSON round trip."""

from __future__ import annotations

import json
import random
import warnings
from fractions import Fraction

import pytest

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    MissingCoefficient,
    ParseError,
    PlusOneChainSpec,
    SquareMatrix,
    SurgeryComponent,
    SurgeryDiagram,
    UnexpandedCoefficient,
    ValidationError,
    build_extended_matrix,
    build_general_matrices,
    build_linking_matrix,
    chain_diagram,
    det,
    dual_system,
    parity_lint,
    parse_diagram,
    presentation_matrix,
    reverse_orientation,
    serialize_diagram,
    topological_coefficient,
)
from surgerycalc.selftest import _cofactor_det as cofactor_det

from helpers import random_diagram


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


def test_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError, match=r"linking\[0\]\[0\]"):
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(SurgeryComponent(knot=unknot("A")),),
            linking=((1,),),
        )


# --------------------------------------------------------------------------
# Coefficients


def test_topological_coefficient_values():
    assert topological_coefficient(
        SurgeryComponent(knot=unknot(tb=-2, chi=-1, rot=1), contact_coefficient=Fraction(1, 3))
    ) == Fraction(-5, 3)
    assert topological_coefficient(
        SurgeryComponent(knot=unknot(tb=-1), contact_coefficient=Fraction(1))
    ) == 0
    assert topological_coefficient(
        SurgeryComponent(knot=unknot(tb=-1), contact_coefficient=Fraction(-1))
    ) == -2


def test_topological_coefficient_missing():
    with pytest.raises(MissingCoefficient):
        topological_coefficient(SurgeryComponent(knot=unknot()))


# --------------------------------------------------------------------------
# Chain matrices


def test_linking_matrix_single_pushoff():
    spec = PlusOneChainSpec(tb=-2, rot=0, euler_char=1, n=1)
    assert build_linking_matrix(spec) == SquareMatrix([[-1]])


def test_linking_matrix_three_pushoffs():
    spec = PlusOneChainSpec(tb=-2, rot=0, euler_char=1, n=3)
    assert build_linking_matrix(spec) == SquareMatrix(
        [[-1, -2, -2], [-2, -1, -2], [-2, -2, -1]]
    )


def test_extended_matrix_single_pushoff():
    spec = PlusOneChainSpec(tb=-2, rot=0, euler_char=1, n=1)
    assert build_extended_matrix(spec) == SquareMatrix([[0, -2], [-2, -1]])


def test_extended_matrix_small_case():
    spec = PlusOneChainSpec(tb=-1, rot=0, euler_char=1, n=2)
    matrix = build_extended_matrix(spec)
    assert matrix == SquareMatrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    assert det(matrix) == -2 == cofactor_det(matrix.rows)


def test_determinant_identities_on_grid():
    for tb in range(-10, 0):
        for n in range(1, 11):
            spec = PlusOneChainSpec(tb=tb, rot=0, euler_char=1, n=n)
            m = build_linking_matrix(spec)
            m0 = build_extended_matrix(spec)
            assert m.is_symmetric() and m0.is_symmetric()
            assert det(m) == n * tb + 1
            assert det(m0) == -n * tb * tb


# --------------------------------------------------------------------------
# General matrices


def test_general_matrices_counterexample_diagram():
    diagram = bundled.load("figure1.json")
    m, m0, link_vector = build_general_matrices(diagram, diagram.component_index("L"))
    assert m == SquareMatrix([[0, -1], [-1, -2]])
    assert m0 == SquareMatrix([[0, -1, 0], [-1, 0, -1], [0, -1, -2]])
    assert link_vector == (-1, 0)


def test_general_matrices_degenerate_pushoff():
    diagram = bundled.load("s1xs2.json")
    m, m0, link_vector = build_general_matrices(diagram, diagram.component_index("U"))
    assert m == SquareMatrix([[0]])
    assert det(m) == 0
    assert link_vector == (-1,)


def test_general_matrices_match_chain_builders():
    # Entries written out from the formulas: diagonal tb + 1 and
    # off-diagonal tb for M; M0 borders it with tb and corner 0.
    for tb in range(-5, 3):
        for n in range(1, 6):
            spec = PlusOneChainSpec(tb=tb, rot=2, euler_char=-1, n=n)
            m_rows = [[tb + 1 if i == j else tb for j in range(n)] for i in range(n)]
            m0_rows = [[0] + [tb] * n] + [[tb] + row for row in m_rows]
            diagram = chain_diagram(spec)
            m, m0, link_vector = build_general_matrices(
                diagram, diagram.component_index("dual")
            )
            assert m == build_linking_matrix(spec) == SquareMatrix(m_rows)
            assert m0 == build_extended_matrix(spec) == SquareMatrix(m0_rows)
            assert link_vector == (tb,) * n
            assert diagram.ids == tuple(f"L#{i}" for i in range(1, n + 1)) + ("dual",)


def test_dual_system_table():
    figure1 = bundled.load("figure1.json")
    s1xs2 = bundled.load("s1xs2.json")
    lone = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot("L")),),
        linking=((0,),),
    )
    chain = chain_diagram(PlusOneChainSpec(tb=-3, rot=1, euler_char=1, n=4))
    for diagram, dual_id in ((figure1, "L"), (s1xs2, "U"), (lone, "L"), (chain, "dual")):
        index = diagram.component_index(dual_id)
        m, m0, link_vector = build_general_matrices(diagram, index)
        assert dual_system(diagram, index) == (m, link_vector)
    for diagram, index, message in (
        (figure1, 3, "out of range"),
        (figure1, -1, "out of range"),
        (figure1, figure1.component_index("U"), "must not carry a surgery"),
        (s1xs2, s1xs2.component_index("K"), "must not carry a surgery"),
    ):
        with pytest.raises(ValidationError, match=message):
            dual_system(diagram, index)


def test_general_matrices_no_surgered_components():
    # Degenerate bordered case: M is 0 x 0 with det 1, M0 = [[0]].
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot("L")),),
        linking=((0,),),
    )
    m, m0, link_vector = build_general_matrices(diagram, 0)
    assert m.dimension == 0
    assert det(m) == 1
    assert m0 == SquareMatrix([[0]])
    assert link_vector == ()


def test_general_matrices_rejects_surgered_dual():
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(ValidationError):
        build_general_matrices(diagram, diagram.component_index("K"))


def test_general_matrices_rejects_rational_coefficient():
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(
            SurgeryComponent(knot=unknot("A", tb=-2), contact_coefficient=Fraction(1, 2)),
            SurgeryComponent(knot=unknot("L")),
        ),
        linking=((0, 1), (1, 0)),
    )
    with pytest.raises(UnexpandedCoefficient):
        build_general_matrices(diagram, 1)


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
        build_general_matrices(diagram, 1)


def test_presentation_matrix_requires_all_surgered():
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(MissingCoefficient):
        presentation_matrix(diagram)


# --------------------------------------------------------------------------
# Helpers


def test_reverse_orientation_negates_rot_and_linking():
    diagram = bundled.load("figure1.json")
    reversed_diagram = reverse_orientation(diagram, "L")
    index = diagram.component_index("L")
    assert reversed_diagram.components[index].knot.rot == -diagram.components[
        index
    ].knot.rot
    for j in range(len(diagram.components)):
        if j != index:
            assert reversed_diagram.linking[index][j] == -diagram.linking[index][j]
    assert reverse_orientation(reversed_diagram, "L") == diagram


def test_parity_lint():
    clean = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot("A", tb=-2, rot=1, chi=1)),),
        linking=((0,),),
    )
    assert parity_lint(clean) == []
    dirty = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(SurgeryComponent(knot=unknot("A", tb=-2, rot=0, chi=-1)),),
        linking=((0,),),
    )
    assert len(parity_lint(dirty)) == 1


# --------------------------------------------------------------------------
# Serialization


def test_bundled_diagrams_parse():
    figure = bundled.load("figure1.json")
    assert figure.ids == ("L", "U", "V")
    assert figure.ambient is AmbientStatus.TIGHT
    assert figure.component("U").contact_coefficient == 1
    assert figure.component("V").contact_coefficient == -1
    assert figure.component("L").contact_coefficient is None

    s1xs2 = bundled.load("s1xs2.json")
    assert s1xs2.ids == ("K", "U")
    assert topological_coefficient(s1xs2.component("K")) == 0


def test_round_trip_bundled():
    for name in ("figure1.json", "s1xs2.json"):
        diagram = bundled.load(name)
        assert parse_diagram(serialize_diagram(diagram)) == diagram


def test_round_trip_randomized():
    rng = random.Random(1234)
    for _ in range(60):
        diagram = random_diagram(rng)
        assert parse_diagram(serialize_diagram(diagram)) == diagram


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
