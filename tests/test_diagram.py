"""Diagram model: builders, validation, matrices, JSON round trip."""

from __future__ import annotations

import json
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    LegendrianKnotData,
    MissingCoefficient,
    ParseError,
    SquareMatrix,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    build_general_matrices,
    chain_diagram,
    det,
    parse_diagram,
    presentation_matrix,
    serialize_diagram,
    topological_coefficient,
)
from surgerycalc.diagram import json_text
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


def chain_m(tb, rot, chi, n):
    """The chain's n x n linking matrix M."""
    return presentation_matrix(chain_diagram(tb, rot, chi, n, dual_id=None))


def chain_m0(tb, rot, chi, n):
    """The chain's (n+1) x (n+1) bordered matrix M0."""
    return build_general_matrices(chain_diagram(tb, rot, chi, n), n)[1]


def test_linking_matrix_single_pushoff():
    assert chain_m(-2, 0, 1, 1) == SquareMatrix([[-1]])


def test_linking_matrix_three_pushoffs():
    assert chain_m(-2, 0, 1, 3) == SquareMatrix([[-1, -2, -2], [-2, -1, -2], [-2, -2, -1]])


def test_extended_matrix_single_pushoff():
    assert chain_m0(-2, 0, 1, 1) == SquareMatrix([[0, -2], [-2, -1]])


def test_extended_matrix_small_case():
    matrix = chain_m0(-1, 0, 1, 2)
    assert matrix == SquareMatrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]])
    assert det(matrix) == -2 == cofactor_det(matrix.rows)


def test_determinant_identities_on_grid():
    for tb in range(-10, 0):
        for n in range(1, 11):
            m = chain_m(tb, 0, 1, n)
            m0 = chain_m0(tb, 0, 1, n)
            assert m.rows == tuple(zip(*m.rows)) and m0.rows == tuple(zip(*m0.rows))
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
            m_rows = [[tb + 1 if i == j else tb for j in range(n)] for i in range(n)]
            m0_rows = [[0] + [tb] * n] + [[tb] + row for row in m_rows]
            diagram = chain_diagram(tb, 2, -1, n)
            m, m0, link_vector = build_general_matrices(
                diagram, diagram.component_index("dual")
            )
            assert m == chain_m(tb, 2, -1, n) == SquareMatrix(m_rows)
            assert m0 == chain_m0(tb, 2, -1, n) == SquareMatrix(m0_rows)
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
    chain = chain_diagram(-3, 1, 1, 4)
    for diagram, dual_id in ((figure1, "L"), (s1xs2, "U"), (lone, "L"), (chain, "dual")):
        index = diagram.component_index(dual_id)
        m, m0, link_vector = build_general_matrices(diagram, index)
        assert m0.rows == ((0,) + link_vector,) + tuple(
            (entry,) + row for entry, row in zip(link_vector, m.rows)
        )
        others = [c for c in diagram.components if c.id != dual_id]
        assert [m.rows[i][i] for i in range(len(others))] == [
            topological_coefficient(c) for c in others
        ]
    for diagram, index, message in (
        (figure1, 3, "out of range"),
        (figure1, -1, "out of range"),
        (figure1, figure1.component_index("U"), "must not carry a surgery"),
        (s1xs2, s1xs2.component_index("K"), "must not carry a surgery"),
    ):
        with pytest.raises(ValidationError, match=message):
            build_general_matrices(diagram, index)


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


def test_rational_coefficients_give_lambda():
    # Unexpanded rational coefficients frame by tb + p/q: the matrices are
    # Lambda, with Fractions only on those diagonal entries.
    a = SurgeryComponent(knot=unknot("A", tb=-2), contact_coefficient=Fraction(1, 2))
    b = SurgeryComponent(knot=unknot("B", tb=-3), contact_coefficient=Fraction(-7, 3))
    c = SurgeryComponent(knot=unknot("C", tb=-1), contact_coefficient=Fraction(-2))
    lam = [[Fraction(-3, 2), 2, 1], [2, Fraction(-16, 3), -1], [1, -1, -3]]
    assert presentation_matrix(
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(a, b, c),
            linking=((0, 2, 1), (2, 0, -1), (1, -1, 0)),
        )
    ) == SquareMatrix(lam)
    diagram = SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN,
        components=(a, b, c, SurgeryComponent(knot=unknot("L"))),
        linking=((0, 2, 1, 1), (2, 0, -1, 0), (1, -1, 0, 3), (1, 0, 3, 0)),
    )
    m, m0, link_vector = build_general_matrices(diagram, 3)
    assert m == SquareMatrix(lam)
    assert [type(entry) for entry in m.rows[2]] == [int, int, int]
    assert m0 == SquareMatrix(
        [[0, 1, 0, 3]] + [[v] + row for v, row in zip((1, 0, 3), lam)]
    )
    assert link_vector == (1, 0, 3)


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
