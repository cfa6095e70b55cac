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
    ParseError,
    SurgeryComponent,
    SurgeryDiagram,
    ValidationError,
    chain_diagram,
    dual_invariants,
    parse_diagram,
    serialize_diagram,
)
from surgerycalc.diagram import check_positive
from surgerycalc.selftest import _cofactor_det as cofactor_det
from surgerycalc.selftest import _det as det

from helpers import fraction_det, framed_matrices, json_text, random_diagram


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


def diagram_of(**fields):
    values = {
        "ambient": AmbientStatus.UNKNOWN,
        "components": (SurgeryComponent(knot=unknot()),),
        "linking": ((0,),),
    }
    return SurgeryDiagram(**{**values, **fields})


# Values each validating constructor rejects, with the error it raises:
# bools, floats and numeric strs are not ints, and a zero coefficient, an
# euler_char above 1 and an order that a denominator does not divide are
# out of range; a diagram needs an AmbientStatus and one linking entry per
# component in each row.
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
    (lambda: diagram_of(linking=((0, 0),)), ValidationError,
     "linking[0] has 2 entries, expected 1"),
    (lambda: diagram_of(ambient="tight"), ValidationError,
     "ambient must be an AmbientStatus, got 'tight'"),
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
    check_positive(n, "n")
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
    assert framed_matrices(s1xs2, "U") == ([[0]], [[0, -1], [-1, 0]], (-1,))


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


KNOT_OBJ = {"id": "A", "tb": -1, "rot": 0, "euler_char": 1}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "diagram document must be a JSON object"),
        ({"components": [], "linking": []}, "ambient: field missing"),
        ({"ambient": "tight", "components": {}, "linking": []},
         "components: expected a list"),
        ({"ambient": "tight", "components": [5], "linking": [[0]]},
         "components[0]: expected an object"),
        ({"ambient": "tight", "components": []}, "linking: expected a list of lists"),
        ({"ambient": "tight", "components": [KNOT_OBJ], "linking": [5]},
         "linking[0]: expected a list"),
    ],
)
def test_parse_rejects_bad_structure(obj, message):
    with pytest.raises(ParseError) as raised:
        parse_diagram(json.dumps(obj))
    assert str(raised.value) == message


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
