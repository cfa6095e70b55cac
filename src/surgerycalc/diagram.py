"""Data model for Legendrian surgery diagrams.

A diagram records, for each oriented Legendrian component, its
classical invariants (Thurston-Bennequin number ``tb``, rotation
number ``rot``, Euler characteristic of a Seifert surface) together
with an optional contact surgery coefficient, plus the symmetric
matrix of pairwise linking numbers. A component without a coefficient
is not surgered; it is the knot whose image in the surgered manifold
gets interrogated downstream.

Topological framings are always derived as ``tb + coefficient``, so
the diagonal of the stored linking matrix is unused and must be zero.
This avoids carrying redundant, possibly inconsistent data.

The module also builds the one linear system the package solves: the
framed linking system of the components other than an unsurgered
dual, whose matrix Lambda has the framings tb_i + p_i/q_i on its
diagonal and linking numbers elsewhere (on an expanded diagram, the
integer linking matrix ``M``). It is built with its denominators
cleared: row i and its right-hand side are multiplied by q_i, so every
entry is an int and ``exact.solve_integral`` takes the rows as they
are. ``chain_diagram(tb, rot, euler_char, n)`` realizes the
(+1)-push-off chain of contact (+1/n)-surgery, whose invariants the
selftest checks against their closed forms.

Diagrams serialize to a small JSON document; rationals travel as
"p/q" strings, never floats. ``parse_diagram(serialize_diagram(d))``
returns a diagram equal to ``d``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from .exact import as_rational, format_rational

__all__ = [
    "AmbientStatus",
    "LegendrianKnotData",
    "MissingCoefficient",
    "ParseError",
    "SurgeryComponent",
    "SurgeryDiagram",
    "ValidationError",
    "chain_diagram",
    "diagram_from_obj",
    "diagram_to_obj",
    "json_text",
    "load_diagram",
    "parse_diagram",
    "serialize_diagram",
]


class ValidationError(ValueError):
    """A diagram or one of its fields violates a structural invariant."""


class ParseError(ValueError):
    """A diagram document is malformed."""


class MissingCoefficient(ValueError):
    """An operation required a contact surgery coefficient that is absent."""


class AmbientStatus(Enum):
    """Tightness status of the ambient contact manifold."""

    TIGHT = "tight"
    OVERTWISTED = "overtwisted"
    UNKNOWN = "unknown"

    @classmethod
    def from_text(cls, text: str) -> "AmbientStatus":
        try:
            return cls(text)
        except ValueError:
            raise ParseError(
                f"ambient: expected 'tight', 'overtwisted' or 'unknown', got {text!r}"
            ) from None


@dataclass(frozen=True)
class LegendrianKnotData:
    """Classical invariants of one oriented nullhomologous Legendrian knot.

    ``euler_char`` is the Euler characteristic of a minimal genus
    Seifert surface. A connected surface with one boundary circle has
    odd Euler characteristic at most 1; even values are accepted rather
    than rejected, since callers may feed data whose surface conventions
    we cannot certify. Construction has no side effects: the warning
    about an even value is issued where outside data enters, once per
    input knot (``diagram_from_obj`` and the CLI's single-knot mode).
    """

    id: str
    tb: int
    rot: int
    euler_char: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("knot id must be a non-empty string")
        for name in ("tb", "rot", "euler_char"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(
                    f"{self.id}.{name} must be an integer, got {value!r}"
                )
        if self.euler_char > 1:
            raise ValidationError(
                f"{self.id}.euler_char = {self.euler_char} exceeds 1, impossible "
                "for a surface with boundary"
            )


def _check_positive(value: object, name: str) -> None:
    """Raise unless ``value``, the argument ``name``, is a positive int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def _warn_even_euler_char(knot: LegendrianKnotData) -> None:
    """Warn, at the caller's line, when an input knot's euler_char is even."""
    if knot.euler_char % 2 == 0:
        warnings.warn(
            f"{knot.id}.euler_char = {knot.euler_char} is even; a connected "
            "Seifert surface with one boundary circle has odd Euler "
            "characteristic",
            stacklevel=2,
        )


@dataclass(frozen=True)
class SurgeryComponent:
    """A knot in a diagram plus an optional contact surgery coefficient.

    The coefficient is measured against the contact framing. ``None``
    means the component is not surgered.
    """

    knot: LegendrianKnotData
    contact_coefficient: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.contact_coefficient is not None:
            coefficient = as_rational(self.contact_coefficient)
            if coefficient == 0:
                raise ValidationError(
                    f"{self.knot.id}: contact coefficient 0 is not a surgery"
                )
            object.__setattr__(self, "contact_coefficient", coefficient)

    @property
    def id(self) -> str:
        return self.knot.id

    @property
    def is_surgered(self) -> bool:
        return self.contact_coefficient is not None


@dataclass(frozen=True)
class SurgeryDiagram:
    """An ordered family of components with pairwise linking numbers."""

    ambient: AmbientStatus
    components: tuple[SurgeryComponent, ...]
    linking: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "linking", tuple(map(tuple, self.linking)))
        if not isinstance(self.ambient, AmbientStatus):
            raise ValidationError(f"ambient must be an AmbientStatus, got {self.ambient!r}")
        _check_unique_ids(self.components)
        n = len(self.components)
        linking = self.linking
        if len(linking) != n:
            raise ValidationError(f"linking has {len(linking)} rows, expected {n}")
        for i, row in enumerate(linking):
            if len(row) != n:
                raise ValidationError(
                    f"linking[{i}] has {len(row)} entries, expected {n}"
                )
            if set(map(type, row)) <= {int}:
                continue
            for j, entry in enumerate(row):
                if isinstance(entry, bool) or not isinstance(entry, int):
                    raise ValidationError(
                        f"linking[{i}][{j}] must be an integer, got {entry!r}"
                    )
        if any(row[i] for i, row in enumerate(linking)) or linking != tuple(
            zip(*linking)
        ):
            # Name the first entry, in row order, that breaks the zero
            # diagonal or the symmetry.
            for i in range(n):
                if linking[i][i] != 0:
                    raise ValidationError(
                        f"linking[{i}][{i}] = {linking[i][i]} must be 0 "
                        "(framings are derived from tb + coefficient)"
                    )
                for j in range(i):
                    if linking[i][j] != linking[j][i]:
                        raise ValidationError(
                            f"linking[{i}][{j}] != linking[{j}][{i}]"
                        )

    def component_index(self, component_id: str) -> int:
        for index, component in enumerate(self.components):
            if component.id == component_id:
                return index
        raise ValidationError(f"no component with id {component_id!r}")

    def component(self, component_id: str) -> SurgeryComponent:
        return self.components[self.component_index(component_id)]


def _check_unique_ids(components) -> None:
    """Raise ValidationError naming the first component id seen twice."""
    seen: set[str] = set()
    for component in components:
        if component.id in seen:
            raise ValidationError(f"duplicate component id {component.id!r}")
        seen.add(component.id)


@dataclass(frozen=True)
class LinkingBlocks:
    """A linking matrix of curves in consecutive groups, as per-group blocks.

    ``tbs[g]`` holds the tbs of group g's curves in order, and
    ``source[g][h]`` (g != h) links every curve of group g with every
    curve of group h; within a group a later curve links an earlier one
    by the earlier curve's tb. So the row of curve i of group g, which
    has L curves, is ``source[g][h]`` repeated len(tbs[h]) times for
    each h < g, the tbs of the curves before i, 0, ``tbs[g][i]``
    repeated L - i - 1 times, and ``source[g][h]`` repeated len(tbs[h])
    times for each h > g.

    Entries are ints, the diagonal is 0 and ``source`` is symmetric, by
    construction from validated knots and diagrams.
    """

    tbs: tuple[tuple[int, ...], ...]
    source: tuple[tuple[int, ...], ...]

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The linking matrix as a tuple of int tuples."""
        rows = []
        for g, tbs in enumerate(self.tbs):
            blocks = [
                (entry,) * len(self.tbs[h]) for h, entry in enumerate(self.source[g])
            ]
            left = sum(blocks[:g], ())
            right = sum(blocks[g + 1 :], ())
            for i, tb in enumerate(tbs):
                rows.append(left + tbs[:i] + (0,) + (tb,) * (len(tbs) - i - 1) + right)
        return tuple(rows)

    def row_texts(self, sep: str, opener: str, closer: str):
        """Each row's entries joined by ``sep``, between ``opener`` and ``closer``.

        One str per block and per curve, and none per entry: a block is
        one string repeated.
        """
        for g, tbs in enumerate(self.tbs):
            row = self.source[g]
            left = "".join([(str(row[h]) + sep) * len(self.tbs[h]) for h in range(g)])
            right = "".join(
                [(sep + str(row[h])) * len(self.tbs[h])
                 for h in range(g + 1, len(self.tbs))]
            )
            pieces = [str(tb) + sep for tb in tbs]
            earlier = "".join(pieces)
            offset = 0
            for i, tb in enumerate(tbs):
                yield "".join(
                    (opener, left, earlier[:offset], "0",
                     (sep + str(tb)) * (len(tbs) - i - 1), right, closer)
                )
                offset += len(pieces[i])


def chain_diagram(tb: int, rot: int, euler_char: int, n: int) -> SurgeryDiagram:
    """Contact (+1)-surgeries along ``n`` successive push-offs of one knot.

    This is the standard presentation of contact (+1/n)-surgery along
    a Legendrian knot with invariants (tb, rot, euler_char). The
    diagram has ``n`` surgered push-offs L#1, ..., L#n and one extra
    unsurgered push-off "dual", last, whose surgery-dual invariants
    can then be computed. All pairwise linking numbers equal tb, so
    the chain's framed linking matrix M has tb + 1 on its diagonal
    (det n*tb + 1), and bordered with the dual's linking numbers and
    corner 0 it has det -n*tb^2.

    The arguments are checked once, with the errors the validating
    constructors raise, in their order: n, then tb, rot and euler_char
    as one knot's. The n + 1 knots, their components and the diagram
    are then built without re-validation, which is sound because they
    come from these checked numbers and from no parsed input.
    """
    _check_positive(n, "n")
    LegendrianKnotData(id="L#1", tb=tb, rot=rot, euler_char=euler_char)
    plus_one = Fraction(1)
    coefficients = {f"L#{i}": plus_one for i in range(1, n + 1)}
    coefficients["dual"] = None
    components = tuple(
        _prebuilt(
            SurgeryComponent,
            knot=_prebuilt(
                LegendrianKnotData, id=knot_id, tb=tb, rot=rot, euler_char=euler_char
            ),
            contact_coefficient=coefficient,
        )
        for knot_id, coefficient in coefficients.items()
    )
    size = len(components)
    row = (tb,) * size
    linking = tuple(row[:i] + (0,) + row[i + 1 :] for i in range(size))
    return _prebuilt(
        SurgeryDiagram,
        ambient=AmbientStatus.UNKNOWN,
        components=components,
        linking=linking,
    )


def _prebuilt(cls, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` as given.

    ``__post_init__`` does not run, so nothing is checked or normalized:
    only ``chain_diagram`` calls this, on values it has checked itself.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _framed_matrix(diagram: SurgeryDiagram, indices, rhs) -> list[list[int]]:
    """Rows q_i (Lambda_i | rhs_i) of the framed linking system of the
    components at ``indices``, rhs in the same order.

    Lambda has tb_i + p_i/q_i on the diagonal and linking numbers
    elsewhere. Row i and its right-hand side are multiplied by the
    denominator q_i of its coefficient, which leaves the solution
    Lambda^-1 rhs as it is: every entry is an int, q_i tb_i + p_i on the
    diagonal, q_i lk_ij off it and q_i rhs_i last. MissingCoefficient
    for the first unsurgered component.
    """
    components, linking = diagram.components, diagram.linking
    rows = []
    for position, i in enumerate(indices):
        component = components[i]
        r = component.contact_coefficient
        if r is None:
            raise MissingCoefficient(
                f"component {component.id!r} carries no contact surgery coefficient"
            )
        q = r.denominator
        row = [*map(linking[i].__getitem__, indices), rhs[position]]
        if q != 1:
            row = [q * entry for entry in row]
        row[position] = q * component.knot.tb + r.numerator
        rows.append(row)
    return rows


def _dual_links(
    diagram: SurgeryDiagram, dual_index: int
) -> tuple[list[int], tuple[int, ...]]:
    """Indices of the components other than the dual, and their links with it.

    ``dual_index`` must name an unsurgered component.
    """
    n = len(diagram.components)
    if not 0 <= dual_index < n:
        raise ValidationError(f"dual index {dual_index} out of range")
    dual = diagram.components[dual_index]
    if dual.is_surgered:
        raise ValidationError(
            f"dual component {dual.id!r} must not carry a surgery coefficient"
        )
    row = diagram.linking[dual_index]
    others = [*range(dual_index), *range(dual_index + 1, n)]
    return others, row[:dual_index] + row[dual_index + 1 :]


# --------------------------------------------------------------------------
# JSON round trip


def diagram_to_obj(diagram: SurgeryDiagram) -> dict:
    return _diagram_obj(
        diagram.ambient,
        (
            (
                component.id,
                component.knot.tb,
                component.knot.rot,
                component.knot.euler_char,
                None
                if component.contact_coefficient is None
                else format_rational(component.contact_coefficient),
            )
            for component in diagram.components
        ),
        [list(row) for row in diagram.linking],
    )


def _diagram_obj(ambient: AmbientStatus, rows, linking) -> dict:
    """The JSON object of a diagram.

    ``rows`` gives each component as (id, tb, rot, euler_char,
    coefficient), the coefficient already formatted or None;
    ``linking`` (a list of rows or ``LinkingBlocks``) is kept as given.
    """
    return {
        "ambient": ambient.value,
        "components": [
            {
                "id": component_id,
                "tb": tb,
                "rot": rot,
                "euler_char": euler_char,
                "contact_coefficient": coefficient,
            }
            for component_id, tb, rot, euler_char, coefficient in rows
        ],
        "linking": linking,
    }


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The join of ``_json_pieces(obj)``, which the CLI writes piece by
    piece instead.
    """
    return "".join(_json_pieces(obj))


def _json_pieces(obj):
    """The text of ``json_text(obj)`` as a stream of pieces, in order.

    Dict keys must be strs (a report's always are; any other key raises
    TypeError). CPython's C encoder is used only without ``indent``, so
    this writes dicts and lists/tuples itself. An expansion's text is
    megabytes and grows as the square of its curves, so it is never
    held whole: the largest piece is one linking row. Three shapes keep
    their work at C level:

    * a list of plain ints (bools excluded), written with one
      ``str.join``;
    * ``LinkingBlocks``, written as the list of its rows, one piece per
      row, each from its blocks (``LinkingBlocks.row_texts``);
    * a list of records, that is of dicts sharing one non-empty key
      set: one %-template for the whole list, filled once per record
      with its values' texts, a column at a time.

    Plain strs and ints, None and bools are written the way the encoder
    writes them, and empty containers as ``[]`` and ``{}``; every other
    scalar goes through ``json.dumps``.
    """
    yield from _json_chunks(obj, "\n")
    yield "\n"


#: The scalars written the way the encoder writes them, by exact type
#: (an int or str subclass goes through ``json.dumps``).
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_chunks(obj, newline: str):
    """The pieces of ``obj`` written at the indent ``newline`` ends in."""
    write = _SCALAR_TEXT.get(type(obj))
    if write is not None:
        yield write(obj)
        return
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        opener = "{"
        for key, value in sorted(obj.items()):
            head = opener + inner + encode_basestring_ascii(key) + ": "
            write = _SCALAR_TEXT.get(type(value))
            if write is not None:  # one piece with its key
                yield head + write(value)
            else:
                yield head
                yield from _json_chunks(value, inner)
            opener = ","
        yield newline + "}"
    elif type(obj) is LinkingBlocks:
        # each row is one piece, its list separator in front; the first
        # row's separator becomes the list's "["
        deeper = inner + "  "
        rows = obj.row_texts("," + deeper, "," + inner + "[" + deeper, inner + "]")
        first = next(rows, None)
        if first is None:
            yield "[]"
            return
        yield "[" + first[1:]
        yield from rows
        yield newline + "]"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        kinds = set(map(type, obj))
        if kinds == {int}:
            text = {value: str(value) for value in set(obj)}
            yield "[" + inner
            yield ("," + inner).join(map(text.__getitem__, obj))
            yield newline + "]"
            return
        if kinds == {dict} and obj[0]:
            keys = obj[0].keys()
            if all(map(keys.__eq__, map(dict.keys, obj))):
                yield "[" + inner
                yield _records_text(obj, sorted(keys), inner)
                yield newline + "]"
                return
        opener = "["
        for value in obj:
            yield opener + inner
            yield from _json_chunks(value, inner)
            opener = ","
        yield newline + "]"
    else:
        yield json.dumps(obj)


def _records_text(records, names: list[str], newline: str) -> str:
    """Dicts with the keys ``names`` (sorted), each written at the indent
    ``newline`` ends in, joined by the list separator."""
    inner = newline + "  "
    template = (
        "{"
        + inner
        + ("," + inner).join(
            encode_basestring_ascii(name).replace("%", "%%") + ": %s"
            for name in names
        )
        + newline
        + "}"
    )
    columns = [
        _column_texts(list(map(itemgetter(name), records)), inner) for name in names
    ]
    return ("," + newline).join([template % row for row in zip(*columns)])


def _column_texts(values: list, newline: str) -> list[str]:
    """The text of each value, written at the indent ``newline`` ends in:
    a column of one scalar type at C speed, any other one value by value."""
    kinds = set(map(type, values))
    write = _SCALAR_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
    if write is not None:
        return list(map(write, values))
    return ["".join(_json_chunks(value, newline)) for value in values]


def serialize_diagram(diagram: SurgeryDiagram) -> str:
    """Serialize to deterministic JSON (stable key order, trailing newline)."""
    return json_text(diagram_to_obj(diagram))


def _require_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def diagram_from_obj(obj: object) -> SurgeryDiagram:
    if not isinstance(obj, dict):
        raise ParseError("diagram document must be a JSON object")
    if "ambient" not in obj:
        raise ParseError("ambient: field missing")
    ambient_text = obj["ambient"]
    if not isinstance(ambient_text, str):
        raise ParseError(f"ambient: expected a string, got {ambient_text!r}")
    ambient = AmbientStatus.from_text(ambient_text)

    raw_components = obj.get("components")
    if not isinstance(raw_components, list):
        raise ParseError("components: expected a list")
    components = []
    for k, raw in enumerate(raw_components):
        where = f"components[{k}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        for key in ("id", "tb", "rot", "euler_char"):
            if key not in raw:
                raise ParseError(f"{where}.{key}: field missing")
        if not isinstance(raw["id"], str):
            raise ParseError(f"{where}.id: expected a string, got {raw['id']!r}")
        coefficient = None
        raw_coefficient = raw.get("contact_coefficient")
        if raw_coefficient is not None:
            if isinstance(raw_coefficient, bool) or not isinstance(
                raw_coefficient, (str, int)
            ):
                raise ParseError(
                    f"{where}.contact_coefficient: expected a 'p/q' string, "
                    f"an integer or null, got {raw_coefficient!r}"
                )
            try:
                coefficient = as_rational(raw_coefficient)
            except ValueError as error:
                raise ParseError(
                    f"{where}.contact_coefficient: {error}"
                ) from None
        knot = LegendrianKnotData(
            id=raw["id"],
            tb=_require_int(raw["tb"], f"{where}.tb"),
            rot=_require_int(raw["rot"], f"{where}.rot"),
            euler_char=_require_int(raw["euler_char"], f"{where}.euler_char"),
        )
        _warn_even_euler_char(knot)
        components.append(
            SurgeryComponent(knot=knot, contact_coefficient=coefficient)
        )

    raw_linking = obj.get("linking")
    if not isinstance(raw_linking, list):
        raise ParseError("linking: expected a list of lists")
    linking = []
    for i, raw_row in enumerate(raw_linking):
        if not isinstance(raw_row, list):
            raise ParseError(f"linking[{i}]: expected a list")
        linking.append(
            tuple(
                _require_int(entry, f"linking[{i}][{j}]")
                for j, entry in enumerate(raw_row)
            )
        )
    return SurgeryDiagram(
        ambient=ambient, components=tuple(components), linking=tuple(linking)
    )


def parse_diagram(text: str) -> SurgeryDiagram:
    """Parse a JSON diagram document.

    Raises ParseError for malformed documents (bad JSON, integers
    beyond CPython's int-string digit limit, nesting too deep for the
    decoder, bad rational strings, wrong types) and ValidationError
    for structurally invalid diagrams (asymmetric linking, duplicate
    ids, ...). Unknown fields, such as a "comment", are ignored.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error}") from None
    except ValueError as error:
        # an integer beyond CPython's limit on int-string conversion,
        # which is kept: it guards against quadratic time; the message
        # is cut before its advice to raise the limit
        raise ParseError(f"invalid JSON: {str(error).split(';')[0]}") from None
    return diagram_from_obj(obj)


def load_diagram(path) -> SurgeryDiagram:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise ParseError(f"invalid UTF-8: {error}") from None
    return parse_diagram(text)
