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

``chain_diagram(tb, rot, euler_char, n)`` realizes the (+1)-push-off
chain of contact (+1/n)-surgery, whose invariants the selftest checks
against their closed forms. What other modules share is public here
without joining ``__all__``: the checks ``check_positive``,
``check_unique_ids`` and ``warn_even_euler_char``, and ``diagram_obj``,
the JSON object of a diagram, which the CLI also writes for an
expansion.

Diagrams serialize to a small JSON document, written by
``json.dumps`` with sorted keys and an indent of 2; rationals travel
as "p/q" strings, never floats. ``parse_diagram(serialize_diagram(d))``
returns a diagram equal to ``d``. The data model ends here: the CLI
writes its reports, ``expansion`` lays out an expansion's linking
matrix in blocks, and ``invariants`` builds the linear system it
solves.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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


def check_positive(value: object, name: str) -> None:
    """Raise unless ``value``, the argument ``name``, is a positive int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def warn_even_euler_char(knot: LegendrianKnotData) -> None:
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
        check_unique_ids(self.components)
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


def check_unique_ids(components) -> None:
    """Raise ValidationError naming the first component id seen twice."""
    seen: set[str] = set()
    for component in components:
        if component.id in seen:
            raise ValidationError(f"duplicate component id {component.id!r}")
        seen.add(component.id)


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
    check_positive(n, "n")
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


# --------------------------------------------------------------------------
# JSON round trip


def diagram_to_obj(diagram: SurgeryDiagram) -> dict:
    return diagram_obj(
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


def diagram_obj(ambient: AmbientStatus, rows, linking) -> dict:
    """The JSON object of a diagram.

    ``rows`` gives each component as (id, tb, rot, euler_char,
    coefficient), the coefficient already formatted or None;
    ``linking`` (a list of rows or ``expansion.LinkingBlocks``) is kept
    as given.
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


def serialize_diagram(diagram: SurgeryDiagram) -> str:
    """Serialize to deterministic JSON (stable key order, trailing newline)."""
    return json.dumps(diagram_to_obj(diagram), indent=2, sort_keys=True) + "\n"


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
        warn_even_euler_char(knot)
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
