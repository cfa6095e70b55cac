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

The module also builds the linking matrices. One private builder
writes every framed matrix (framings tb_i + r_i on the diagonal,
linking numbers elsewhere). ``dual_system`` gives what the
rational-invariant computation runs on: the matrix ``M`` of the
surgered components and the unsurgered component's linking vector.
The bordered extension ``M0`` (corner 0, border that vector) is built
only for checks, by ``build_general_matrices`` and the chain builders.

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
from typing import Optional

from .exact import SquareMatrix, as_rational, format_rational

__all__ = [
    "AmbientStatus",
    "LegendrianKnotData",
    "MissingCoefficient",
    "ParseError",
    "PlusOneChainSpec",
    "SurgeryComponent",
    "SurgeryDiagram",
    "UnexpandedCoefficient",
    "ValidationError",
    "build_extended_matrix",
    "build_general_matrices",
    "build_linking_matrix",
    "chain_diagram",
    "diagram_from_obj",
    "diagram_to_obj",
    "dual_system",
    "load_diagram",
    "parity_lint",
    "parse_diagram",
    "presentation_matrix",
    "reverse_orientation",
    "serialize_diagram",
    "topological_coefficient",
]


class ValidationError(ValueError):
    """A diagram or one of its fields violates a structural invariant."""


class ParseError(ValueError):
    """A diagram document is malformed."""


class MissingCoefficient(ValueError):
    """An operation required a contact surgery coefficient that is absent."""


class UnexpandedCoefficient(ValueError):
    """A matrix construction met a non-integer contact coefficient.

    Rational coefficients must be expanded into (+-1)-surgeries first.
    """


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
        object.__setattr__(
            self, "linking", tuple(tuple(row) for row in self.linking)
        )
        if not isinstance(self.ambient, AmbientStatus):
            raise ValidationError(f"ambient must be an AmbientStatus, got {self.ambient!r}")
        ids = [component.id for component in self.components]
        seen: set[str] = set()
        for cid in ids:
            if cid in seen:
                raise ValidationError(f"duplicate component id {cid!r}")
            seen.add(cid)
        n = len(self.components)
        if len(self.linking) != n:
            raise ValidationError(
                f"linking has {len(self.linking)} rows, expected {n}"
            )
        for i, row in enumerate(self.linking):
            if len(row) != n:
                raise ValidationError(
                    f"linking[{i}] has {len(row)} entries, expected {n}"
                )
            for j, entry in enumerate(row):
                if isinstance(entry, bool) or not isinstance(entry, int):
                    raise ValidationError(
                        f"linking[{i}][{j}] must be an integer, got {entry!r}"
                    )
        for i in range(n):
            if self.linking[i][i] != 0:
                raise ValidationError(
                    f"linking[{i}][{i}] = {self.linking[i][i]} must be 0 "
                    "(framings are derived from tb + coefficient)"
                )
            for j in range(i):
                if self.linking[i][j] != self.linking[j][i]:
                    raise ValidationError(
                        f"linking[{i}][{j}] != linking[{j}][{i}]"
                    )

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(component.id for component in self.components)

    def component_index(self, component_id: str) -> int:
        for index, component in enumerate(self.components):
            if component.id == component_id:
                return index
        raise ValidationError(f"no component with id {component_id!r}")

    def component(self, component_id: str) -> SurgeryComponent:
        return self.components[self.component_index(component_id)]

    def linking_number(self, i: int, j: int) -> int:
        return self.linking[i][j]

    def surgered_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i, component in enumerate(self.components) if component.is_surgered
        )

    def unsurgered_indices(self) -> tuple[int, ...]:
        return tuple(
            i
            for i, component in enumerate(self.components)
            if not component.is_surgered
        )


def topological_coefficient(component: SurgeryComponent) -> Fraction:
    """Surgery coefficient against the Seifert framing: tb + contact coefficient."""
    if component.contact_coefficient is None:
        raise MissingCoefficient(
            f"component {component.id!r} carries no contact surgery coefficient"
        )
    return Fraction(component.knot.tb) + component.contact_coefficient


@dataclass(frozen=True)
class PlusOneChainSpec:
    """Contact (+1)-surgeries along ``n`` successive push-offs of one knot.

    This is the standard presentation of contact (+1/n)-surgery along
    a Legendrian knot with invariants (tb, rot, euler_char).
    """

    tb: int
    rot: int
    euler_char: int
    n: int

    def __post_init__(self) -> None:
        for name in ("tb", "rot", "euler_char", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n}")


def build_linking_matrix(spec: PlusOneChainSpec) -> SquareMatrix:
    """The n x n linking matrix of the (+1)-push-off chain.

    Diagonal entries are the topological framings tb + 1 of the
    surgered push-offs; off-diagonal entries are pairwise linking
    numbers, all equal to tb for push-offs along the contact framing.
    Its determinant is n*tb + 1.
    """
    return presentation_matrix(chain_diagram(spec, dual_id=None))


def build_extended_matrix(spec: PlusOneChainSpec) -> SquareMatrix:
    """The (n+1) x (n+1) bordered chain matrix.

    Corner entry 0, border entries tb (the linking of an extra
    push-off with each surgered one), lower-right block the chain
    linking matrix. Its determinant is -n*tb^2.
    """
    return build_general_matrices(chain_diagram(spec), spec.n)[1]


def chain_diagram(
    spec: PlusOneChainSpec, *, dual_id: Optional[str] = "dual"
) -> SurgeryDiagram:
    """Realize a (+1)-push-off chain as a surgery diagram.

    The diagram has ``n`` surgered push-offs L#1, ..., L#n and, when
    ``dual_id`` is given, one extra unsurgered push-off, last, whose
    surgery-dual invariants can then be computed. All pairwise linking
    numbers equal tb.
    """
    knots = [
        LegendrianKnotData(
            id=f"L#{i}", tb=spec.tb, rot=spec.rot, euler_char=spec.euler_char
        )
        for i in range(1, spec.n + 1)
    ]
    components = [
        SurgeryComponent(knot=knot, contact_coefficient=Fraction(1)) for knot in knots
    ]
    if dual_id is not None:
        components.append(
            SurgeryComponent(
                knot=LegendrianKnotData(
                    id=dual_id, tb=spec.tb, rot=spec.rot, euler_char=spec.euler_char
                )
            )
        )
    size = len(components)
    linking = tuple(
        tuple(0 if i == j else spec.tb for j in range(size)) for i in range(size)
    )
    return SurgeryDiagram(
        ambient=AmbientStatus.UNKNOWN, components=tuple(components), linking=linking
    )


def _integral_framing(component: SurgeryComponent) -> int:
    """Topological framing tb + r of an integer-surgered component."""
    topological = topological_coefficient(component)
    if topological.denominator != 1:
        raise UnexpandedCoefficient(
            f"component {component.id!r} has non-integer contact coefficient "
            f"{format_rational(component.contact_coefficient)}; expand the "
            "diagram into (+-1)-surgeries first"
        )
    return int(topological)


def _framed_matrix(diagram: SurgeryDiagram, indices) -> SquareMatrix:
    """Framed linking matrix of the components at ``indices``.

    Topological framings tb_i + r_i on the diagonal, linking numbers
    elsewhere; each of those components must carry an integer
    contact coefficient.
    """
    framings = {i: _integral_framing(diagram.components[i]) for i in indices}
    return SquareMatrix(
        tuple(
            tuple(
                framings[i] if i == j else diagram.linking_number(i, j)
                for j in indices
            )
            for i in indices
        )
    )


def presentation_matrix(diagram: SurgeryDiagram) -> SquareMatrix:
    """Linking matrix of a fully integer-surgered diagram.

    Topological framings tb_i + r_i on the diagonal, linking numbers
    elsewhere. Every component must be surgered.
    """
    return _framed_matrix(diagram, range(len(diagram.components)))


def dual_system(
    diagram: SurgeryDiagram, dual_index: int
) -> tuple[SquareMatrix, tuple[int, ...]]:
    """``M`` and the dual linking vector ``lk`` of a diagram.

    ``dual_index`` names the single unsurgered component; every other
    component must carry an integer contact coefficient. ``M`` is the
    framed linking matrix of those other components and ``lk`` holds
    their linking numbers with the dual component, in the same order.
    """
    n = len(diagram.components)
    if not 0 <= dual_index < n:
        raise ValidationError(f"dual index {dual_index} out of range")
    dual = diagram.components[dual_index]
    if dual.is_surgered:
        raise ValidationError(
            f"dual component {dual.id!r} must not carry a surgery coefficient"
        )
    others = [i for i in range(n) if i != dual_index]
    link_vector = tuple(diagram.linking_number(dual_index, i) for i in others)
    return _framed_matrix(diagram, others), link_vector


def build_general_matrices(
    diagram: SurgeryDiagram, dual_index: int
) -> tuple[SquareMatrix, SquareMatrix, tuple[int, ...]]:
    """``M``, bordered ``M0`` and the dual linking vector of a diagram.

    ``M`` and the vector are those of ``dual_system``; ``M0`` borders
    ``M`` with corner 0 and the vector. Only checks need ``M0``: the
    dual invariants themselves are computed from ``dual_system``.
    """
    m, link_vector = dual_system(diagram, dual_index)
    m0 = SquareMatrix(
        [(0,) + link_vector]
        + [(entry,) + row for entry, row in zip(link_vector, m.rows)]
    )
    return m, m0, link_vector


def reverse_orientation(diagram: SurgeryDiagram, component_id: str) -> SurgeryDiagram:
    """Reverse the orientation of one component.

    Its rotation number changes sign, as do its linking numbers with
    every other component; tb and euler_char are orientation
    independent.
    """
    index = diagram.component_index(component_id)
    components = list(diagram.components)
    old = components[index]
    components[index] = SurgeryComponent(
        knot=LegendrianKnotData(
            id=old.knot.id,
            tb=old.knot.tb,
            rot=-old.knot.rot,
            euler_char=old.knot.euler_char,
        ),
        contact_coefficient=old.contact_coefficient,
    )
    linking = [list(row) for row in diagram.linking]
    for j in range(len(components)):
        if j != index:
            linking[index][j] = -linking[index][j]
            linking[j][index] = -linking[j][index]
    return SurgeryDiagram(
        ambient=diagram.ambient,
        components=tuple(components),
        linking=tuple(tuple(row) for row in linking),
    )


def parity_lint(diagram: SurgeryDiagram) -> list[str]:
    """Optional sanity lint: tb + rot + euler_char is even for
    nullhomologous Legendrian knots.

    Returns one message per violating component; an empty list means
    no complaints. This is advisory, not a validation failure.
    """
    messages = []
    for component in diagram.components:
        knot = component.knot
        if (knot.tb + knot.rot + knot.euler_char) % 2 != 0:
            messages.append(
                f"component {knot.id!r}: tb + rot + euler_char = "
                f"{knot.tb + knot.rot + knot.euler_char} is odd"
            )
    return messages


# --------------------------------------------------------------------------
# JSON round trip


def diagram_to_obj(diagram: SurgeryDiagram) -> dict:
    return {
        "ambient": diagram.ambient.value,
        "components": [
            {
                "id": component.id,
                "tb": component.knot.tb,
                "rot": component.knot.rot,
                "euler_char": component.knot.euler_char,
                "contact_coefficient": (
                    None
                    if component.contact_coefficient is None
                    else format_rational(component.contact_coefficient)
                ),
            }
            for component in diagram.components
        ],
        "linking": [list(row) for row in diagram.linking],
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

    Raises ParseError for malformed documents (bad JSON, bad rational
    strings, wrong types) and ValidationError for structurally invalid
    diagrams (asymmetric linking, duplicate ids, ...). Unknown fields,
    such as a "comment", are ignored.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error}") from None
    return diagram_from_obj(obj)


def load_diagram(path) -> SurgeryDiagram:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_diagram(handle.read())
