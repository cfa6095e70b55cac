"""Built-in verification grids.

Runs the package's core identities end to end on exact arithmetic:
determinant closed forms for the push-off chain matrices (through the
package's elimination kernel, and against an independent cofactor
oracle), agreement of the (+1/n) closed forms with ``dual_invariants``
(the path every command runs) on the chain diagrams, the Bennequin
bound chain with its strictness boundary, the bundled counterexample
reproduction, continued-fraction round trips and the degenerate
non-nullhomologous case.

Each check is a named sequence of rows ``(case, got, expected)``, and
one runner, ``_run``, compares them: the first row whose ``got`` differs
from its ``expected`` raises SelfTestFailure naming the check and the
case, and the rows compared are the check's cases. A row that asserts
several facts of one case compares tuples. The three determinant checks
share one pass over the chain grid (tb, n), which builds each chain
diagram and its M and M0 once. The run is pure, so repeated executions
produce identical results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .classify import (
    CONWAY_FLAG,
    Conclusion,
    bennequin_check,
    classify_diagram,
    classify_thm1,
)
from .data import load as load_bundled
from .diagram import (
    AmbientStatus,
    LegendrianKnotData,
    chain_diagram,
    parse_diagram,
    SurgeryComponent,
    SurgeryDiagram,
    serialize_diagram,
)
from .exact import RationalLike, SingularMatrix, solve_integral
from .expansion import (
    evaluate_negative_continued_fraction,
    expand_diagram,
    negative_continued_fraction,
    stabilization_counts,
)
from .invariants import (
    NonNullhomologousDual,
    dual_invariants,
    dual_invariants_closed_form,
)

__all__ = ["SelfTestFailure", "run_checks"]


class SelfTestFailure(Exception):
    """A built-in identity check failed; the message names the identity."""


def _cofactor_det(rows: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Independent determinant oracle: Laplace expansion along rows.

    Deliberately naive so that it shares no code path with the
    elimination kernel it checks; the tests use it as their oracle too.
    The minor left after expanding the first rows depends only on the
    columns that remain, so each is expanded once (2^n minors instead
    of n! products). Entries are ints or Fractions; the minors of an
    int matrix are accumulated in ints, and the result is always a
    Fraction.
    """
    n = len(rows)
    minors: dict[tuple[int, ...], int | Fraction] = {(): 1}

    def minor(columns: tuple[int, ...]) -> int | Fraction:
        if columns not in minors:
            row = rows[n - len(columns)]
            total = 0
            for position, j in enumerate(columns):
                if row[j] == 0:
                    continue
                rest = columns[:position] + columns[position + 1 :]
                term = row[j] * minor(rest)
                total += term if position % 2 == 0 else -term
            minors[columns] = total
        return minors[columns]

    return Fraction(minor(tuple(range(n))))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix by the package's elimination
    kernel: the d of ``solve_integral`` on the rows and a zero column, 0
    when it is singular. The 0 x 0 matrix has determinant 1."""
    try:
        return solve_integral([[*row, 0] for row in rows])[1]
    except SingularMatrix:
        return 0


def _bordered(diagram: SurgeryDiagram, dual: str) -> tuple[list, list]:
    """``M`` and the bordered ``M0`` of a diagram whose surgery
    coefficients are all integers, read off the diagram's fields.

    ``M`` is the framed linking matrix of the components other than the
    unsurgered ``dual``: tb + coefficient on the diagonal and linking
    numbers elsewhere. ``M0`` borders it with corner 0 and their linking
    numbers with the dual. Nothing here is shared with the system that
    ``dual_invariants`` builds.
    """
    index = diagram.component_index(dual)
    others = [i for i in range(len(diagram.components)) if i != index]
    link_vector = [diagram.linking[index][i] for i in others]
    m = []
    for i in others:
        row = [diagram.linking[i][j] for j in others]
        component = diagram.components[i]
        row[len(m)] = component.knot.tb + component.contact_coefficient.numerator
        m.append(row)
    return m, [[0, *link_vector]] + [[v, *row] for v, row in zip(link_vector, m)]


def _run(name: str, rows: Iterable[tuple[str, object, object]]) -> dict:
    """Compare each row ``(case, got, expected)``; the first row whose
    ``got != expected`` raises SelfTestFailure naming the check and the
    case. The rows compared are the check's cases."""
    cases = 0
    for case, got, expected in rows:
        if got != expected:
            raise SelfTestFailure(f"{name}: {case}: got {got}, expected {expected}")
        cases += 1
    return {"name": name, "cases": cases}


def _chain_rows() -> tuple[list, list, list]:
    """The rows of det(M), det(M0) and the cofactor cross-check (n <= 6)
    from one pass over tb in -10..-1, n in 1..10: each chain diagram and
    its ``_bordered`` pair are built once, and the cross-check compares
    the oracle with the same ``_det`` values the grids compare."""
    det_m, det_m0, cofactor = [], [], []
    for tb in range(-10, 0):
        for n in range(1, 11):
            case = f"tb={tb}, n={n}"
            pair = _bordered(chain_diagram(tb, 0, 1, n), "dual")
            dets = [_det(rows) for rows in pair]
            det_m.append((case, dets[0], n * tb + 1))
            det_m0.append((case, dets[1], -n * tb * tb))
            if n <= 6:
                cofactor += [
                    (f"{case}, dim={len(rows)}", value, _cofactor_det(rows))
                    for rows, value in zip(pair, dets)
                ]
    return det_m, det_m0, cofactor


def _closed_form_rows():
    for tb in range(-10, 0):
        for n in range(1, 9):
            if n * tb + 1 == 0:
                continue
            for rot in range(-10, 11):
                yield (
                    f"tb={tb}, rot={rot}, n={n}",
                    dual_invariants(chain_diagram(tb, rot, 1, n), "dual"),
                    dual_invariants_closed_form(tb, rot, 1, n),
                )


def _bennequin_rows():
    for euler_char in (-1, -3, -5):
        for tb in range(-6, 0):
            for n in range(1, 7):
                if n * tb + 1 == 0:
                    continue
                order = abs(n * tb + 1)
                # Realizable rotation numbers: rot > -euler_char together
                # with the classical bound tb + rot <= -euler_char. Each
                # violates the bound through the chain lhs >= mid > rhs.
                for rot in range(-euler_char + 1, -euler_char - tb + 1):
                    invariants = dual_invariants_closed_form(tb, rot, euler_char, n)
                    report = bennequin_check(invariants)
                    mid = Fraction(euler_char + 2 * rot, order)
                    yield (
                        f"tb={tb}, rot={rot}, chi={euler_char}, n={n}: "
                        "(satisfied, lhs >= mid > rhs)",
                        (report.satisfied, report.lhs >= mid > report.rhs),
                        (False, True),
                    )
                # Boundary rot = -euler_char: the chain endpoints collapse and
                # no violation is certified by it.
                boundary = -euler_char
                knot_data = LegendrianKnotData(
                    id="b", tb=tb, rot=boundary, euler_char=euler_char
                )
                verdict = classify_thm1(AmbientStatus.TIGHT, knot_data, n)
                yield (
                    f"tb={tb}, rot={boundary}, chi={euler_char}, n={n}: "
                    "(boundary mid, conclusion)",
                    (Fraction(euler_char + 2 * boundary, order), verdict.conclusion),
                    (Fraction(-euler_char, order), Conclusion.INCONCLUSIVE),
                )


def _counterexample_rows():
    diagram = load_bundled("figure1.json")
    m, m0 = _bordered(diagram, "L")
    yield "det(M)", _det(m), -1
    yield "det(M0)", _det(m0), 2
    yield "tb_q", dual_invariants(diagram, "L").tb_q, -3
    verdicts = classify_diagram(diagram, {"L": True}, p=2, q=1)
    flagged = any(
        v.conclusion is Conclusion.TIGHT and any(CONWAY_FLAG in line for line in v.trace)
        for v in verdicts
    )
    yield "a tight verdict flagged as a conway counterexample", flagged, True


def _expansion_rows():
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            r = Fraction(-p, q)
            digits = negative_continued_fraction(r)
            normal = digits[0] <= -1 and all(a <= -2 for a in digits[1:])
            yield (
                f"r={r}, digits {digits}: (normal form, value)",
                (normal, evaluate_negative_continued_fraction(digits)),
                (True, r),
            )
    knot = LegendrianKnotData(id="b", tb=-2, rot=1, euler_char=-1)
    presentation = expand_diagram(
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(SurgeryComponent(knot, contact_coefficient=Fraction(5, 2)),),
            linking=((0,),),
        )
    )
    coefficients = tuple(curve.coefficient for curve in presentation.records)
    yield "+5/2 expansion coefficients", coefficients, (1, -1, -1)
    digits = negative_continued_fraction(Fraction(-5, 3))
    yield (
        "-5/3: (digits, stabilization counts)",
        (digits, stabilization_counts(digits)),
        ((-2, -3), (1, 1)),
    )


def _degenerate_rows():
    try:
        got = dual_invariants(load_bundled("s1xs2.json"), "U")
    except NonNullhomologousDual:
        got = "NonNullhomologousDual"
    yield "s1xs2.json, dual U", got, "NonNullhomologousDual"


def _serialization_rows():
    for bundled in ("figure1.json", "s1xs2.json"):
        diagram = load_bundled(bundled)
        yield bundled, parse_diagram(serialize_diagram(diagram)), diagram


def run_checks() -> list[dict]:
    """Run all checks in order; raise SelfTestFailure on the first mismatch."""
    det_m, det_m0, cofactor = _chain_rows()
    return [
        _run("det(M) = n*tb+1 grid", det_m),
        _run("det(M0) = -n*tb^2 grid", det_m0),
        _run("cofactor oracle cross-check (n <= 6)", cofactor),
        _run("closed-form vs matrix-path dual invariants", _closed_form_rows()),
        _run("Bennequin bound chain and strictness boundary", _bennequin_rows()),
        _run("bundled counterexample reproduction (tb = -3)", _counterexample_rows()),
        _run("negative continued fraction round trip (p, q <= 40)", _expansion_rows()),
        _run("degenerate dual (det M = 0)", _degenerate_rows()),
        _run("diagram serialization round trip", _serialization_rows()),
    ]
