"""Built-in verification grids.

Runs the package's core identities end to end on exact arithmetic:
determinant closed forms for the push-off chain matrices, agreement of
the (+1/n) closed forms with ``dual_invariants`` (the path every
command runs) on the chain diagrams, the Bennequin bound
chain with its strictness boundary, the bundled counterexample
reproduction, continued-fraction round trips and the degenerate
non-nullhomologous case. Any mismatch raises SelfTestFailure naming
the first failed identity. The run is pure, so repeated executions
produce identical results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from . import exact
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
    build_general_matrices,
    chain_diagram,
    parse_diagram,
    SurgeryComponent,
    SurgeryDiagram,
    presentation_matrix,
    serialize_diagram,
)
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


def _fail(name: str, detail: str) -> None:
    raise SelfTestFailure(f"{name}: {detail}")


def _cofactor_det(rows: Sequence[Sequence[exact.RationalLike]]) -> Fraction:
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


def _check_det_chain_grid() -> dict:
    name = "det(M) = n*tb+1 grid"
    cases = 0
    for tb in range(-10, 0):
        for n in range(1, 11):
            chain = chain_diagram(tb, 0, 1, n, dual_id=None)
            value = exact.det(presentation_matrix(chain))
            if value != n * tb + 1:
                _fail(name, f"tb={tb}, n={n}: det={value}, expected {n * tb + 1}")
            cases += 1
    return {"name": name, "cases": cases}


def _check_det_extended_grid() -> dict:
    name = "det(M0) = -n*tb^2 grid"
    cases = 0
    for tb in range(-10, 0):
        for n in range(1, 11):
            value = exact.det(build_general_matrices(chain_diagram(tb, 0, 1, n), n)[1])
            if value != -n * tb * tb:
                _fail(name, f"tb={tb}, n={n}: det={value}, expected {-n * tb * tb}")
            cases += 1
    return {"name": name, "cases": cases}


def _check_cofactor_cross() -> dict:
    name = "cofactor oracle cross-check (n <= 6)"
    cases = 0
    for tb in range(-10, 0):
        for n in range(1, 7):
            for matrix in (
                presentation_matrix(chain_diagram(tb, 0, 1, n, dual_id=None)),
                build_general_matrices(chain_diagram(tb, 0, 1, n), n)[1],
            ):
                bareiss = exact.det(matrix)
                oracle = _cofactor_det(matrix.rows)
                if bareiss != oracle:
                    _fail(
                        name,
                        f"tb={tb}, n={n}, dim={matrix.dimension}: "
                        f"bareiss={bareiss}, cofactor={oracle}",
                    )
                cases += 1
    return {"name": name, "cases": cases}


def _check_closed_matrix_agreement() -> dict:
    name = "closed-form vs matrix-path dual invariants"
    cases = 0
    for tb in range(-10, 0):
        for n in range(1, 9):
            if n * tb + 1 == 0:
                continue
            for rot in range(-10, 11):
                via_matrix = dual_invariants(chain_diagram(tb, rot, 1, n), "dual")
                closed = dual_invariants_closed_form(tb, rot, 1, n)
                if via_matrix != closed:
                    _fail(
                        name,
                        f"tb={tb}, rot={rot}, n={n}: matrix path {via_matrix}, "
                        f"closed form {closed}",
                    )
                cases += 1
    return {"name": name, "cases": cases}


def _check_bennequin_chain() -> dict:
    name = "Bennequin bound chain and strictness boundary"
    cases = 0
    for euler_char in (-1, -3, -5):
        for tb in range(-6, 0):
            for n in range(1, 7):
                if n * tb + 1 == 0:
                    continue
                order = abs(n * tb + 1)
                # Realizable rotation numbers: rot > -euler_char together
                # with the classical bound tb + rot <= -euler_char.
                for rot in range(-euler_char + 1, -euler_char - tb + 1):
                    invariants = dual_invariants_closed_form(tb, rot, euler_char, n)
                    report = bennequin_check(invariants)
                    mid = Fraction(euler_char + 2 * rot, order)
                    if report.satisfied:
                        _fail(
                            name,
                            f"tb={tb}, rot={rot}, chi={euler_char}, n={n}: "
                            "expected a violation",
                        )
                    if not (report.lhs >= mid > report.rhs):
                        _fail(
                            name,
                            f"tb={tb}, rot={rot}, chi={euler_char}, n={n}: chain "
                            f"{report.lhs} >= {mid} > {report.rhs} broken",
                        )
                    cases += 1
                # Boundary rot = -euler_char: the chain endpoints collapse and
                # no violation is certified by it.
                boundary = -euler_char
                mid = Fraction(euler_char + 2 * boundary, order)
                rhs = Fraction(-euler_char, order)
                if mid != rhs:
                    _fail(
                        name,
                        f"tb={tb}, chi={euler_char}, n={n}: boundary chain "
                        f"endpoints {mid} != {rhs}",
                    )
                knot_data = LegendrianKnotData(
                    id="b", tb=tb, rot=boundary, euler_char=euler_char
                )
                verdict = classify_thm1(AmbientStatus.TIGHT, knot_data, n)
                if verdict.conclusion is not Conclusion.INCONCLUSIVE:
                    _fail(
                        name,
                        f"tb={tb}, rot={boundary}, chi={euler_char}, n={n}: "
                        "boundary must be inconclusive",
                    )
                cases += 1
    return {"name": name, "cases": cases}


def _check_counterexample_diagram() -> dict:
    name = "bundled counterexample reproduction (tb = -3)"
    diagram = load_bundled("figure1.json")
    dual_index = diagram.component_index("L")
    m, m0, _ = build_general_matrices(diagram, dual_index)
    det_m = exact.det(m)
    det_m0 = exact.det(m0)
    if det_m != -1 or det_m0 != 2:
        _fail(name, f"det(M)={det_m} (expected -1), det(M0)={det_m0} (expected 2)")
    invariants = dual_invariants(diagram, "L")
    if invariants.tb_q != -3:
        _fail(name, f"tb_q={invariants.tb_q}, expected -3")
    verdicts = classify_diagram(diagram, {"L": True}, p=2, q=1)
    flagged = [
        v
        for v in verdicts
        if v.conclusion is Conclusion.TIGHT
        and any(CONWAY_FLAG in line for line in v.trace)
    ]
    if not flagged:
        _fail(name, "expected a tight verdict flagged as a conway counterexample")
    return {"name": name, "cases": 4}


def _check_expansion_roundtrip() -> dict:
    name = "negative continued fraction round trip (p, q <= 40)"
    cases = 0
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            r = Fraction(-p, q)
            digits = negative_continued_fraction(r)
            if digits[0] > -1 or any(a > -2 for a in digits[1:]):
                _fail(name, f"r={r}: digits {digits} break the normal form")
            if evaluate_negative_continued_fraction(digits) != r:
                _fail(name, f"r={r}: digits {digits} do not evaluate back")
            cases += 1
    knot = LegendrianKnotData(id="b", tb=-2, rot=1, euler_char=-1)
    presentation = expand_diagram(
        SurgeryDiagram(
            ambient=AmbientStatus.UNKNOWN,
            components=(SurgeryComponent(knot, contact_coefficient=Fraction(5, 2)),),
            linking=((0,),),
        )
    )
    coefficients = tuple(curve.coefficient for _, _, curve in presentation.records)
    if coefficients != (1, -1, -1):
        _fail(name, f"+5/2 expansion coefficients {coefficients}")
    digits = negative_continued_fraction(Fraction(-5, 3))
    if digits != (-2, -3):
        _fail(name, f"-5/3 digits {digits}, expected (-2, -3)")
    if stabilization_counts(digits) != (1, 1):
        _fail(name, f"-5/3 stabilization counts {stabilization_counts(digits)}")
    return {"name": name, "cases": cases + 2}


def _check_degenerate_dual() -> dict:
    name = "degenerate dual (det M = 0)"
    diagram = load_bundled("s1xs2.json")
    try:
        dual_invariants(diagram, "U")
    except NonNullhomologousDual:
        return {"name": name, "cases": 1}
    _fail(name, "expected NonNullhomologousDual")
    raise AssertionError("unreachable")


def _check_serialization_roundtrip() -> dict:
    name = "diagram serialization round trip"
    cases = 0
    for bundled in ("figure1.json", "s1xs2.json"):
        diagram = load_bundled(bundled)
        if parse_diagram(serialize_diagram(diagram)) != diagram:
            _fail(name, f"{bundled} does not round-trip")
        cases += 1
    return {"name": name, "cases": cases}


_CHECKS: tuple[Callable[[], dict], ...] = (
    _check_det_chain_grid,
    _check_det_extended_grid,
    _check_cofactor_cross,
    _check_closed_matrix_agreement,
    _check_bennequin_chain,
    _check_counterexample_diagram,
    _check_expansion_roundtrip,
    _check_degenerate_dual,
    _check_serialization_roundtrip,
)


def run_checks() -> list[dict]:
    """Run all checks in order; raise SelfTestFailure on the first mismatch."""
    return [check() for check in _CHECKS]
