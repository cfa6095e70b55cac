"""Acceptance suite.

One test per acceptance criterion; each runs its full stated grid at
exact equality (no tolerances anywhere) and prints a PASS line, so
``pytest -s tests/test_acceptance.py`` gives a one-line-per-criterion
report.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

import surgerycalc.data as bundled
from surgerycalc import (
    AmbientStatus,
    Conclusion,
    NonNullhomologousDual,
    bennequin_check,
    chain_diagram,
    classify_diagram,
    classify_thm1,
    dual_invariants,
    dual_invariants_closed_form,
    evaluate_negative_continued_fraction,
    expand_diagram,
    negative_continued_fraction,
    parse_diagram,
    serialize_diagram,
)
from surgerycalc.classify import CONWAY_FLAG
from surgerycalc.diagram import LegendrianKnotData, SurgeryComponent, SurgeryDiagram
from surgerycalc.selftest import _cofactor_det as cofactor_det
from surgerycalc.selftest import _det as det

from helpers import fraction_det, framed_matrices, random_diagram, run_cli


def _report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_1_counterexample_tb():
    """tb of L in the surgered manifold is exactly -3 via the matrix path."""
    diagram = bundled.load("figure1.json")
    m, m0, _ = framed_matrices(diagram, "L")
    assert det(m) == fraction_det(m) == -1
    assert det(m0) == fraction_det(m0) == 2
    tb0 = diagram.component("L").knot.tb
    assert tb0 == -1
    assert tb0 + Fraction(det(m0), det(m)) == -3
    invariants = dual_invariants(diagram, "L")
    assert invariants.tb_q == Fraction(-3)
    _report("1 (counterexample diagram: tb = -1 + 2/(-1) = -3)")


def test_criterion_2_determinant_identities():
    """det(M) = n*tb+1 and det(M0) = -n*tb^2 on the full grid, plus oracle."""
    for tb in range(-10, 0):
        for n in range(1, 11):
            m, m0, _ = framed_matrices(chain_diagram(tb, 0, 1, n), "dual")
            assert det(m) == fraction_det(m) == n * tb + 1
            assert det(m0) == fraction_det(m0) == -n * tb * tb
            if n <= 6:
                assert cofactor_det(m) == n * tb + 1
                assert cofactor_det(m0) == -n * tb * tb
    _report("2 (determinant identities, 100 + 100 grid cases, cofactor oracle)")


def test_criterion_3_closed_form_vs_matrix_path():
    """Closed forms match the matrix path exactly on the full grid."""
    cases = 0
    for tb in range(-10, 0):
        for n in range(1, 9):
            if n * tb + 1 == 0:
                continue
            for rot in range(-10, 11):
                via_matrix = dual_invariants(chain_diagram(tb, rot, 1, n), "dual")
                closed = dual_invariants_closed_form(tb, rot, 1, n)
                assert via_matrix.tb_q == closed.tb_q == Fraction(tb, n * tb + 1)
                assert via_matrix.rot_q == closed.rot_q == Fraction(rot, n * tb + 1)
                assert via_matrix.order == closed.order == abs(n * tb + 1)
                cases += 1
    assert cases == 1659
    _report("3 (closed-form vs matrix-path invariants, 1659 grid cases)")


def test_criterion_4_overtwisting_mechanism():
    """Bennequin violation and its bound chain, with the strictness boundary."""
    for chi in (-1, -3, -5):
        for tb in range(-6, 0):
            for n in range(1, 7):
                if n * tb + 1 == 0:
                    continue
                order = abs(n * tb + 1)
                # rot > -chi, constrained by the classical Bennequin bound
                # tb + rot <= -chi that realizable knots in tight
                # manifolds satisfy (the chain's middle step needs it).
                for rot in range(-chi + 1, -chi - tb + 1):
                    invariants = dual_invariants_closed_form(tb, rot, chi, n)
                    report = bennequin_check(invariants)
                    assert not report.satisfied
                    mid = Fraction(chi + 2 * rot, order)
                    assert report.lhs >= mid > report.rhs
                # boundary rot = -chi: endpoints equal, nothing certified
                boundary = -chi
                assert Fraction(chi + 2 * boundary, order) == Fraction(-chi, order)
                verdict = classify_thm1(
                    AmbientStatus.TIGHT,
                    LegendrianKnotData(id="b", tb=tb, rot=boundary, euler_char=chi),
                    n,
                )
                assert verdict.conclusion is Conclusion.INCONCLUSIVE
    _report("4 (overtwisting mechanism: violation, bound chain, boundary)")


def test_criterion_5_tightness_and_conway_flag():
    """Tight for n in 2..10, counterexample flag exactly for n = 2."""
    diagram = bundled.load("figure1.json")
    for n in range(2, 11):
        verdicts = classify_diagram(diagram, {"L": True}, p=n, q=1)
        tight = [v for v in verdicts if v.conclusion is Conclusion.TIGHT]
        assert len(tight) == 1
        assert tight[0].rule == "lemma-tight"
        flagged = any(CONWAY_FLAG in line for line in tight[0].trace)
        assert flagged == (n == 2), f"flag mismatch at n={n}"
    _report("5 (tight (+n)-surgeries with conway-counterexample flag at n = 2)")


def test_criterion_6_degenerate_dual(tmp_path):
    """The S1 x S2 configuration is rejected as non-nullhomologous, exit 3."""
    diagram = bundled.load("s1xs2.json")
    with pytest.raises(NonNullhomologousDual):
        dual_invariants(diagram, "U")
    path = tmp_path / "s1xs2.json"
    path.write_text(bundled.read_text("s1xs2.json"), encoding="utf-8")
    result = run_cli("invariants", str(path), "--dual", "U")
    assert result.returncode == 3
    _report("6 (degenerate dual: det M = 0, exit code 3)")


def test_criterion_7_expansion_round_trips():
    """Continued fractions re-evaluate exactly; +5/2 expands as expected."""
    cases = 0
    for p in range(2, 41):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            r = Fraction(-p, q)
            digits = negative_continued_fraction(r)
            assert digits[0] <= -1
            assert all(a <= -2 for a in digits[1:])
            assert evaluate_negative_continued_fraction(digits) == r
            cases += 1
    assert cases == 489
    knot = LegendrianKnotData(id="L", tb=-2, rot=1, euler_char=-1)
    component = SurgeryComponent(knot, contact_coefficient=Fraction(5, 2))
    presentation = expand_diagram(
        SurgeryDiagram(AmbientStatus.UNKNOWN, (component,), ((0,),))
    )
    curves = presentation.records
    assert [curve.coefficient for curve in curves] == [1, -1, -1]
    assert negative_continued_fraction(Fraction(-5, 3)) == (-2, -3)
    assert [len(curve.signs) for curve in curves] == [0, 1, 1]
    _report("7 (continued-fraction round trips, 489 pairs; +5/2 expansion)")


def test_criterion_8_determinism_and_round_trip():
    """selftest output is byte-identical; parse-serialize is the identity."""
    runs = [run_cli("selftest", "--format", "json", text=False) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert isinstance(runs[0].stdout, bytes)
    assert runs[0].stdout == runs[1].stdout
    rng = random.Random(20260810)
    for _ in range(200):
        diagram = random_diagram(rng)
        assert parse_diagram(serialize_diagram(diagram)) == diagram
    _report("8 (byte-identical selftest; 200 serialization round trips)")
