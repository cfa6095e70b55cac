"""CLI: exit codes, formats, determinism, batch mode, fault injection."""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import surgerycalc.data as bundled
import surgerycalc.invariants
import surgerycalc.selftest
from surgerycalc.classify import RULE_THM1, BennequinReport, Conclusion
from surgerycalc.cli import main
from surgerycalc.diagram import AmbientStatus, load_diagram
from surgerycalc.expansion import LinkingBlocks, expand_diagram
from surgerycalc.invariants import NonNullhomologousDual
from surgerycalc.selftest import SelfTestFailure, run_checks

from helpers import child_env, dense_diagram, run_cli


def figure1_path(tmp_path):
    target = tmp_path / "figure1.json"
    target.write_text(bundled.read_text("figure1.json"), encoding="utf-8")
    return target


def s1xs2_path(tmp_path):
    target = tmp_path / "s1xs2.json"
    target.write_text(bundled.read_text("s1xs2.json"), encoding="utf-8")
    return target


# --------------------------------------------------------------------------
# invariants


def test_invariants_chain_text(capsys):
    code = main(["invariants", "--chain", "--tb", "-2", "--rot", "1", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tb_q = 2/5" in out
    assert "rot_q = -1/5" in out
    assert "order = 5" in out


def test_invariants_matrix_path(tmp_path, capsys):
    path = figure1_path(tmp_path)
    code = main(["invariants", str(path), "--dual", "L"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tb_q = -3" in out


def test_invariants_astronomical_curve_count_finishes(tmp_path):
    # The expansion of -1000000000001/999999999993 has about 1.25 * 10^11
    # curves; the dual's invariants need none of them.
    target = tmp_path / "long.json"
    target.write_text(
        '{"ambient": "unknown", "components": ['
        '{"id": "K", "tb": -2, "rot": 0, "euler_char": 1, '
        '"contact_coefficient": "-1000000000001/999999999993"}, '
        '{"id": "L", "tb": -1, "rot": 0, "euler_char": 1, '
        '"contact_coefficient": null}], "linking": [[0, 1], [1, 0]]}',
        encoding="utf-8",
    )
    result = run_cli("invariants", str(target), "--dual", "L", timeout=30)
    assert result.returncode == 0
    assert result.stderr == ""
    # tb_Q = tb_L - 1/(tb_K + r) with tb_K + r = -2999999999987/999999999993
    assert result.stdout == (
        "command: invariants\n"
        "tb_q = -1999999999994/2999999999987\n"
        "rot_q = -1000000000000/2999999999987\n"
        "order = 2999999999987\n"
        "euler_char = 1\n"
    )


def test_invariants_degenerate_exit_3(tmp_path):
    path = s1xs2_path(tmp_path)
    result = run_cli("invariants", str(path), "--dual", "U")
    assert result.returncode == 3
    assert "not rationally nullhomologous" in result.stderr
    assert result.stdout == ""


def test_invariants_chain_degenerate_exit_3(capsys):
    code = main(["invariants", "--chain", "--tb", "-1", "--rot", "0", "--n", "1"])
    assert code == 3


def test_invariants_json_format(capsys):
    code = main(
        ["invariants", "--chain", "--tb", "-2", "--rot", "1", "--n", "3",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["tb_q"] == "2/5"
    assert payload["results"]["order"] == 5
    # stable key order
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# classify


def test_classify_counterexample(tmp_path, capsys):
    path = figure1_path(tmp_path)
    code = main(
        ["classify", str(path), "--assume-plus-one-tight", "L", "--n", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "tight (rule: lemma-tight)" in out
    assert "conway-counterexample" in out
    assert "rules fired: lemma-tight" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_conway_check_gives_up_in_trace(tmp_path, capsys, fmt):
    path = s1xs2_path(tmp_path)
    code = main(["classify", str(path), "--n", "2", "--assume-plus-one-tight", "U",
                 "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("Conway check skipped: tb in the surgered manifold is "
                     "undefined: det(M) = 0") == 1
    assert "conway-counterexample" not in out


def test_classify_thm1_json(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(
        json.dumps(
            {
                "ambient": "tight",
                "components": [
                    {"id": "K", "tb": -2, "rot": 2, "euler_char": -1,
                     "contact_coefficient": "1/2"}
                ],
                "linking": [[0]],
            }
        ),
        encoding="utf-8",
    )
    code = main(["classify", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    verdicts = payload["results"]["verdicts"]
    assert verdicts[0]["conclusion"] == "overtwisted"
    assert verdicts[0]["rule"] == "thm1"
    assert payload["citations"] == ["thm1"]


def test_classify_thm1_on_negative_rotation(tmp_path, capsys):
    path = tmp_path / "neg_rot.json"
    path.write_text(
        json.dumps(
            {
                "ambient": "tight",
                "components": [
                    {"id": "K", "tb": -2, "rot": -2, "euler_char": -1,
                     "contact_coefficient": "1"}
                ],
                "linking": [[0]],
            }
        ),
        encoding="utf-8",
    )
    code = main(["classify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overtwisted (rule: thm1)" in out
    assert "|rot| = 2 > 1 = -euler_char (orientation reversed" in out
    # thm1 always tests |rot|: there is no option for the literal rot
    for option in ("--both-orientations", "--no-both-orientations"):
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", str(path), option])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_classify_malformed_file_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    result = run_cli("classify", str(path))
    assert result.returncode == 2
    assert "invalid JSON" in result.stderr


def test_classify_asymmetric_linking_exit_2(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text(
        json.dumps(
            {
                "ambient": "unknown",
                "components": [
                    {"id": "A", "tb": -1, "rot": 0, "euler_char": 1,
                     "contact_coefficient": "1"},
                    {"id": "B", "tb": -1, "rot": 0, "euler_char": 1,
                     "contact_coefficient": "1"},
                ],
                "linking": [[0, 1], [2, 0]],
            }
        ),
        encoding="utf-8",
    )
    code = main(["classify", str(path)])
    assert code == 2


def test_classify_missing_file_exit_2(tmp_path):
    result = run_cli("classify", str(tmp_path / "nope.json"))
    assert result.returncode == 2


def test_classify_batch_directory(tmp_path, capsys):
    figure1_path(tmp_path)
    (tmp_path / "chain.json").write_text(
        json.dumps(
            {
                "ambient": "tight",
                "components": [
                    {"id": "K", "tb": -2, "rot": 2, "euler_char": -1,
                     "contact_coefficient": "1"}
                ],
                "linking": [[0]],
            }
        ),
        encoding="utf-8",
    )
    code = main(["classify", str(tmp_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    files = [entry["file"] for entry in payload["results"]["batch"]]
    assert files == sorted(files) == ["chain.json", "figure1.json"]


def test_classify_empty_directory_exit_2(tmp_path, capsys):
    code = main(["classify", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: directory {str(tmp_path)!r} contains no *.json diagrams\n"


def test_classify_diagram_without_components(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"ambient": "tight", "components": [], "linking": []}', encoding="utf-8")
    code = main(["classify", str(path), "--n", "2"])
    assert code == 0
    assert capsys.readouterr().out.endswith("\nno verdicts (no components to classify)\n")


ALL_SURGERED = {
    "ambient": "tight",
    "components": [
        {"id": "K", "tb": -2, "rot": 2, "euler_char": -1, "contact_coefficient": "1"}
    ],
    "linking": [[0]],
}

BAD_QUERIES = [
    (["--p", "0"], "--p/--q: p must be a positive integer, got 0"),
    (["--p", "-3"], "--p/--q: p must be a positive integer, got -3"),
    (["--p", "2", "--q", "0"], "--p/--q: q must be a positive integer, got 0"),
    (["--p", "4", "--q", "2"], "--p/--q: p = 4 and q = 2 are not relatively prime"),
]


def _assert_classify_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: surgerycalc classify [-h]")
    assert captured.err.endswith(f"surgerycalc classify: error: {message}\n")


@pytest.mark.parametrize("query, message", BAD_QUERIES)
def test_classify_bad_query_is_a_usage_error_for_a_file(
    tmp_path, capsys, query, message
):
    # The query is checked before the file is read, so a diagram with no
    # component that could receive it fails as one that has one does.
    path = tmp_path / "surgered.json"
    path.write_text(json.dumps(ALL_SURGERED), encoding="utf-8")
    for target in (path, figure1_path(tmp_path)):
        _assert_classify_usage_error(capsys, ["classify", str(target), *query], message)


@pytest.mark.parametrize("query, message", BAD_QUERIES)
def test_classify_bad_query_is_one_usage_error_for_a_batch(
    tmp_path, capsys, query, message
):
    (tmp_path / "surgered.json").write_text(json.dumps(ALL_SURGERED), encoding="utf-8")
    figure1_path(tmp_path)
    _assert_classify_usage_error(
        capsys, ["classify", str(tmp_path), *query, "--format", "json"], message
    )


@pytest.mark.parametrize("n", ["0", "-3"])
def test_classify_n_below_one_is_a_usage_error(tmp_path, capsys, n):
    # --n is checked before any file is read: one usage error that names
    # --n, for a single file and for a directory batch alike.
    (tmp_path / "surgered.json").write_text(json.dumps(ALL_SURGERED), encoding="utf-8")
    for target in (figure1_path(tmp_path), tmp_path):
        _assert_classify_usage_error(
            capsys,
            ["classify", str(target), "--n", n, "--format", "json"],
            "--n must be a positive integer",
        )


def test_classify_batch_isolates_per_file_errors(tmp_path, capsys):
    figure1_path(tmp_path)
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
    code = main(["classify", str(tmp_path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 2  # worst per-file code, but the good file still ran
    payload = json.loads(out)
    by_file = {entry["file"]: entry for entry in payload["results"]["batch"]}
    assert "error" in by_file["broken.json"]
    assert "verdicts" in by_file["figure1.json"]


# --------------------------------------------------------------------------
# bennequin


def test_bennequin_chain_violation(capsys):
    code = main(["bennequin", "--chain", "--tb", "-2", "--rot", "2",
                 "--chi", "-1", "--n", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lhs = tb_q + |rot_q| = 4" in out
    assert "rhs = -euler_char/order = 1" in out
    assert "satisfied = no" in out
    assert "overtwisted (rule: bennequin-violation)" in out


def test_bennequin_satisfied(capsys):
    # tb = -1, rot = 0, chi = -1, n = 2: the dual has tb_q = 1, rot_q = 0,
    # order 1, and the bound holds with equality (1 <= -(-1)/1).
    code = main(["bennequin", "--chain", "--tb", "-1", "--rot", "0",
                 "--chi", "-1", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "satisfied = yes" in out


# --------------------------------------------------------------------------
# expand


def test_expand_single_knot(capsys):
    code = main(["expand", "--tb", "-2", "--rot", "1", "--chi", "-1",
                 "--p", "5", "--q", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    steps = payload["results"]["steps"]
    assert [step["coefficient"] for step in steps] == ["1", "-1", "-1"]
    assert [step["stabilizations"] for step in steps] == [0, 1, 1]


def test_expand_unit_fraction_flag(capsys):
    code = main(["expand", "--tb", "-2", "--rot", "1", "--chi", "-1", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("coefficient=1") >= 2


def test_expand_negative_coefficient(capsys):
    code = main(["expand", "--tb", "-1", "--rot", "0", "--p", "-5", "--q", "3",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert [step["stabilizations"] for step in payload["results"]["steps"]] == [1, 1]


def test_expand_diagram_output_reparses_as_diagram(tmp_path, capsys):
    path = figure1_path(tmp_path)
    code = main(["expand", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    from surgerycalc import diagram_from_obj

    derived = diagram_from_obj(payload["results"])
    assert derived == bundled.load("figure1.json")


def test_expand_unsupported_exit_2(tmp_path):
    path = tmp_path / "u.json"
    path.write_text(
        json.dumps(
            {
                "ambient": "unknown",
                "components": [
                    {"id": "A", "tb": -2, "rot": 1, "euler_char": -1,
                     "contact_coefficient": "2/5"}
                ],
                "linking": [[0]],
            }
        ),
        encoding="utf-8",
    )
    result = run_cli("expand", str(path))
    assert result.returncode == 2
    assert "not of an expandable shape" in result.stderr


# --------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out


def test_selftest_deterministic_byte_identical():
    first = run_cli("selftest", "--format", "json", text=False)
    second = run_cli("selftest", "--format", "json", text=False)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    third = run_cli("selftest", text=False)
    fourth = run_cli("selftest", text=False)
    assert third.stdout == fourth.stdout


def test_selftest_fault_injection(monkeypatch):
    # A sign flip in the determinant must be caught by the very first
    # identity grid.
    true_det = surgerycalc.selftest._det
    monkeypatch.setattr(surgerycalc.selftest, "_det", lambda rows: -true_det(rows))
    with pytest.raises(SelfTestFailure, match=r"det\(M\) = n\*tb\+1 grid"):
        run_checks()


def test_selftest_fault_injection_solve_path(monkeypatch):
    # The matrix-path dual invariants reach the elimination kernel only
    # through solve_integral; a perturbed numerator must be caught by the
    # closed-form comparison grid.
    true_solve = surgerycalc.invariants.solve_integral

    def perturbed(rows):
        y, d = true_solve(rows)
        return (y[0] + 1,) + y[1:], d

    monkeypatch.setattr(surgerycalc.invariants, "solve_integral", perturbed)
    with pytest.raises(
        SelfTestFailure, match=r"closed-form vs matrix-path dual invariants"
    ):
        run_checks()


def test_selftest_fault_injection_solve_denominator(monkeypatch):
    # tb_Q, rot_Q and the order all divide by the kernel's d; a doubled
    # d must be caught by the closed-form comparison grid.
    true_solve = surgerycalc.invariants.solve_integral

    def perturbed(rows):
        y, d = true_solve(rows)
        return y, 2 * d

    monkeypatch.setattr(surgerycalc.invariants, "solve_integral", perturbed)
    with pytest.raises(
        SelfTestFailure, match=r"closed-form vs matrix-path dual invariants"
    ):
        run_checks()


def test_selftest_fault_injection_group_pairs(monkeypatch):
    # The closed-form grid runs dual_invariants, so a perturbed rotation
    # weight w of a curve group must be caught there.
    true_pairs = surgerycalc.invariants._group_pairs

    def perturbed(components):
        return [(tail, weight + 1) for tail, weight in true_pairs(components)]

    monkeypatch.setattr(surgerycalc.invariants, "_group_pairs", perturbed)
    with pytest.raises(
        SelfTestFailure, match=r"closed-form vs matrix-path dual invariants"
    ):
        run_checks()


def _cornered(true_bordered):
    # M0 with corner 1 instead of 0: det(M0) moves by det(M), M is kept
    def perturbed(diagram, dual):
        m, m0 = true_bordered(diagram, dual)
        return m, [[1, *m0[0][1:]], *m0[1:]]

    return perturbed


def _swapped_bound(true_check):
    # lhs and rhs of the Bennequin comparison swapped: a violation reads
    # as satisfied
    def perturbed(invariants):
        report = true_check(invariants)
        return BennequinReport(lhs=report.rhs, rhs=report.lhs)

    return perturbed


def _overtwisted(true_thm1):
    # thm1 fires at the strictness boundary |rot| = -euler_char
    def perturbed(ambient, knot, n):
        verdict = true_thm1(ambient, knot, n)
        return replace(verdict, conclusion=Conclusion.OVERTWISTED, rule=RULE_THM1)

    return perturbed


def _quiet_degenerate(true_dual):
    # a non-nullhomologous dual yields None instead of raising
    def perturbed(diagram, dual):
        try:
            return true_dual(diagram, dual)
        except NonNullhomologousDual:
            return None

    return perturbed


# selftest name patched -> perturbation of the true function (or a new
# value), and the message prefix: the check's name and its first failing case
SELFTEST_FAULTS = {
    "_bordered": (_cornered, "det(M0) = -n*tb^2 grid: tb=-10, n=1: "),
    "_cofactor_det": (
        lambda true: lambda rows: -true(rows),
        "cofactor oracle cross-check (n <= 6): tb=-10, n=1, dim=1: ",
    ),
    "bennequin_check": (
        _swapped_bound,
        "Bennequin bound chain and strictness boundary: tb=-6, rot=2, chi=-1, n=1: ",
    ),
    "classify_thm1": (
        _overtwisted,
        "Bennequin bound chain and strictness boundary: tb=-6, rot=1, chi=-1, n=1: ",
    ),
    "CONWAY_FLAG": (
        lambda true: "no such flag",
        "bundled counterexample reproduction (tb = -3): "
        "a tight verdict flagged as a conway counterexample: ",
    ),
    "evaluate_negative_continued_fraction": (
        lambda true: lambda digits: true(digits) - 1,
        "negative continued fraction round trip (p, q <= 40): r=-2, digits (-2,): ",
    ),
    "dual_invariants": (
        _quiet_degenerate,
        "degenerate dual (det M = 0): s1xs2.json, dual U: ",
    ),
    "parse_diagram": (
        lambda true: lambda text: replace(true(text), ambient=AmbientStatus.UNKNOWN),
        "diagram serialization round trip: figure1.json: ",
    ),
}


@pytest.mark.parametrize("name", SELFTEST_FAULTS)
def test_selftest_fault_injection_every_check(monkeypatch, name):
    # Each check reads the patched name; a fault there fails that check at
    # its first case, after every earlier check has passed.
    perturb, prefix = SELFTEST_FAULTS[name]
    monkeypatch.setattr(
        surgerycalc.selftest, name, perturb(getattr(surgerycalc.selftest, name))
    )
    with pytest.raises(SelfTestFailure, match="^" + re.escape(prefix)):
        run_checks()


def test_selftest_grid_sizes():
    # A faster selftest must not come from a smaller grid.
    assert [(check["name"], check["cases"]) for check in run_checks()] == [
        ("det(M) = n*tb+1 grid", 100),
        ("det(M0) = -n*tb^2 grid", 100),
        ("cofactor oracle cross-check (n <= 6)", 120),
        ("closed-form vs matrix-path dual invariants", 1659),
        ("Bennequin bound chain and strictness boundary", 480),
        ("bundled counterexample reproduction (tb = -3)", 4),
        ("negative continued fraction round trip (p, q <= 40)", 491),
        ("degenerate dual (det M = 0)", 1),
        ("diagram serialization round trip", 2),
    ]


def test_selftest_builds_each_chain_once(monkeypatch):
    # The three determinant checks share one pass over (tb, n) that builds
    # each of their 100 chain diagrams once; the closed-form grid builds
    # its 1659 after it.
    calls = []
    true_chain = surgerycalc.selftest.chain_diagram

    def counted(*args):
        calls.append(args)
        return true_chain(*args)

    monkeypatch.setattr(surgerycalc.selftest, "chain_diagram", counted)
    run_checks()
    assert len(set(calls[:100])) == 100
    assert len(calls) == 100 + 1659


def test_selftest_failure_exit_code(monkeypatch, capsys):
    true_det = surgerycalc.selftest._det
    monkeypatch.setattr(surgerycalc.selftest, "_det", lambda rows: -true_det(rows))
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 1
    assert "selftest failure" in captured.err


# --------------------------------------------------------------------------
# argument validation


def test_conflicting_coefficient_flags_exit_2():
    result = run_cli("expand", "--tb", "-2", "--rot", "0", "--n", "2",
                     "--p", "5", "--q", "2")
    assert result.returncode == 2


def test_classify_n_with_q_exit_2(tmp_path, capsys):
    # --q belongs to --p; next to --n it would silently query +N/Q.
    path = figure1_path(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", str(path), "--n", "2", "--q", "3",
              "--assume-plus-one-tight", "L"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give either --n or --p/--q, not both" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "FIG", "--n", "2", "--q", "3"],
         "give either --n or --p/--q, not both"),
        (["classify", "FIG", "--q", "3"], "--q needs --p"),
        (["expand", "--n", "2", "--p", "5", "--q", "2"],
         "single-knot mode needs --tb and --rot"),
        (["expand", "--tb", "-2", "--rot", "1", "--n", "2", "--p", "5", "--q", "2"],
         "give either --n or --p/--q, not both"),
        (["invariants", "--chain", "--tb", "-2"], "--chain mode needs --tb, --rot and --n"),
        (["invariants"], "give a diagram file with --dual ID, or use --chain"),
        (["invariants", "FIG"], "--dual ID is required with a diagram file"),
        (["bennequin"], "give a diagram file with --dual ID, or use --chain"),
        (["bennequin", "FIG"], "--dual ID is required with a diagram file"),
        (["invariants", "--chain", "--tb", "-2", "--rot", "1", "--n", "0"],
         "--n must be a positive integer"),
        (["bennequin", "--chain", "--tb", "-2", "--rot", "1", "--n", "0"],
         "--n must be a positive integer"),
        (["expand", "FIG", "--n", "3", "--tb", "5", "--rot", "9"],
         "--tb does not apply to a diagram file"),
        (["invariants", "FIG", "--dual", "L", "--tb", "7", "--n", "2"],
         "--tb does not apply to a diagram file"),
        (["expand", "--tb", "-2", "--rot", "0"],
         "a coefficient is required: --n N for +1/N, or --p/--q"),
        (["expand", "--tb", "-2", "--rot", "0", "--p", "5", "--q", "0"],
         "--q must be a positive integer"),
    ],
)
def test_usage_error_in_handler_prints_subcommand_usage(tmp_path, capsys, argv, message):
    path = str(figure1_path(tmp_path))
    with pytest.raises(SystemExit) as exit_info:
        main([path if arg == "FIG" else arg for arg in argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: surgerycalc {argv[0]} [-h]")
    assert captured.err.endswith(f"surgerycalc {argv[0]}: error: {message}\n")


def test_missing_dual_exit_2(tmp_path):
    path = figure1_path(tmp_path)
    result = run_cli("invariants", str(path))
    assert result.returncode == 2


def test_unknown_dual_id_exit_2(tmp_path):
    path = figure1_path(tmp_path)
    result = run_cli("invariants", str(path), "--dual", "Z")
    assert result.returncode == 2
    assert "no component with id" in result.stderr


@pytest.mark.parametrize("command", ["invariants", "bennequin"])
def test_id_option_only_on_expand(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--chain", "--tb", "-2", "--rot", "0", "--n", "1",
              "--id", "L"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --id" in capsys.readouterr().err
    code = main(["expand", "--tb", "-2", "--rot", "1", "--chi", "-1", "--n", "2",
                 "--id", "K"])
    assert code == 0 and "K#2: tb=-2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["invariants", "bennequin"])
@pytest.mark.parametrize(
    "extra",
    [["/nonexistent.json"], ["--dual", "L"], ["/nonexistent.json", "--dual", "L"]],
)
def test_chain_rejects_diagram_and_dual(capsys, command, extra):
    # --chain reads only --tb/--rot/--chi/--n; a diagram or --dual next to
    # it is a usage error, not silently ignored.
    with pytest.raises(SystemExit) as exit_info:
        main([command, *extra, "--chain", "--tb", "-2", "--rot", "0", "--n", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--chain takes no diagram file and no --dual" in captured.err


# each diagram command with the knot and chain options it has
KNOT_OPTIONS = {
    "expand": ["--tb", "--rot", "--chi", "--id", "--n", "--p", "--q"],
    "invariants": ["--tb", "--rot", "--chi", "--n"],
    "bennequin": ["--tb", "--rot", "--chi", "--n"],
}


@pytest.mark.parametrize("target", ["file", "directory"])
@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, options in KNOT_OPTIONS.items() for option in options],
)
def test_diagram_rejects_knot_and_chain_options(tmp_path, capsys, target, command, option):
    # A diagram brings its own knots: an option that describes a knot or a
    # chain next to it would be silently ignored. "--chi 1" is rejected
    # too, although 1 is the default.
    figure1_path(tmp_path)
    diagram = tmp_path / "figure1.json" if target == "file" else tmp_path
    dual = [] if command == "expand" else ["--dual", "L"]
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(diagram), *dual, option, "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"surgerycalc {command}: error: {option} does not apply to a diagram file\n"
    )


@pytest.mark.parametrize("command", ["invariants", "bennequin"])
def test_chain_knot_checked_like_single_knot_expand(capsys, command):
    # chi = 5 is impossible for a surface with boundary: --chain rejects
    # the knot as single-knot expand does, instead of certifying anything
    # from it.
    knot = ["--tb", "-2", "--rot", "1", "--chi", "5", "--n", "1"]
    for argv in ([command, "--chain", *knot], ["expand", *knot]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: L.euler_char = 5 exceeds 1, impossible for a surface with "
            "boundary\n"
        )


@pytest.mark.parametrize("command", ["invariants", "bennequin"])
def test_chain_even_euler_char_warns_once(command):
    result = run_cli(command, "--chain", "--tb", "-2", "--rot", "1", "--chi", "0",
                     "--n", "1")
    assert result.returncode == 0
    warned = [line for line in result.stderr.splitlines() if "UserWarning" in line]
    assert len(warned) == 1
    assert "UserWarning: L.euler_char = 0 is even" in warned[0]
    assert warned[0].split(":")[0].endswith("cli.py")


@pytest.mark.parametrize(
    "argv, knot_id, location",
    [
        (["--tb", "0", "--rot", "0", "--chi", "0", "--n", "3"], "L", "cli.py"),
        (["--tb", "0", "--rot", "0", "--chi", "0", "--p", "-7", "--q", "3"],
         "L", "cli.py"),
        (["--tb", "0", "--rot", "0", "--chi", "0", "--p", "1",
          "--id", "K"], "K", "cli.py"),
        ([], "A", "diagram.py"),
    ],
)
def test_even_euler_char_warns_once_per_input_knot(tmp_path, argv, knot_id, location):
    if not argv:
        path = tmp_path / "even.json"
        path.write_text(
            json.dumps(
                {
                    "ambient": "unknown",
                    "components": [
                        {"id": "A", "tb": 0, "rot": 0, "euler_char": 0,
                         "contact_coefficient": "-7/3"},
                        {"id": "B", "tb": -1, "rot": 0, "euler_char": 1,
                         "contact_coefficient": "1/4"},
                    ],
                    "linking": [[0, 1], [1, 0]],
                }
            ),
            encoding="utf-8",
        )
        argv = [str(path)]
    result = run_cli("expand", *argv)
    assert result.returncode == 0
    warned = [line for line in result.stderr.splitlines() if "UserWarning" in line]
    assert len(warned) == 1
    assert f"UserWarning: {knot_id}.euler_char = 0 is even" in warned[0]
    assert warned[0].split(":")[0].endswith(location)


# --------------------------------------------------------------------------
# one coefficient-shape dispatch, one diagram/directory path


def _run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    results = json.loads(captured.out)["results"] if captured.out else None
    return code, results, captured.err


@pytest.mark.parametrize("policy", ["all-negative", "all-positive", "balanced"])
@pytest.mark.parametrize(
    "coefficient_args, coefficient",
    [
        (["--p", "1"], "1"),
        (["--p", "-1"], "-1"),
        (["--n", "3"], "1/3"),
        (["--p", "1", "--q", "3"], "1/3"),
        (["--p", "5", "--q", "2"], "5/2"),
        (["--p", "7", "--q", "3"], "7/3"),
        (["--p", "-5", "--q", "3"], "-5/3"),
        (["--p", "-2"], "-2"),
        (["--p", "2"], "2"),
        (["--p", "4"], "4"),
        (["--p", "2", "--q", "3"], "2/3"),
        (["--p", "2", "--q", "5"], "2/5"),
        (["--p", "0"], "0"),
    ],
)
def test_expand_single_knot_matches_one_component_diagram(
    tmp_path, capsys, policy, coefficient_args, coefficient
):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            {
                "ambient": "unknown",
                "components": [
                    {"id": "L", "tb": -2, "rot": 1, "euler_char": -1,
                     "contact_coefficient": coefficient}
                ],
                "linking": [[0]],
            }
        ),
        encoding="utf-8",
    )
    single = _run_json(
        capsys, "expand", "--tb", "-2", "--rot", "1", "--chi", "-1",
        *coefficient_args, "--zigzag-policy", policy,
    )
    from_file = _run_json(capsys, "expand", str(path), "--zigzag-policy", policy)
    assert single == from_file
    code, results, err = single
    errors = {
        "2/3": "not of an expandable shape",
        "2/5": "not of an expandable shape",
        "0": "contact coefficient 0 is not a surgery",
    }
    if coefficient in errors:
        assert code == 2 and results is None
        assert errors[coefficient] in err
    else:
        # +1/n included: the requested policy is reported, as for a file
        assert code == 0 and results["zigzag_policy"] == policy


@pytest.mark.parametrize(
    "command, options, key",
    [
        ("expand", ["--zigzag-policy", "balanced"], "expansion"),
        ("invariants", ["--dual", "L"], "invariants"),
        ("classify", ["--assume-plus-one-tight", "L", "--n", "2"], "verdicts"),
        ("bennequin", ["--dual", "L"], "bennequin"),
    ],
)
def test_batch_entries_match_single_file_results(
    tmp_path, capsys, command, options, key
):
    figure1_path(tmp_path)
    s1xs2_path(tmp_path)
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
    (tmp_path / "rational.json").write_text(
        json.dumps(
            {
                "ambient": "tight",
                "components": [
                    {"id": "L", "tb": -2, "rot": 1, "euler_char": -1,
                     "contact_coefficient": None},
                    {"id": "K", "tb": -1, "rot": 0, "euler_char": 1,
                     "contact_coefficient": "-5/3"},
                ],
                "linking": [[0, 2], [2, 0]],
            }
        ),
        encoding="utf-8",
    )
    batch_code, batch, _ = _run_json(capsys, command, str(tmp_path), *options)
    codes = []
    for entry in batch["batch"]:
        code, results, err = _run_json(
            capsys, command, str(tmp_path / entry["file"]), *options
        )
        codes.append(code)
        if code == 0:
            single = results["verdicts"] if command == "classify" else results
            assert entry == {"file": entry["file"], key: single}
        else:
            assert entry == {"file": entry["file"], "error": err[len("error: "):-1]}
    assert [entry["file"] for entry in batch["batch"]] == [
        "broken.json", "figure1.json", "rational.json", "s1xs2.json"
    ]
    assert batch_code == max(codes) > 0


# --------------------------------------------------------------------------
# large expand output stays byte-identical


def _large_diagram(n: int) -> dict:
    """-(n+1)/n on K (n curves), an unsurgered L, then +5/2 on M (3 curves)."""

    def component(cid, tb, rot, r):
        return {"id": cid, "tb": tb, "rot": rot, "euler_char": -1,
                "contact_coefficient": r}

    return {
        "ambient": "unknown",
        "components": [
            component("K", -2, 1, f"-{n + 1}/{n}"),
            component("L", -1, 0, None),
            component("M", -3, 0, "5/2"),
        ],
        "linking": [[0, 2, -1], [2, 0, 3], [-1, 3, 0]],
    }


def _old_expand_lines(results: dict) -> list[str]:
    """The expand text rendering, linking rows as ", ".join(str(entry) ...)."""
    lines = [f"zigzag policy: {results['zigzag_policy']}", "steps:"]
    for index, step in enumerate(results["steps"], start=1):
        signs = ",".join(f"{s:+d}" for s in step["stabilization_signs"])
        lines.append(
            f"  {index}. source={step['source_id']} "
            f"coefficient={step['coefficient']} "
            f"stabilizations={step['stabilizations']}"
            + (f" signs={signs}" if signs else "")
        )
    lines.append(f"derived diagram ({len(results['components'])} components):")
    for c in results["components"]:
        coefficient = c["contact_coefficient"] or "none"
        lines.append(
            f"  {c['id']}: tb={c['tb']} rot={c['rot']} "
            f"euler_char={c['euler_char']} coefficient={coefficient}"
        )
    lines.append("linking:")
    for row in results["linking"]:
        lines.append("  [" + ", ".join(str(entry) for entry in row) + "]")
    return lines


@pytest.mark.parametrize("policy", ["all-negative", "all-positive", "balanced"])
def test_large_expand_output_byte_identical(tmp_path, capsys, policy):
    # one 300-curve file, then a batch of it and a 154-curve file
    for name, n in (("a.json", 296), ("b.json", 150)):
        (tmp_path / name).write_text(json.dumps(_large_diagram(n)), encoding="utf-8")
    for target in (tmp_path / "a.json", tmp_path):
        argv = ["expand", str(target), "--zigzag-policy", policy]
        assert main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        # compared as lists of lines: a failing str comparison this size
        # makes pytest's diff take minutes
        rewritten = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert out.splitlines(True) == rewritten.splitlines(True)
        results = json.loads(out)["results"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        if target != tmp_path:
            assert len(results["linking"]) == 300
            expected = _old_expand_lines(results)
        else:
            expected = []
            for entry in results["batch"]:
                expected.append(f"file: {entry['file']}")
                expected += ["  " + line for line in _old_expand_lines(entry["expansion"])]
        assert text.splitlines(True) == [
            line + "\n" for line in ["command: expand", *expected]
        ]


@pytest.mark.parametrize("policy", ["all-negative", "all-positive", "balanced"])
def test_large_expand_output_matches_entrywise_rule(tmp_path, capsys, policy):
    # 296 curves of K, each but the first a push-off with tb one lower
    # than K's, then L and the three stabilized curves of +5/2 on M
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_large_diagram(296)), encoding="utf-8")
    source = load_diagram(path)
    presentation = expand_diagram(source, zigzag_policy=policy)
    derived = dense_diagram(presentation)
    oracle = [list(row) for row in derived.linking]
    argv = ["expand", str(path), "--zigzag-policy", policy]
    assert main([*argv, "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(c["id"], c["tb"]) for c in results["components"]] == [
        (c.id, c.knot.tb) for c in derived.components
    ]
    assert len(oracle) == 300
    assert results["linking"] == oracle
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("linking:") + 1
    assert lines[start:] == ["  [" + ", ".join(map(str, row)) + "]" for row in oracle]


def test_expand_never_builds_the_linking_matrix(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("the CLI built the N x N linking matrix")

    monkeypatch.setattr(LinkingBlocks, "matrix", refuse)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_large_diagram(20)), encoding="utf-8")
    for target in (path, tmp_path):
        for fmt in ("text", "json"):
            assert main(["expand", str(target), "--format", fmt]) == 0
    assert main(["expand", "--tb", "-2", "--rot", "1", "--p", "-7", "--q", "3"]) == 0
    capsys.readouterr()


def test_expand_derived_id_collision_exit_2(tmp_path, capsys):
    # +1/2 on K expands to K#1, K#2; K#1 is already a component
    path = tmp_path / "collide.json"
    path.write_text(
        json.dumps(
            {
                "ambient": "unknown",
                "components": [
                    {"id": "K", "tb": -2, "rot": 1, "euler_char": 1,
                     "contact_coefficient": "1/2"},
                    {"id": "K#1", "tb": -1, "rot": 0, "euler_char": 1,
                     "contact_coefficient": "-1"},
                    {"id": "L", "tb": -1, "rot": 0, "euler_char": 1,
                     "contact_coefficient": None},
                ],
                "linking": [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
            }
        ),
        encoding="utf-8",
    )
    assert main(["expand", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate component id 'K#1'\n"


# --------------------------------------------------------------------------
# files the JSON decoder cannot read: exit 2, never a traceback

BAD_FILES = {
    # beyond CPython's int-string digit limit (4,300 digits by default)
    "huge_int": (
        '{"ambient": "unknown", "components": [{"id": "K", "tb": -'
        + "9" * 5000
        + ', "rot": 0, "euler_char": 1}], "linking": [[0]]}'
    ).encode(),
    "deep_nesting": b"[" * 100_000,
    "not_utf8": b'{"ambient": "unknown", "comment": "\xff\xfe"}',
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_undecodable_file_exit_2_without_traceback(tmp_path, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_FILES[case])
    result = run_cli("expand", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: invalid ")
    assert "Traceback" not in result.stderr
    # in a batch it is one error entry, and the other file still runs
    figure1_path(tmp_path)
    result = run_cli("expand", str(tmp_path), "--format", "json")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    batch = json.loads(result.stdout)["results"]["batch"]
    assert [sorted(entry) for entry in batch] == [
        ["error", "file"], ["expansion", "file"]
    ]
    assert batch[0]["file"] == "bad.json"
    assert batch[0]["error"].startswith("invalid ")


# --------------------------------------------------------------------------
# results beyond the int-string digit limit: exit 2, never a traceback


TOO_LARGE = (
    f"result too large to print: more than {sys.get_int_max_str_digits()} digits"
)


def _huge_tb_q_diagram():
    # K (tb -1, coefficient -1) links L by a 4,001-digit number, a valid
    # input; tb_Q of L has about 8,000 digits, beyond CPython's limit.
    lk = "7" * 4001
    return (
        '{"ambient": "unknown", "components": ['
        '{"id": "K", "tb": -1, "rot": 0, "euler_char": 1, '
        '"contact_coefficient": "-1"}, '
        '{"id": "L", "tb": -1, "rot": 0, "euler_char": 1, '
        f'"contact_coefficient": null}}], "linking": [[0, {lk}], [{lk}, 0]]}}'
    )


def _huge_order_diagram():
    # Two pairs of (-1)-surgered knots with tb t + 1 and -t + 1, each
    # knot linking L once: Lambda = diag(t, -t, u, -u), so tb_Q and rot_Q
    # of L are its own while the order lcm(t, u) has about 8,400 digits.
    knots = []
    for index, t in enumerate((10**4200 + 1, 10**4200 + 3)):
        for sign in (1, -1):
            knots.append(
                f'{{"id": "K{index}{sign:+d}", "tb": {sign * t + 1}, "rot": 0, '
                '"euler_char": 1, "contact_coefficient": "-1"}, '
            )
    rows = [[0, 0, 0, 0, 1] for _ in range(4)] + [[1, 1, 1, 1, 0]]
    return (
        '{"ambient": "unknown", "components": [' + "".join(knots)
        + '{"id": "L", "tb": -1, "rot": 0, "euler_char": 1, '
        f'"contact_coefficient": null}}], "linking": {rows}}}'
    )


HUGE_RESULTS = {"tb_q": _huge_tb_q_diagram, "order": _huge_order_diagram}


def huge_result_path(tmp_path, case):
    target = tmp_path / "huge.json"
    target.write_text(HUGE_RESULTS[case](), encoding="utf-8")
    return target


@pytest.mark.parametrize("case", sorted(HUGE_RESULTS))
def test_result_too_large_to_print_exit_2(tmp_path, case):
    result = run_cli(
        "invariants", str(huge_result_path(tmp_path, case)), "--dual", "L"
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {TOO_LARGE}\n"


@pytest.mark.parametrize("case", sorted(HUGE_RESULTS))
def test_result_too_large_to_print_is_one_batch_entry(tmp_path, capsys, case):
    huge_result_path(tmp_path, case)
    figure1_path(tmp_path)
    code = main(["invariants", str(tmp_path), "--dual", "L", "--format", "json"])
    assert code == 2
    batch = json.loads(capsys.readouterr().out)["results"]["batch"]
    assert [sorted(entry) for entry in batch] == [
        ["file", "invariants"], ["error", "file"]
    ]
    assert batch[1] == {
        "file": "huge.json",
        "error": TOO_LARGE,
    }


# a tb or rot of as many digits as CPython prints: stabilizing gives it one more
PAST_THE_LIMIT = {
    "tb": ("-" + "9" * sys.get_int_max_str_digits(), "0"),
    "rot": ("-1", "-" + "9" * sys.get_int_max_str_digits()),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("field", sorted(PAST_THE_LIMIT))
def test_expand_past_the_digit_limit_exit_2(capsys, fmt, field):
    tb, rot = PAST_THE_LIMIT[field]
    code = main(["expand", "--tb", tb, "--rot", rot, "--p", "-2", "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {TOO_LARGE}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("field", sorted(PAST_THE_LIMIT))
def test_expand_diagram_past_the_digit_limit(tmp_path, capsys, fmt, field):
    tb, rot = PAST_THE_LIMIT[field]
    path = tmp_path / "wide.json"
    path.write_text(
        '{"ambient": "unknown", "components": [{"id": "K", "tb": %s, "rot": %s, '
        '"euler_char": 1, "contact_coefficient": "-2"}], "linking": [[0]]}'
        % (tb, rot),
        encoding="utf-8",
    )
    assert main(["expand", str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {TOO_LARGE}\n"
    # in a batch it is the file's error entry, and the other file expands
    figure1_path(tmp_path)
    assert main(["expand", str(tmp_path), "--format", "json"]) == 2
    batch = json.loads(capsys.readouterr().out)["results"]["batch"]
    assert [sorted(entry) for entry in batch] == [["expansion", "file"], ["error", "file"]]
    assert batch[1] == {"file": "wide.json", "error": TOO_LARGE}


# --------------------------------------------------------------------------
# reports are written as they are rendered

# 3,000 curves: 36 MB of text and 109 MB of JSON, nearly all linking rows
STREAMED_EXPAND = ["expand", "--tb", "-2", "--rot", "0", "--p", "-3001", "--q", "3000"]


class _CountingStdout:
    """A stdout with only ``write`` and ``flush``, like a benchmark's
    stand-in; it counts the writes and their characters and keeps none."""

    def __init__(self) -> None:
        self.writes = self.chars = 0

    def write(self, text: str) -> int:
        self.writes += 1
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_expand_streams_in_bounded_memory(monkeypatch, fmt):
    # Held whole before the first write, the report would trace a peak
    # of 71 MB in text and 209 MB in JSON. Streamed, the peak is the
    # expansion's O(N) records plus one linking row.
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    tracemalloc.start()
    try:
        code = main([*STREAMED_EXPAND, "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.chars > 30 * 2**20
    assert out.writes > 100
    assert peak < 6 * 2**20


@pytest.mark.parametrize(
    "argv, code",
    [
        (["expand", "--tb", PAST_THE_LIMIT["tb"][0], "--rot", "0", "--p", "-2"], 2),
        (["expand", "--tb", "-2", "--rot", "1", "--p", "2", "--q", "5"], 2),
        (["expand", "/nonexistent.json", "--format", "json"], 2),
        (["invariants", "--chain", "--tb", "-1", "--rot", "0", "--n", "1"], 3),
        (["expand", "--tb", "-2", "--rot", "1", "--n", "0"], "usage"),
    ],
)
def test_input_error_writes_nothing(monkeypatch, capsys, argv, code):
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    if code == "usage":
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    else:
        assert main(argv) == code
    assert out.writes == 0
    assert capsys.readouterr().err.count("error: ") == 1


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX pipe semantics")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_reader_closing_midway_exit_2_without_traceback(unbuffered):
    # The reader stops after 100 bytes of 109 MB. One write of the whole
    # report to an unbuffered stdout would lose the rest silently (the
    # text layer ignores a short write) and exit 0; in pieces, the next
    # write fails and says so.
    child = subprocess.Popen(
        [sys.executable, "-m", "surgerycalc", *STREAMED_EXPAND, "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env({"PYTHONUNBUFFERED": unbuffered}),
    )
    try:
        head = child.stdout.read(100)
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.wait(timeout=120)
    finally:
        child.kill()
        child.stderr.close()
    assert head.startswith(b'{\n  "citations": []')
    assert child.returncode == 2
    assert stderr == _write_error_line(errno.EPIPE)


# --------------------------------------------------------------------------
# a report that cannot be written: exit 2 and one error line, no traceback

# one small write, and 2.6 MB of linking rows
WRITE_ARGVS = [
    ["invariants", "--chain", "--tb", "-2", "--rot", "1", "--n", "3"],
    ["expand", "--tb", "-2", "--rot", "1", "--p", "-801", "--q", "800"],
]


def _write_error_line(code: int) -> str:
    return f"error: cannot write the report: [Errno {code}] {os.strerror(code)}\n"


class _FailingStdout:
    """A stdout whose ``failing`` method raises ``error``."""

    def __init__(self, failing: str, error: OSError) -> None:
        self.failing, self.error = failing, error

    def write(self, text: str) -> int:
        if self.failing == "write":
            raise self.error
        return len(text)

    def flush(self) -> None:
        if self.failing == "flush":
            raise self.error


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("error_class, code", [
    (OSError, errno.ENOSPC), (BrokenPipeError, errno.EPIPE),
])
def test_failed_report_write_is_one_error_line(
    monkeypatch, capsys, failing, error_class, code
):
    error = error_class(code, os.strerror(code))
    monkeypatch.setattr(sys, "stdout", _FailingStdout(failing, error))
    assert main(WRITE_ARGVS[0]) == 2
    assert capsys.readouterr().err == _write_error_line(code)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", WRITE_ARGVS, ids=lambda argv: argv[0])
def test_full_disk_exit_2_without_traceback(argv, unbuffered):
    with open("/dev/full", "w") as full:
        result = run_cli(*argv, stdout=full, env={"PYTHONUNBUFFERED": unbuffered})
    assert result.returncode == 2
    assert result.stderr == _write_error_line(errno.ENOSPC)


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX pipe semantics")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", WRITE_ARGVS, ids=lambda argv: argv[0])
def test_closed_pipe_exit_2_without_traceback(argv, unbuffered):
    # With buffered stdout the interpreter would flush what main could
    # not write once more at exit, and print "Exception ignored".
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_cli(*argv, stdout=write_end, env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == _write_error_line(errno.EPIPE)
