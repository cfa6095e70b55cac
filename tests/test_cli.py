"""CLI: exit codes, formats, determinism, batch mode, fault injection."""

from __future__ import annotations

import json

import pytest

import surgerycalc.data as bundled
import surgerycalc.exact
import surgerycalc.invariants
from surgerycalc.cli import main
from surgerycalc.selftest import SelfTestFailure, run_checks

from helpers import run_cli


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


def test_classify_orientation_flag(tmp_path, capsys):
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
    code = main(["classify", str(path), "--no-both-orientations"])
    out = capsys.readouterr().out
    assert code == 0
    assert "inconclusive" in out and "thm1" not in out


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
    true_det = surgerycalc.exact.det
    monkeypatch.setattr(surgerycalc.exact, "det", lambda m: -true_det(m))
    with pytest.raises(SelfTestFailure, match=r"det\(M\) = n\*tb\+1 grid"):
        run_checks()


def test_selftest_fault_injection_solve_path(monkeypatch):
    # The matrix-path dual invariants reach the elimination kernel only
    # through solve; a perturbed solution must be caught by the
    # closed-form comparison grid.
    true_solve = surgerycalc.invariants.solve

    def perturbed(matrix, vector):
        solution = true_solve(matrix, vector)
        return (solution[0] + 1,) + solution[1:]

    monkeypatch.setattr(surgerycalc.invariants, "solve", perturbed)
    with pytest.raises(
        SelfTestFailure, match=r"closed-form vs matrix-path dual invariants"
    ):
        run_checks()


def test_selftest_failure_exit_code(monkeypatch, capsys):
    true_det = surgerycalc.exact.det
    monkeypatch.setattr(surgerycalc.exact, "det", lambda m: -true_det(m))
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
