import json
import math

import pytest

from svq.cli import _build_parser, main


def test_run_clone_scenario_exits_one(scenario_dir, capsys):
    code = main(["run", str(scenario_dir / "clone_z.svq"), "--seed", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert any(v["kind"] == "loss" for v in payload["violations"])


def test_eval_exits_zero_although_the_audit_finds_violations(scenario_dir, capsys):
    # Exit 1 is svq run's alone: eval prints valuations, not the audit.
    assert main(["run", str(scenario_dir / "clone_z.svq"), "--seed", "0"]) == 1
    capsys.readouterr()
    assert main(["eval", str(scenario_dir / "clone_z.svq"), "--seed", "0"]) == 0


def test_run_control_scenario_exits_zero(scenario_dir, capsys):
    code = main(["run", str(scenario_dir / "no_clone_control.svq"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["violations"] == []
    assert payload["checks_run"] == 1


def test_run_text_format_mentions_gap(scenario_dir, capsys):
    code = main(["run", str(scenario_dir / "clone_z.svq"), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "0/0" in out


def test_check_valid_file(scenario_dir, capsys):
    code = main(["check", str(scenario_dir / "valuations.svq")])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_check_reports_syntax_position(tmp_path, capsys):
    bad = tmp_path / "bad.svq"
    bad.write_text("state phi = [1, ]\n", encoding="utf-8")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "1:17" in err


@pytest.mark.parametrize("command", ["run", "eval", "check"])
def test_a_utf8_byte_order_mark_changes_nothing(scenario_dir, tmp_path, capsys, monkeypatch, command):
    # Some editors start a UTF-8 file with EF BB BF; the copy keeps the
    # file name, so check's "<file>: ok" line is the same too.
    (tmp_path / "clone_z.svq").write_bytes(b"\xef\xbb\xbf" + (scenario_dir / "clone_z.svq").read_bytes())
    results = []
    for directory in (scenario_dir, tmp_path):
        monkeypatch.chdir(directory)
        code = main([command, "clone_z.svq", "--seed", "3"])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1]
    assert results[0][0] == (1 if command == "run" else 0)


def test_missing_file(capsys):
    code = main(["run", "does-not-exist.svq"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_eval_prints_query_results(scenario_dir, capsys):
    code = main(["eval", str(scenario_dir / "valuations.svq")])
    out = capsys.readouterr().out
    assert code == 0
    assert "eval up in Zplus = 1" in out
    assert "eval up in Xplus = 0/0" in out
    assert "super excluded_middle = 1" in out
    assert "super contradiction = 0" in out


def test_seed_flag_is_echoed(scenario_dir, capsys):
    main(["run", str(scenario_dir / "blackhole.svq"), "--seed", "31", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 31


def test_tol_flag_is_echoed(scenario_dir, capsys):
    main(["run", str(scenario_dir / "valuations.svq"), "--tol", "1e-7", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["tolerance"] == 1e-7


def test_deep_nesting_exits_two_with_a_position(tmp_path, capsys):
    deep = tmp_path / "deep.svq"
    deep.write_text(
        "state s = [1, 0]\nprop A = span([1, 0])\nformula f = " + "not " * 5000 + "A\nsuper f\n",
        encoding="utf-8",
    )
    code = main(["run", str(deep)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: 3:") and "nested deeper" in err


def test_unexpected_exception_exits_two(scenario_dir, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("svq.cli.run_scenario", broken)
    code = main(["run", str(scenario_dir / "valuations.svq")])
    assert code == 2
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1"])
def test_tol_outside_the_open_unit_interval_exits_two(scenario_dir, capsys, command, tol):
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(scenario_dir / "valuations.svq"), "--tol", tol])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_eval_accepts_a_tol_inside_the_open_unit_interval(scenario_dir, capsys):
    assert main(["eval", str(scenario_dir / "valuations.svq"), "--tol", "0.5"]) == 0
    assert "super excluded_middle = 1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "eval"])
@pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
def test_seed_that_is_not_a_non_negative_integer_exits_two(scenario_dir, capsys, command, seed):
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(scenario_dir / "blackhole.svq"), "--seed", seed])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_value_error_inside_a_step_carries_its_position(tmp_path, capsys):
    overflow = tmp_path / "overflow.svq"
    overflow.write_text(
        "state d = [1, 1]\nevolve d by [[1.5e308, 1.5e308], [0, 1]]\n", encoding="utf-8"
    )
    code = main(["run", str(overflow)])
    assert code == 2
    assert "error: step 2 (evolve, line 2): components must be finite" in capsys.readouterr().err


def test_overflowing_evolve_prints_only_the_positioned_error(tmp_path, run_cli):
    # The overflowing products used to print numpy RuntimeWarnings first.
    overflow = tmp_path / "overflow.svq"
    overflow.write_text(
        "state d = [1, 1]\nevolve d by [[1.5e308, 1.5e308], [0, 1]]\n", encoding="utf-8"
    )
    done = run_cli("run", str(overflow))
    assert done.returncode == 2
    assert done.stderr.decode() == "error: step 2 (evolve, line 2): components must be finite\n"


@pytest.mark.parametrize("command", ["check", "run"])
def test_non_finite_span_exits_two_with_its_position(tmp_path, capsys, command):
    # check used to accept it, and run to print "eval s in P = 0".
    path = tmp_path / "inf.svq"
    path.write_text("state s = [1, 0]\nprop P = span([1e999, 0])\neval s in P\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: 2:1: spanning vectors must be finite")


def test_check_compiles_at_the_given_tol(tmp_path, capsys):
    path = tmp_path / "tiny.svq"
    path.write_text("state s = [1, 0.01]\nprop P = span([0.01, 0])\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert main(["check", str(path), "--tol", "0.1", "--seed", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: 2:1: ")


@pytest.mark.parametrize("tol", ["nan", "0", "1"])
def test_check_rejects_a_tol_outside_the_open_unit_interval(scenario_dir, capsys, tol):
    with pytest.raises(SystemExit) as exit_info:
        main(["check", str(scenario_dir / "valuations.svq"), "--tol", tol])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err


HUGE = "9" * 400


@pytest.mark.parametrize(
    "text, message",
    [
        (f"state s = [{HUGE}, 0]\n", "error: 1:1: components must be finite\n"),
        ("record at " + "1" * 5000 + "\n", "error: 1:11: integer literal too long\n"),
    ],
    ids=["too-large-for-a-float", "beyond-the-digit-limit"],
)
@pytest.mark.parametrize("command", ["check", "run"])
def test_huge_integer_literals_exit_two_with_a_position(tmp_path, capsys, command, text, message):
    # The first used to exit 2 as an "internal error: OverflowError", the
    # second with int()'s digit-limit message and no position.
    path = tmp_path / "huge.svq"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["check", "run"])
def test_non_finite_evolve_matrix_exits_two_with_its_position(tmp_path, capsys, command):
    # check used to print "ok", and run to fail with an unpositioned step error.
    path = tmp_path / "inf.svq"
    path.write_text("state s = [1, 0]\nevolve s by [[1e999, 0], [0, 1]]\n", encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "error: 2:1: operator entries must be finite\n"


def test_a_determinate_value_recorded_after_a_gap_can_be_lost(tmp_path, capsys):
    # Z @0 is first recorded as 0/0 and then as 1. Only the first record
    # used to count, so the second clone erased nothing and the run passed.
    path = tmp_path / "gap_first.svq"
    path.write_text(
        "state a = [1, 1]\nstate b = [1, 0]\nprop Z = span([1, 0])\nrecord at 0\n"
        "clone b -> a\nrecord at 0\nclone a -> b\nrecord at 1\ncheck-past\n",
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violations (1):\n  loss Z @0: 1 -> 0/0 (asserted at 1)\n" in out


def near_unitary(eps: float) -> list[list[float]]:
    """sqrt(I + eps (J - I)) in dimension 4, J the all-ones matrix.

    M^dagger M - I is eps (J - I), whose largest entry is eps, but M
    stretches [1, 1, 1, 1] by sqrt(1 + 3 eps)."""
    a = math.sqrt(1 - eps)
    b = (math.sqrt(1 + 3 * eps) - a) / 4
    return [[a + b if i == j else b for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("eps, tol", [(0.9e-9, "1e-09"), (0.045, "0.05")])
def test_evolve_applies_a_matrix_it_labels_unitary(tmp_path, capsys, eps, tol):
    # The step used to fail: "operator flagged unitary changed the norm".
    matrix = near_unitary(eps)
    rows = ", ".join("[" + ", ".join(map(repr, row)) + "]" for row in matrix)
    path = tmp_path / "near_unitary.svq"
    path.write_text(
        f"state s = [1, 1, 1, 1]\nprop P = span([1, 1, 1, 1])\nevolve s by [{rows}]\n", encoding="utf-8"
    )
    assert main(["run", str(path), "--tol", tol]) == 0
    out = capsys.readouterr().out
    assert "  3 (line 3) evolve s [unitary]\n      P: 1 -> 1\n" in out


def test_a_span_whose_largest_part_is_subnormal_runs_without_a_warning(tmp_path, run_cli):
    path = tmp_path / "subnormal.svq"
    path.write_text("state s = [1, 0]\nprop P = span([1e-320, 1e-320i])\nrecord at 0\n", encoding="utf-8")
    result = run_cli("run", str(path), "--tol", "5e-324")
    assert result.returncode == 0
    assert result.stderr == b""
    assert b"present P @0 = 0/0" in result.stdout


def test_evolve_keeps_a_spread_state_at_a_loose_tol(tmp_path, capsys):
    # At tol 0.5 every component of [1, 1, 1, 1]/2 is at the zero-vector
    # threshold of make_state, which a unitary's output must not meet.
    path = tmp_path / "identity.svq"
    path.write_text(
        "state s = [1, 1, 1, 1]\nevolve s by [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]\n", encoding="utf-8"
    )
    assert main(["run", str(path), "--tol", "0.5"]) == 0
    assert "  2 (line 2) evolve s [unitary]\n" in capsys.readouterr().out


def _outcomes(argvs, capsys):
    """(exit code, stdout, stderr) of each argv, run in turn in this process."""
    outcomes = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_the_parser_is_built_once_and_leaks_no_state_between_calls(scenario_dir, capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    path = str(scenario_dir / "clone_z.svq")
    argvs = [
        ["run", path, "--seed", "31", "--format", "json"],
        ["run", path],
        ["eval", path, "--seed", "7"],
        ["run", path, "--tol", "2"],
        ["check", path],
        ["run", path, "--format", "json"],
    ]
    reused = _outcomes(argvs, capsys)
    json_run, text_run, eval_run, bad_tol, check, default_seed = reused
    assert json_run[0] == 1 and json.loads(json_run[1])["seed"] == 31
    # No --format and no --seed: the defaults, not the previous call's values.
    assert text_run[0] == 1 and text_run[1].startswith("svq report (seed=0, ")
    assert eval_run == (0, "feasible upsilon phi = infeasible\n", "")
    assert bad_tol[0] == 2 and bad_tol[1] == ""
    assert bad_tol[2].startswith("usage: svq run ") and "--tol" in bad_tol[2]
    assert check == (0, f"{path}: ok\n", "")
    assert json.loads(default_seed[1])["seed"] == 0
    # A parser built afresh for every call gives the same outcomes.
    monkeypatch.setattr("svq.cli._build_parser", _build_parser.__wrapped__)
    assert _outcomes(argvs, capsys) == reused


def test_help_prints_the_same_text_on_every_call(capsys, monkeypatch):
    argvs = [["--help"], ["run", "--help"]]
    outcomes = _outcomes(argvs * 2, capsys)
    first = outcomes[:2]
    assert outcomes[2:] == first
    assert all(code == 0 and out.startswith("usage: svq") and not err for code, out, err in first)
    monkeypatch.setattr("svq.cli._build_parser", _build_parser.__wrapped__)
    assert _outcomes(argvs, capsys) == first
