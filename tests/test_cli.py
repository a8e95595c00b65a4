import json

import pytest

from svq.cli import main


def test_run_clone_scenario_exits_one(scenario_dir, capsys):
    code = main(["run", str(scenario_dir / "clone_z.svq"), "--seed", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert any(v["kind"] == "loss" for v in payload["violations"])


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
