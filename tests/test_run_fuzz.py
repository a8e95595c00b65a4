"""Run-time properties of generated scenarios, through the library and the CLI.

Every text comes from the grammar strategy ``scenario_texts``, so it
parses; a run may still be rejected before its first step (a state whose
components all fall below tolerance) or fail in a step (a record before
any state, an unclone without a clone, an evolve that annihilates the
state, ...). The properties are the documented contracts:
exit 1 means exactly "the audit found violations", JSON output is JSON,
every step failure names its step, kind and line, a feasibility verdict
is the no-cloning rule on the pair's overlap, and the audit's violations
are those ``bench/oracles.independent_audit`` finds in the report's ledger.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svq import StepError, SvqError, emit_report, make_state, parse_scenario, run_scenario
from svq.cli import main
from svq.scenario import FeasibleQuery, StateDecl, format_item

from scenario_strategies import scenario_texts

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from oracles import independent_audit, reported_violations  # noqa: E402

tolerances = st.sampled_from([1e-9, 1e-6, 1e-3, 0.05, 0.5])
seeds = st.integers(min_value=0, max_value=2**32)


def cli_run(text: str, *args: str) -> tuple[int, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.svq"
        path.write_text(text, encoding="utf-8")
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(path), *args])
        return code, out.buffer.getvalue()


@settings(max_examples=100)
@given(scenario_texts(), tolerances, seeds)
def test_run_exits_one_exactly_on_violations_and_prints_json(text, tol, seed):
    try:
        report = run_scenario(parse_scenario(text), {"seed": seed, "tol": tol})
    except SvqError:
        expected = 2
    else:
        expected = 1 if report.has_violations else 0
    code, out = cli_run(text, "--format", "json", "--seed", str(seed), "--tol", repr(tol))
    assert code == expected
    if code != 2:
        payload = json.loads(out)
        assert (payload["seed"], payload["tolerance"]) == (seed, tol)


@settings(max_examples=150)
@given(scenario_texts(), tolerances, seeds)
def test_every_step_failure_names_its_step_kind_and_line(text, tol, seed):
    scenario = parse_scenario(text)
    try:
        run_scenario(scenario, {"seed": seed, "tol": tol})
    except StepError as err:
        head = re.match(r"step (\d+) \(([a-z-]+), line (\d+)\): ", str(err))
        assert head, str(err)
        item = scenario.items[int(head[1]) - 1]
        # An item's canonical text starts with its kind.
        assert (head[2], int(head[3])) == (format_item(item).split()[0], item.line)
    except SvqError as err:  # rejected before the first step, at the run's tol
        assert re.match(r"\d+:\d+: ", str(err)), str(err)


@settings(max_examples=150)
@given(scenario_texts(), tolerances, seeds)
def test_feasible_is_infeasible_exactly_on_a_partial_overlap(text, tol, seed):
    # Generated texts ask few feasibility queries, so ask about every pair.
    names = [item.name for item in parse_scenario(text).items if type(item) is StateDecl]
    scenario = parse_scenario(text + "".join(f"feasible {a} {b}\n" for a in names for b in names))
    try:
        report = run_scenario(scenario, {"seed": seed, "tol": tol})
    except SvqError:
        return
    components = {item.name: item.components for item in scenario.items if type(item) is StateDecl}
    queries = [item for item in scenario.items if type(item) is FeasibleQuery]
    assert len(report.feasibility) == len(queries)
    for query, entry in zip(queries, report.feasibility):
        a = make_state(components[query.first], tol).amplitudes
        b = make_state(components[query.second], tol).amplitudes
        overlap = float(abs(np.vdot(a, b)))
        assert (entry["first"], entry["second"]) == (query.first, query.second)
        assert entry["feasible"] == (not (tol <= overlap and 1 - overlap >= tol))


@settings(max_examples=500)
@given(scenario_texts(), seeds)
def test_the_audit_finds_what_the_independent_audit_finds_in_the_ledger(text, seed):
    try:
        report = run_scenario(parse_scenario(text + "check-past\n"), {"seed": seed})
    except SvqError:  # a state below tolerance, or a failed step
        return
    payload = json.loads(emit_report(report, "json"))
    assert reported_violations(payload) == independent_audit(payload["ledger"])
