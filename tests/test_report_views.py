"""Report views against the plain lists of dicts they stand for.

A record step's ``recorded``, a reconstruct step's ``samples``, every other
step's ``transitions`` and, once a check ran, ``violations`` are read-only
views over the ledger's columns, the runner's transition tuples and the
audit's tuples. ``materialized`` turns each view into the list of dicts it
stands for. emit_report must render a report with views as json.dumps
renders the materialized payload and as the generic writer it replaced
(``json_oracle``) renders the payload, and as the text renderer that read
those lists of dicts, kept below as ``old_text_report``, renders it; and a
report built by hand from the plain lists must render to the same bytes.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svq import Ledger, StepError, SvqError, TruthValue, emit_report, parse_scenario, record_valuation, run_scenario
from svq.ledger import check_past_unalterability, ledger_lines
from svq.runner import Report, _RecordRows, _Rows, _SampleRows, _ViolationRows, valuation_line

from json_oracle import _json_text
from scenario_strategies import scenario_texts

T, F, G = TruthValue.TRUE, TruthValue.FALSE, TruthValue.GAP
ROW_KEYS = ("recorded", "samples", "transitions")


def materialized(report: Report) -> Report:
    """The report with every view replaced by the list of dicts it reads as."""
    steps = [
        {key: list(value) if key in ROW_KEYS else value for key, value in step.items()}
        for step in report.steps
    ]
    return report._replace(steps=steps, violations=list(report.violations))


def plain_payload(report: Report) -> dict:
    return {
        "schema": 1,
        "seed": report.seed,
        "tolerance": report.tolerance,
        "p_one": report.p_one,
        "steps": report.steps,
        "valuations": report.valuations,
        "feasibility": report.feasibility,
        "violations": report.violations,
        "checks_run": report.checks_run,
        "ledger": ledger_lines(report.ledger),
    }


# The text renderer as it was before the views, over plain lists of dicts.


def _step_head(step: dict) -> str:
    """What a step's line shows after its kind."""
    kind = step["kind"]
    if kind == "record":
        return f" at {step['at']}"
    if kind == "clone":
        feas = step["feasibility"]
        verdict = "feasible" if feas["feasible"] else "infeasible"
        return (
            f" {step['source']} -> {step['target']} [non-physical, {verdict}:"
            f" overlap {feas['overlap']:.8f} vs squared {feas['overlap_squared']:.8f}]"
        )
    if kind == "unclone":
        return f" {step['cloned']} blank {step['blank']} [non-physical]"
    if kind == "blackhole":
        return f" {step['state']} (seed {step['seed']})"
    if kind == "evolve":
        return f" {step['state']} [{'unitary' if step['unitary'] else 'renormalized'}]"
    return f" (p_one {step['p_one']!r})"


def old_step_body(step: dict) -> list[str]:
    if step["kind"] == "record":
        return [f"      {e['tense']} {e['prop']} @{e['at']} = {e['truth']}" for e in step["recorded"]]
    if step["kind"] == "reconstruct":
        return [f"      {s['prop']} @{s['at']} := {s['value']}" for s in step["samples"]]
    return [f"      {tr['prop']}: {tr['before']} -> {tr['after']}" for tr in step["transitions"]]


def old_text_report(report: Report) -> str:
    lines = [f"svq report (seed={report.seed}, tol={report.tolerance!r}, p_one={report.p_one!r})"]
    if report.steps:
        lines.append("steps:")
        for step in report.steps:
            lines.append(f"  {step['index']} (line {step['line']}) {step['kind']}{_step_head(step)}")
            lines += old_step_body(step)
    if report.valuations:
        lines.append("valuations:")
        lines += ["  " + valuation_line(entry) for entry in report.valuations]
    if report.feasibility:
        lines.append("feasibility:")
        for entry in report.feasibility:
            verdict = "feasible" if entry["feasible"] else "infeasible"
            lines.append(
                f"  {entry['first']} {entry['second']}: {verdict}"
                f" (overlap {entry['overlap']:.8f}, squared {entry['overlap_squared']:.8f})"
            )
    if report.checks_run:
        lines.append(f"violations ({len(report.violations)}):")
        for v in report.violations:
            lines.append(
                f"  {v['kind']} {v['prop']} @{v['at']}: {v['earlier']} -> {v['later']}"
                f" (asserted at {v['asserted_at']})"
            )
    if len(report.ledger):
        lines.append("ledger:")
        for line in ledger_lines(report.ledger):
            lines.append("  " + line)
    return "\n".join(lines) + "\n"


def views_of(report: Report) -> list:
    found = [step[key] for step in report.steps for key in ROW_KEYS if key in step]
    return found + ([report.violations] if report.checks_run else [])


def check_views_read_as_lists(report: Report) -> None:
    for view in views_of(report):
        rows = list(view)
        assert all(type(row) is dict for row in rows)
        assert view == rows and rows == view and view == view
        assert len(view) == len(rows)
        assert [view[i] for i in range(len(rows))] == rows
        assert view[::-1] == rows[::-1]
        if rows:
            assert view[-1] == rows[-1]
            assert view != rows[:-1]
        with pytest.raises(IndexError):
            view[len(rows)]
        with pytest.raises(TypeError):
            view[0] = {}
        assert not hasattr(view, "append")


def check_rendering(report: Report) -> None:
    plain = materialized(report)
    want_json = (json.dumps(plain_payload(plain), indent=2) + "\n").encode()
    want_text = old_text_report(plain).encode()
    assert emit_report(report, "json") == want_json == (_json_text(plain_payload(report)) + "\n").encode()
    assert emit_report(report, "text") == want_text
    assert emit_report(plain, "json") == want_json
    assert emit_report(plain, "text") == want_text


def edge_cases(text: str, non_ascii: bool, huge_ticks: bool) -> str:
    """text with prop, state and formula names that are not ASCII, or ticks past 2**64."""
    if non_ascii:
        text = text.replace("P", "Ψé")  # only prop names hold a capital P
        text = re.sub(r"\bs(\d+)\b", r"sé\1", re.sub(r"\bf(\d+)\b", r"ƒ\1", text))
    if huge_ticks:
        text = re.sub(r"record at (\d+)", lambda m: f"record at {int(m[1]) + 2**64}", text)
    return text


EMPTY_ROWS = "state s = [1, 0]\nrecord at 0\nreconstruct\ncheck-past\n"
HUGE_AND_NON_ASCII = (
    "state up = [1, 0]\nstate plus = [1, 1]\nprop Zé = span([1, 0])\nprop Ж = span([1, 1])\n"
    "record at 99999999999999999999999\nclone plus -> up\nrecord at 99999999999999999999999\n"
    "reconstruct\ncheck-past\nrecord at 100000000000000000000000\n"
)
LONG_LEDGER = "state phi = [1, 0]\nstate upsilon = [1/sqrt(2), 1/sqrt(2)]\nprop Zplus = span([1, 0])\n" + "".join(
    f"record at {2 * t}\nclone upsilon -> phi\nrecord at {2 * t + 1}\nreconstruct\ncheck-past\n" for t in range(12)
)


@settings(max_examples=150, deadline=None)
@given(st.builds(edge_cases, scenario_texts(), st.booleans(), st.booleans()), st.integers(0, 2**32))
@example(EMPTY_ROWS, 0)
@example(HUGE_AND_NON_ASCII, 3)
@example(LONG_LEDGER, 5)
def test_views_render_as_their_lists_do(text, seed):
    try:
        report = run_scenario(parse_scenario(text), {"seed": seed})
    except (StepError, SvqError):
        return
    check_views_read_as_lists(report)
    check_rendering(report)


@settings(max_examples=100, deadline=None)
@given(scenario_texts(), st.integers(0, 2**32))
def test_every_row_list_of_a_run_is_a_view(text, seed):
    try:
        report = run_scenario(parse_scenario(text), {"seed": seed})
    except (StepError, SvqError):
        return
    views = views_of(report)
    assert len(views) == len(report.steps) + (report.checks_run > 0)
    assert all(isinstance(view, _Rows) for view in views)


def test_the_edge_cases_are_reached():
    empty = run_scenario(parse_scenario(EMPTY_ROWS))
    assert [list(view) for view in views_of(empty)] == [[], [], []]
    report = run_scenario(parse_scenario(HUGE_AND_NON_ASCII), {"seed": 3})
    assert report.steps[0]["recorded"][0] == {
        "prop": "Zé", "at": 99999999999999999999999, "truth": "1", "tense": "present"
    }
    assert "loss" in {v["kind"] for v in report.violations}
    assert "\\u0416" in emit_report(report, "json").decode()


def test_future_tense_rows_render_as_their_lists_do():
    # The runner asserts nothing ahead of its present, so a future-tense
    # row reaches a view only through a ledger built by hand.
    led = record_valuation(Ledger(), 5, "Zé", T, 0)  # a prediction
    led = record_valuation(led, 5, "Zé", F, 5)
    start = len(led)
    led = record_valuation(led, 5, "Zé", G, 7)
    led = record_valuation(led, 2**70, "X", T, 7)
    recorded = _RecordRows(led, start)
    assert list(_RecordRows(led, 0))[0] == {"prop": "Zé", "at": 5, "truth": "1", "tense": "future"}
    bits = record_valuation(led, 5, "Zé", T, 8)
    bits = record_valuation(bits, 2**70, "X", F, 8)
    samples = _SampleRows(bits, len(led), [11, 2**63 - 1])
    report = Report(
        seed=0,
        tolerance=1e-9,
        p_one=0.5,
        steps=[
            {"index": 1, "line": 1, "kind": "record", "at": 7, "recorded": recorded},
            {"index": 2, "line": 2, "kind": "reconstruct", "p_one": 0.5, "samples": samples},
        ],
        violations=_ViolationRows(check_past_unalterability(led)),
        checks_run=1,
        ledger=led,
    )
    assert report.violations == [
        {"kind": "loss", "prop": "Zé", "at": 5, "earlier": "0", "later": "0/0", "asserted_at": 7}
    ]
    check_views_read_as_lists(report)
    check_rendering(report)
