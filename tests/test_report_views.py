"""Report views against the plain lists of dicts they stand for.

A record step's ``recorded``, a reconstruct step's ``samples``, every other
step's ``transitions`` and ``violations`` (empty until a check runs) are
read-only views over the ledger's columns, the runner's transition tuples
and the audit's tuples.
``materialized`` turns each view into the list of dicts it stands for.
emit_report must render a report with views as json.dumps renders the
materialized payload and as the generic writer it replaced (``json_oracle``)
renders the payload, and as the text renderer that read those lists of
dicts, kept in ``report_oracle`` as ``old_text_report``, renders it.
"""

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svq import Ledger, StepError, SvqError, TruthValue, emit_report, parse_scenario, record_valuation, run_scenario
from svq.ledger import check_past_unalterability
from svq.runner import Report, _RecordRows, _Rows, _SampleRows, _ViolationRows

from json_oracle import _json_text
from report_oracle import old_text_report, plain_payload
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


def edge_cases(text: str, non_ascii: bool, huge_ticks: bool) -> str:
    """text with prop, state and formula names that are not ASCII, or ticks past 2**64."""
    if non_ascii:
        text = text.replace("P", "Ψé")  # only prop names hold a capital P
        text = re.sub(r"\bs(\d+)\b", r"sé\1", re.sub(r"\bf(\d+)\b", r"ƒ\1", text))
    if huge_ticks:
        text = re.sub(r"record at (\d+)", lambda m: f"record at {int(m[1]) + 2**64}", text)
    return text


EMPTY_ROWS = "state s = [1, 0]\nrecord at 0\nreconstruct\ncheck-past\n"
NO_CHECK = "state s = [1, 0]\nprop Z = span([1, 1])\nrecord at 0\nclone s -> s\n"
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
@example(NO_CHECK, 0)
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
    unchecked = run_scenario(parse_scenario(NO_CHECK))
    assert unchecked.violations == [] and not unchecked.violations
    assert type(unchecked.violations) is _ViolationRows and not unchecked.has_violations
    assert '\n  "violations": [],\n' in emit_report(unchecked, "json").decode()
    assert "violations" not in emit_report(unchecked, "text").decode()
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
    # Each view sits before its step's last field, where the runner puts none:
    # a view renders in whatever field of an entry holds it.
    steps = [
        {"index": 1, "line": 1, "kind": "record", "recorded": recorded, "at": 7},
        {"index": 2, "line": 2, "kind": "reconstruct", "samples": samples, "p_one": 0.5},
    ]
    report = Report(0, 1e-9, steps, [], [], _ViolationRows(check_past_unalterability(led)), 1, led)
    assert report.violations == [
        {"kind": "loss", "prop": "Zé", "at": 5, "earlier": "0", "later": "0/0", "asserted_at": 7}
    ]
    check_views_read_as_lists(report)
    check_rendering(report)
