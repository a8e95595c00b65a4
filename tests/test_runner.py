import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svq import (
    NotCloneShape,
    StepError,
    SvqError,
    check_past_unalterability,
    emit_report,
    parse_scenario,
    run_scenario,
)
from svq import runner
from svq.dynamics import sample_past_reconstruction
from svq.lattice import membership
from svq.runner import Report

from conftest import SCENARIO_DIR
from json_oracle import _json_text
from report_oracle import plain_payload
from test_compile import outcome, reference_run_scenario

CLONE_TEXT = """
state phi = [1, 0]
state upsilon = [1/sqrt(2), 1/sqrt(2)]
prop Zplus = span([1, 0])
record at 0
clone upsilon -> phi
record at 1
reconstruct
check-past
"""


def run_text(text, **overrides):
    return run_scenario(parse_scenario(text), overrides or None)


def test_clone_scenario_transitions_and_violations():
    report = run_text(CLONE_TEXT, seed=3)
    clone_step = next(s for s in report.steps if s["kind"] == "clone")
    assert clone_step["physical"] is False
    assert clone_step["past_lost"] is True
    assert not clone_step["feasibility"]["feasible"]
    assert clone_step["transitions"] == [{"prop": "Zplus", "before": "1", "after": "0/0"}]

    sample = next(s for s in report.steps if s["kind"] == "reconstruct")["samples"][0]
    kinds = [v["kind"] for v in report.violations]
    if sample["value"] == 1:
        assert kinds == ["loss"]
    else:
        assert kinds == ["loss", "flip"]
    assert report.has_violations


def test_reassertion_lands_in_ledger_as_past_gap():
    report = run_text(CLONE_TEXT, seed=3)
    lines = [tuple(line.split("\t")) for line in report_lines(report)]
    assert ("0", "Zplus", "present", "1", "0") == lines[0]
    assert ("0", "Zplus", "past", "0/0", "1") in lines


def report_lines(report):
    from svq import ledger_lines

    return ledger_lines(report.ledger)


def test_down_blank_loses_a_false():
    text = """
state down = [0, 1]
state upsilon = [1/sqrt(2), 1/sqrt(2)]
prop Zplus = span([1, 0])
record at 0
clone upsilon -> down
record at 1
check-past
"""
    report = run_text(text, seed=0)
    clone_step = next(s for s in report.steps if s["kind"] == "clone")
    assert clone_step["transitions"] == [{"prop": "Zplus", "before": "0", "after": "0/0"}]
    assert [v["kind"] for v in report.violations] == ["loss"]
    assert [v["earlier"] for v in report.violations] == ["0"]


def test_feasible_clone_erases_nothing():
    text = """
state phi = [1, 0]
state down = [0, 1]
prop Zplus = span([1, 0])
record at 0
clone down -> phi
record at 1
check-past
"""
    report = run_text(text, seed=0)
    clone_step = next(s for s in report.steps if s["kind"] == "clone")
    assert clone_step["past_lost"] is False
    assert clone_step["feasibility"]["feasible"]
    for tr in clone_step["transitions"]:
        assert not (tr["before"] != "0/0" and tr["after"] == "0/0")
    assert report.violations == []
    assert not report.has_violations


def test_blackhole_scenario_single_loss():
    text = """
state psi0 = [1, 0]
prop P = span([1, 0])
record at 0
blackhole psi0
record at 1
check-past
"""
    report = run_text(text, seed=12)
    assert [v["kind"] for v in report.violations] == ["loss"]
    bh = next(s for s in report.steps if s["kind"] == "blackhole")
    assert bh["past_lost"] is True


def test_unclone_round_trip_keeps_loss():
    text = """
state phi = [1, 0]
state upsilon = [1/sqrt(2), 1/sqrt(2)]
prop Zplus = span([1, 0])
record at 0
clone upsilon -> phi
record at 1
unclone upsilon blank phi
record at 2
reconstruct
check-past
"""
    report = run_text(text, seed=5)
    unclone_step = next(s for s in report.steps if s["kind"] == "unclone")
    assert unclone_step["transitions"] == [{"prop": "Zplus", "before": "0/0", "after": "1"}]
    kinds = [v["kind"] for v in report.violations]
    assert kinds[0] == "loss"
    final_record = [s for s in report.steps if s["kind"] == "record"][-1]
    assert {"prop": "Zplus", "at": 2, "truth": "1", "tense": "present"} in final_record["recorded"]


def test_unclone_without_clone_is_a_step_error():
    text = "state phi = [1, 0]\nunclone phi blank phi"
    with pytest.raises(StepError) as err:
        run_text(text)
    assert isinstance(err.value.cause, NotCloneShape)
    assert err.value.index == 2
    assert err.value.line == 2


def test_unclone_with_wrong_state_is_clone_shape_error():
    text = """
state phi = [1, 0]
state upsilon = [1/sqrt(2), 1/sqrt(2)]
clone upsilon -> phi
unclone phi blank phi
"""
    with pytest.raises(StepError) as err:
        run_text(text)
    assert isinstance(err.value.cause, NotCloneShape)
    assert str(err.value.cause) == "factors differ beyond tolerance; not the output of a clone"


def test_clone_and_unclone_build_no_joint_state():
    # A joint state of d = 2048 holds d² complex amplitudes, 64 MiB; the
    # copy map acts on the pair's factors, so the run stays near the size
    # of its three states.
    dim = 2048
    text = "".join(
        f"state {name} = [" + ", ".join("1" if i == axis else "0" for i in range(dim)) + "]\n"
        for axis, name in enumerate("abc")
    )
    scenario = parse_scenario(text + "clone a -> b\nunclone a blank b\n")
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [step["kind"] for step in report.steps] == ["clone", "unclone"]
    assert peak < 32 * 2**20


def test_a_prop_whose_spanning_norm_overflows_is_not_the_zero_subspace():
    text = """
state a = [1, 0]
prop P = span([1.7e308, 1.7e308])
prop Q = span([1.7e308i, 1e308-1e308i], [1, 0])
record at 0
"""
    (record,) = run_text(text).steps
    assert [row["truth"] for row in record["recorded"]] == ["0/0", "0/0"]


# The runner keeps one valuation row per state, which records,
# transitions, eval and super all read. The library calls stay visible
# under the runner's module globals, where the benchmark tracer counts them.

MEMO_STATES = {"up": "[1, 0]", "down": "[0, 1]", "plus": "[1, 1]", "tilt": "[2, 1]"}
MEMO_QUERIES = ["", *(f"eval {name} in {prop}" for name in MEMO_STATES for prop in "ZX"), "super both", "super z"]

memo_ticks = st.lists(
    st.tuples(
        st.sampled_from(sorted(MEMO_STATES)),
        st.sampled_from(sorted(MEMO_STATES)),
        st.sampled_from(["", "blackhole up", "evolve plus by [[0, 1], [1, 0]]", "prop Y = span([1, 2])"]),
        st.sampled_from(MEMO_QUERIES),
    ),
    min_size=1,
    max_size=6,
)


def memo_scenario(ticks):
    lines = [f"state {name} = {vector}" for name, vector in MEMO_STATES.items()]
    lines += ["prop Z = span([1, 0])", "prop X = span([1, 1])", "formula both = Z and not X", "formula z = Z"]
    for tick, (src, tgt, extra, query) in enumerate(ticks):
        if extra.startswith("prop") and extra in lines:  # Y is declared once
            extra = ""
        lines += [f"record at {2 * tick}", f"clone {src} -> {tgt}", extra, query, f"record at {2 * tick + 1}"]
        lines += ["reconstruct", "check-past"]
    return "\n".join(lines) + "\n"


@settings(max_examples=30)
@given(memo_ticks)
def test_membership_runs_once_per_state_and_prop_and_every_record_is_appended(ticks):
    calls = {"membership": 0, "record_valuation": 0}
    pairs, states = set(), []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "membership":
                pairs.add((id(args[0]), id(args[1])))
                states.append(args[0])  # keeps every id distinct
            return original(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(runner, name, counting(name, getattr(runner, name)))
        report = run_text(memo_scenario(ticks), seed=4)
    assert 0 < calls["membership"] <= len(pairs)
    assert calls["record_valuation"] == len(report.ledger)


def test_the_valuations_scenario_calls_membership_once_per_state_and_prop(monkeypatch):
    # Two states queried in four and two props, then three super queries
    # on the first, whose atoms its eval queries already hold.
    calls = []
    monkeypatch.setattr(runner, "membership", lambda *args: calls.append(args) or membership(*args))
    report = run_text((SCENARIO_DIR / "valuations.svq").read_text(encoding="utf-8"))
    assert [entry["kind"] for entry in report.valuations] == ["eval"] * 6 + ["super"] * 3
    assert len(calls) == 6


def test_the_row_memo_keeps_no_replaced_state():
    # Each black hole emits a new state of d = 4096 amplitudes, 64 KiB; a
    # memo that kept every system it had seen would hold all 100 of them.
    dim = 4096
    vector = "[" + ", ".join("1" if i == 0 else "0" for i in range(dim)) + "]"
    steps = "".join(f"blackhole s\nrecord at {tick}\n" for tick in range(100))
    scenario = parse_scenario(f"state s = {vector}\nprop P = span({vector})\n" + steps)
    tracemalloc.start()
    try:
        report = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.ledger) == 100
    assert peak < 3 * 2**20


def test_record_before_any_state_is_a_step_error():
    with pytest.raises(StepError) as err:
        run_text("prop Z = span([1, 0])\nrecord at 0")
    assert err.value.index == 2


def test_non_monotone_record_is_a_step_error():
    text = "state phi = [1, 0]\nprop Z = span([1, 0])\nrecord at 1\nrecord at 0"
    with pytest.raises(StepError) as err:
        run_text(text)
    assert err.value.index == 4


def test_eval_super_and_feasible_queries():
    text = """
state up = [1, 0]
prop Zplus = span([1, 0])
prop Xplus = span([1, 1])
formula lem = Xplus or not Xplus
eval up in Xplus
super lem
feasible up up
"""
    report = run_text(text)
    assert report.valuations[0] == {
        "kind": "eval",
        "state": "up",
        "prop": "Xplus",
        "truth": "0/0",
    }
    assert report.valuations[1]["truth"] == "1"
    assert report.valuations[1]["atoms"] == {"Xplus": "0/0"}
    assert report.feasibility[0]["feasible"] is True


def test_runs_are_referentially_transparent():
    scenario = parse_scenario(CLONE_TEXT)
    a = emit_report(run_scenario(scenario, {"seed": 9}), "json")
    b = emit_report(run_scenario(scenario, {"seed": 9}), "json")
    assert a == b


def test_seed_override_changes_reconstruction_stream():
    scenario = parse_scenario(CLONE_TEXT)
    values = {
        seed: run_scenario(scenario, {"seed": seed}).steps[-1]["samples"][0]["value"]
        for seed in range(8)
    }
    assert set(values.values()) == {0, 1}


def test_reconstruct_p_override_in_text():
    text = CLONE_TEXT.replace("reconstruct", "reconstruct p 1")
    report = run_text(text, seed=2)
    sample = next(s for s in report.steps if s["kind"] == "reconstruct")["samples"][0]
    assert sample["value"] == 1
    assert [v["kind"] for v in report.violations] == ["loss"]


def test_json_report_schema():
    report = run_text(CLONE_TEXT, seed=1)
    raw = emit_report(report, "json").decode()
    payload = json.loads(raw)
    assert payload["schema"] == 1
    for key in ("seed", "tolerance", "p_one", "steps", "valuations", "violations", "ledger"):
        assert key in payload
    assert payload["seed"] == 1
    truths = [e["truth"] for s in payload["steps"] if s["kind"] == "record" for e in s["recorded"]]
    assert "1" in truths and "0/0" in truths


def test_json_true_valuation_field_literal():
    report = run_text("state up = [1, 0]\nprop Z = span([1, 0])\neval up in Z")
    raw = emit_report(report, "json").decode()
    assert '"truth": "1"' in raw


def test_text_report_renders_gaps():
    report = run_text(CLONE_TEXT, seed=1)
    text = emit_report(report, "text").decode()
    assert "0/0" in text
    assert "non-physical" in text


def test_unknown_format_rejected():
    report = run_text("state phi = [1, 0]")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_json_report_refuses_non_finite_numbers():
    report = run_text("state phi = [1, 0]\n")._replace(tolerance=float("nan"))
    with pytest.raises(ValueError):
        emit_report(report, "json")


CLONE_HEADER = """
state phi = [1, 0]
state upsilon = [1/sqrt(2), 1/sqrt(2)]
prop Zplus = span([1, 0])
prop Xplus = span([1/sqrt(2), 1/sqrt(2)])
"""


def clone_ticks(first, count, audit_each):
    lines = []
    for tick in range(first, first + count):
        lines += [f"record at {2 * tick}", "clone upsilon -> phi", f"record at {2 * tick + 1}", "reconstruct"]
        if audit_each:
            lines.append("check-past")
    return lines


@pytest.mark.parametrize("audit_each", [True, False], ids=["audit-each", "audit-once"])
def test_violations_are_those_of_the_ledger_at_the_last_check(audit_each):
    audited = clone_ticks(0, 3, audit_each) + ([] if audit_each else ["check-past"])
    cut = CLONE_HEADER + "\n".join(audited) + "\n"
    full = cut + "\n".join(clone_ticks(3, 2, audit_each=False)) + "\n"
    at_cut = run_text(cut, seed=5)
    report = run_text(full, seed=5)
    assert report.checks_run == at_cut.checks_run == (3 if audit_each else 1)
    assert report.violations == at_cut.violations
    assert report.violations
    with pytest.raises(AttributeError, match="^cannot assign to field 'violations'$"):
        report.violations = at_cut.violations  # a returned report is frozen
    # The records after the last check-past hold violations of their own,
    # which the report must not list.
    assert len(check_past_unalterability(report.ledger)) > len(report.violations)


def test_reconstruct_draws_the_same_sub_seeds_as_one_draw_per_lost_key():
    report = run_text(CLONE_HEADER + "\n".join(clone_ticks(0, 2, audit_each=False)) + "\n", seed=9)
    seeds = [
        sample["seed"]
        for step in report.steps
        if step["kind"] == "reconstruct"
        for sample in step["samples"]
    ]
    rng = np.random.default_rng(9)
    assert len(seeds) > 2
    assert seeds == [int(rng.integers(0, 2**63)) for _ in seeds]



def test_a_run_builds_its_generator_only_when_a_step_draws(monkeypatch):
    # A run with no blackhole step, and no reconstruct step that lost a key,
    # never draws, so it never builds the generator its seed would give.
    calls = []
    default_rng = np.random.default_rng

    def counting_default_rng(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    quiet = CLONE_HEADER + "record at 0\nclone upsilon -> phi\nrecord at 1\neval phi in Zplus\ncheck-past\n"
    run_text(quiet, seed=6)
    run_text(NOTHING_LOST, seed=6)
    assert calls == []
    # With draws, the first generator is the run's, and its stream gives the
    # blackhole's sub-seed and then one per lost key, in step order.
    report = run_text(CLONE_HEADER + "record at 0\nblackhole upsilon\nrecord at 1\nreconstruct\n", seed=6)
    assert calls[0] == (6,)
    blackhole, reconstruct = (step for step in report.steps if step["kind"] in ("blackhole", "reconstruct"))
    rng = default_rng(6)
    assert blackhole["seed"] == int(rng.integers(0, 2**63))
    seeds = [sample["seed"] for sample in reconstruct["samples"]]
    assert seeds and seeds == rng.integers(0, 2**63, size=len(seeds)).tolist()


# A run draws its reconstructed bits after its last step, one kernel call
# per distinct p. The reference runner in test_compile.py draws them at
# every step, as the runner did before, and stays here as the oracle.


def reconstruct_rounds(props, rounds):
    """A scenario of one reconstruct per round, at the round's p suffix.

    Each round records the props on |0> (determinate, half true and half
    false), erases every determinate record so far with an infeasible
    clone and reconstructs it, so round r draws props * (r + 1) bits. A
    check-past after the second round audits a shorter ledger than the
    final one.
    """
    lines = ["state phi = [1, 0]", "state tilt = [1/sqrt(2), 1/sqrt(2)]"]
    lines += [f"prop P{i} = span([{1 - i % 2}, {i % 2}])" for i in range(props)]
    for r, p in enumerate(rounds):
        lines += ["clone phi -> phi", f"record at {2 * r}", "clone tilt -> phi", f"record at {2 * r + 1}"]
        lines.append(f"reconstruct{p}")
        if r == 1:
            lines.append("check-past")
    return "\n".join(lines) + "\n"


def drawn_per_p(report):
    """The bits the report's reconstruct steps drew, counted per p, in
    order of first appearance."""
    totals = {}
    for step in report.steps:
        if step["kind"] == "reconstruct" and step["samples"]:
            totals[step["p_one"]] = totals.get(step["p_one"], 0) + len(step["samples"])
    return totals


#: (props, round suffixes, bits drawn per p). The totals lie below, at and
#: above the kernel's _SCALAR_CUTOFF of 8; a bare reconstruct and one at
#: p 0.5 draw in one batch.
DEFERRED_DRAWS = {
    "below": (1, ["", " p 0.25", " p 1"], {0.5: 1, 0.25: 2, 1.0: 3}),
    "at": (2, ["", " p 1", "", " p 0.25"], {0.5: 8, 1.0: 4, 0.25: 8}),
    "above": (4, ["", " p 0.25", " p 1", "", " p 0.25"], {0.5: 20, 0.25: 28, 1.0: 12}),
    "merged": (1, ["", " p 0.5", " p 1", ""], {0.5: 7, 1.0: 3}),
}


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("case", DEFERRED_DRAWS)
def test_bits_drawn_per_run_match_those_drawn_per_step(case, seed):
    props, rounds, totals = DEFERRED_DRAWS[case]
    scenario = parse_scenario(reconstruct_rounds(props, rounds))
    overrides = {"seed": seed}
    report = reference_run_scenario(scenario, overrides)
    assert drawn_per_p(report) == totals
    assert 0 < len(report.violations) < len(check_past_unalterability(report.ledger))
    assert outcome(run_scenario, scenario, overrides) == outcome(reference_run_scenario, scenario, overrides)


NOTHING_LOST = "state up = [1, 0]\nprop Z = span([1, 0])\nrecord at 0\nreconstruct\nreconstruct p 1\n"


@pytest.mark.parametrize(
    "text",
    [reconstruct_rounds(*DEFERRED_DRAWS[case][:2]) for case in DEFERRED_DRAWS]
    + [NOTHING_LOST, CLONE_TEXT, CLONE_TEXT.replace("reconstruct", "reconstruct p 1")],
    ids=[*DEFERRED_DRAWS, "nothing-lost", "clone", "clone-p1"],
)
def test_a_run_draws_once_per_p_that_lost_keys(text, monkeypatch):
    calls = []

    def counting_draw(p, seeds):
        calls.append((p, len(seeds)))
        return sample_past_reconstruction(p, seeds)

    monkeypatch.setattr(runner, "sample_past_reconstruction", counting_draw)
    report = run_text(text)
    # Each call pays the kernel's fixed cost; a reconstruct that lost no
    # key pays nothing.
    assert calls == list(drawn_per_p(report).items())


def test_every_field_a_handler_returns_reaches_the_json(scenario_dir, monkeypatch):
    # An entry's JSON is its dict, each field written by its value's type, so
    # a field a handler adds needs no renderer of its own.
    handler, *rest = runner._ITEMS["blackhole"]

    def blackhole_with_extras(run, item, operands):
        fields = handler(run, item, operands)
        transitions = fields.pop("transitions")
        return {**fields, "entropy": 0.6931471805599453, "evaporated": True, "transitions": transitions}

    monkeypatch.setitem(runner._ITEMS, "blackhole", (blackhole_with_extras, *rest))
    report = run_scenario(parse_scenario((scenario_dir / "blackhole.svq").read_text(encoding="utf-8")), {"seed": 4})
    out = emit_report(report, "json")
    assert out == (_json_text(plain_payload(report)) + "\n").encode()
    (step,) = (step for step in json.loads(out)["steps"] if step["kind"] == "blackhole")
    assert list(step)[-3:] == ["entropy", "evaporated", "transitions"]
    assert (step["entropy"], step["evaporated"]) == (0.6931471805599453, True)


# The generic JSON writer that emit_report replaced, kept in json_oracle as
# emit_report's oracle, against json.dumps.

def dumps(value):
    return json.dumps(value, indent=2, allow_nan=False)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é✓\U0001f600", "\ud800", "0/0"]),
)


class Tagged(str):
    pass


class LoudInt(int):
    def __repr__(self):
        return "loud"


# Dicts with exactly the key tuple of a report row, as a hand-built report
# holds them. Each row holds values of the expected types, except that one
# slot, or none, holds a value from json_scalars or a str or int subclass
# instead.
ROW_KEYS = {
    ("prop", "at", "truth", "tense"): (str, int, str, str),
    ("prop", "at", "value", "seed"): (str, int, int, int),
    ("kind", "prop", "at", "earlier", "later", "asserted_at"): (str, str, int, str, str, int),
}
exact_values = {str: st.text(), int: st.integers()}
odd_values = st.one_of(json_scalars, st.text().map(Tagged), st.integers().map(LoudInt))


def report_rows(keys, kinds):
    def build(values, slot, odd):
        values = list(values)
        if slot < len(values):
            values[slot] = odd
        return dict(zip(keys, values))

    exact = st.tuples(*(exact_values[kind] for kind in kinds))
    return st.builds(build, exact, st.integers(0, len(keys)), odd_values)


json_rows = st.one_of([report_rows(keys, kinds) for keys, kinds in ROW_KEYS.items()])
json_values = st.recursive(
    json_scalars | json_rows,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=40,
)


@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == dumps(value)


@given(st.lists(json_rows, max_size=8))
def test_json_writer_renders_report_rows_as_json_does(rows):
    value = {"rows": rows}
    assert _json_text(value) == dumps(value)


def test_json_writer_renders_rows_by_their_templates_as_json_does():
    rows = [
        {"prop": "Z", "at": 3, "truth": "0/0", "tense": "past"},
        {"prop": "Z", "at": True, "truth": "1", "tense": "present"},
        {"prop": "Z", "at": 3, "value": 1, "seed": 2**63 - 1},
        {"prop": "Z", "at": 3, "value": 1.0, "seed": 5},
        {"kind": "loss", "prop": "é\n", "at": 0, "earlier": "1", "later": "0/0", "asserted_at": 4},
        {"kind": "flip", "prop": Tagged("Z"), "at": 0, "earlier": "1", "later": "0", "asserted_at": 4},
        {"at": 3, "prop": "Z", "truth": "1", "tense": "present"},
    ]
    assert _json_text([rows, {"rows": rows}]) == dumps([rows, {"rows": rows}])


class LoudFloat(float):
    def __repr__(self):
        return "loud"


def test_json_writer_renders_subclasses_as_json_does():
    value = {
        "int": LoudInt(3),
        "float": LoudFloat(2.5),
        "str": Tagged("x"),
        "nested": [LoudInt(1), (LoudFloat(-0.0),), {Tagged("k"): Tagged("y")}],
        "empty": [{}, [], ()],
    }
    assert _json_text(value) == dumps(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_rejects_non_finite_floats(bad):
    for value in (bad, [1, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(ValueError):
            dumps(value)
        with pytest.raises(ValueError):
            _json_text(value)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", np.int64(3), {"k": {(1, 2): 3}}])
def test_json_writer_rejects_other_types(bad):
    with pytest.raises(TypeError):
        dumps([bad])
    with pytest.raises(TypeError):
        _json_text([bad])


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_json_writer_accepts_only_string_keys(key):
    with pytest.raises(TypeError):
        _json_text({"a": {key: 1}})


# Overrides are validated before the first step.

INSIDE_Z = "state up = [1, 0]\nprop Z = span([1, 0])\nrecord at 0\nreconstruct\n"


@pytest.mark.parametrize(
    "tol",
    [float("nan"), -1.0, 0.0, 1.0, float("inf"), pytest.param(10**400, id="10**400"), Fraction(10**400, 3),
     pytest.param(Fraction(1, 10**400), id="0.0 as a float"), "0.1", True, pytest.param([0.1], id="[0.1]")],
)
def test_run_rejects_a_tolerance_outside_the_open_unit_interval(tol):
    # A NaN or negative tol used to record "present Z @0 = 0/0" here; 10**400
    # and Fraction(10**400, 3) raised a bare OverflowError, Fraction(1,
    # 10**400), inside (0, 1) exactly, ran, and "0.1" raised a bare TypeError.
    with pytest.raises(SvqError, match="tol") as info:
        run_text(INSIDE_Z, tol=tol)
    assert not isinstance(info.value, StepError)


def test_run_accepts_boundary_overrides():
    report = run_text(INSIDE_Z, tol=1e-6)
    assert (report.tolerance, report.p_one) == (1e-6, 0.5)
    assert report.steps[0]["recorded"] == [{"prop": "Z", "at": 0, "truth": "1", "tense": "present"}]


def test_run_rejects_a_p_one_override_before_the_first_step():
    # A reconstruction's p is set per step, not per run.
    scenario = parse_scenario("state up = [1, 0]\nstate down = [0, 1]\nunclone up blank down\n")
    with pytest.raises(StepError):
        run_scenario(scenario)
    with pytest.raises(SvqError, match="^unknown override 'p_one'$") as info:
        run_scenario(scenario, {"p_one": 0.25})
    assert not isinstance(info.value, StepError)
    assert Report.p_one == 0.5 and "p_one" not in Report._fields


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_run_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    # -1 used to raise numpy's bare ValueError and 1.5 a TypeError.
    with pytest.raises(SvqError, match="seed") as info:
        run_text(INSIDE_Z, seed=seed)
    assert not isinstance(info.value, StepError)


def test_tol_is_stored_as_a_float():
    # Both used to reach the text header as Fraction(...) and np.float32(...),
    # and JSON emission of either raised a bare TypeError.
    exact = run_text(INSIDE_Z, tol=Fraction(1, 10**9))
    assert type(exact.tolerance) is float
    for fmt in ("text", "json"):
        assert emit_report(exact, fmt) == emit_report(run_text(INSIDE_Z, tol=1e-9), fmt)
    single = run_text(INSIDE_Z, tol=np.float32(1e-6))
    assert "tol=9.999999974752427e-07," in emit_report(single, "text").decode().splitlines()[0]
    json.loads(emit_report(single, "json"))
