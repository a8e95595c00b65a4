"""Metamorphic relations of the physics.

Phase and scale, checked on the shipped scenarios: a ray does not depend
on the vector chosen to represent it, so multiplying every state and every
spanning vector by a nonzero complex factor must leave the report
unchanged. Each factor is applied to the parsed scenario, so the items
keep their lines and columns.

Evaporation forgets its input, checked on generated scenarios: a
``blackhole`` step emits a state drawn from its sub-seed alone, so
swallowing any other declared state changes the report only in that
step's ``state`` field.
"""

import cmath
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svq import SvqError, emit_report, parse_scenario, run_scenario
from svq.scenario import BlackholeStep, PropDecl, Scenario, StateDecl

from scenario_strategies import scenario_texts

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.svq"))
FACTORS = [2, -1, 1j, 0.5 * cmath.exp(1j * math.pi / 3), 3e-3 - 7j]
SEEDS = range(4)


def scaled(scenario: Scenario, factor: complex) -> Scenario:
    items = []
    for item in scenario.items:
        if isinstance(item, StateDecl):
            item = dataclasses.replace(item, components=tuple(factor * z for z in item.components))
        elif isinstance(item, PropDecl):
            vectors = tuple(tuple(factor * z for z in row) for row in item.vectors)
            item = dataclasses.replace(item, vectors=vectors)
        items.append(item)
    return Scenario(tuple(items))


def assert_close(got, want, where="$"):
    """Equal JSON values, with floats equal to a relative tolerance of 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float) and math.isclose(got, want, rel_tol=1e-12), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got, want)
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.stem)
def test_phase_and_scale_leave_the_report_unchanged(path):
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    for seed in SEEDS:
        base = run_scenario(scenario, {"seed": seed})
        base_text, base_json = emit_report(base, "text"), json.loads(emit_report(base, "json"))
        for factor in FACTORS:
            report = run_scenario(scaled(scenario, factor), {"seed": seed})
            assert emit_report(report, "text") == base_text, (factor, seed)
            # Feasibility overlaps in the JSON may differ in their last digit.
            assert_close(json.loads(emit_report(report, "json")), base_json)


def json_outcome(scenario: Scenario, overrides: dict):
    """The JSON report, parsed, or the type and text of the error the run raised."""
    try:
        return json.loads(emit_report(run_scenario(scenario, overrides), "json"))
    except SvqError as err:
        return type(err).__name__, str(err)


# The emitted state does not depend on the swallowed one at all, so the
# relation is exact and needs no margin from the tolerance boundaries. Loose
# tolerances leave truth values that depend on the emitted state, where at
# 1e-9 a Haar state gaps every proper prop. A basis state declared just
# above the step makes sure another state exists.
@settings(max_examples=100)
@given(
    scenario_texts().filter(lambda text: "blackhole" in text),
    st.data(),
    st.integers(0, 2**32),
    st.sampled_from([1e-9, 0.05, 0.5]),
)
def test_evaporation_forgets_its_input(text, data, seed, tol):
    items = list(parse_scenario(text).items)
    hole = data.draw(st.sampled_from([i for i, item in enumerate(items) if type(item) is BlackholeStep]))
    dim = next(len(item.components) for item in items if type(item) is StateDecl)
    axis = data.draw(st.integers(0, dim - 1))
    items.insert(hole, StateDecl("extra", tuple(complex(i == axis) for i in range(dim)), line=items[hole].line))
    hole += 1
    others = [
        item.name for item in items[:hole] if type(item) is StateDecl and item.name != items[hole].state
    ]
    swapped = items.copy()
    swapped[hole] = dataclasses.replace(items[hole], state=data.draw(st.sampled_from(others)))
    overrides = {"seed": seed, "tol": tol}
    base, other = json_outcome(Scenario(tuple(items)), overrides), json_outcome(Scenario(tuple(swapped)), overrides)
    if isinstance(base, dict) and isinstance(other, dict):
        for report in (base, other):
            (step,) = [step for step in report["steps"] if step["index"] == hole + 1]
            step["state"] = None
    assert other == base
