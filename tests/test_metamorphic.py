"""Metamorphic relations of the physics.

Phase and scale, checked on the shipped scenarios: a ray does not depend
on the vector chosen to represent it, so multiplying every state and every
spanning vector by a nonzero complex factor must leave the report
unchanged. Each factor is applied to the parsed scenario, so the items
keep their lines and columns.

Change of basis, checked on the shipped scenarios without ``blackhole``:
membership, overlaps and the copy map are defined by inner products, so
applying one unitary U to every state and spanning vector, and U M U^dagger
to every ``evolve`` matrix, must leave the text report unchanged.

Evaporation forgets its input, checked on generated scenarios: a
``blackhole`` step emits a state drawn from its sub-seed alone, so
swallowing any other declared state changes the report only in that
step's ``state`` field.
"""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svq import SvqError, emit_report, haar_unitary, parse_scenario, run_scenario
from svq.scenario import BlackholeStep, EvolveStep, PropDecl, Scenario, StateDecl

from scenario_strategies import scenario_texts

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.svq"))
FACTORS = [2, -1, 1j, 0.5 * cmath.exp(1j * math.pi / 3), 3e-3 - 7j]
SEEDS = range(4)


def scaled(scenario: Scenario, factor: complex) -> Scenario:
    items = []
    for item in scenario.items:
        if isinstance(item, StateDecl):
            item = item._replace(components=tuple(factor * z for z in item.components))
        elif isinstance(item, PropDecl):
            vectors = tuple(tuple(factor * z for z in row) for row in item.vectors)
            item = item._replace(vectors=vectors)
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


def rotated(scenario: Scenario, unitary_seed: int) -> Scenario:
    """The scenario in another basis: psi -> U psi and M -> U M U^dagger, one U per dimension."""
    unitaries = {}

    def unitary(dim: int) -> np.ndarray:
        if dim not in unitaries:
            unitaries[dim] = haar_unitary(dim, np.random.default_rng([unitary_seed, dim])).entries
        return unitaries[dim]

    def turn(vector) -> tuple:
        return tuple((unitary(len(vector)) @ np.array(vector, dtype=complex)).tolist())

    items = []
    for item in scenario.items:
        if isinstance(item, StateDecl):
            item = item._replace(components=turn(item.components))
        elif isinstance(item, PropDecl):
            item = item._replace(vectors=tuple(turn(row) for row in item.vectors))
        elif isinstance(item, EvolveStep):
            u = unitary(len(item.matrix))
            matrix = u @ np.array(item.matrix, dtype=complex) @ u.conj().T
            item = item._replace(matrix=tuple(map(tuple, matrix.tolist())))
        items.append(item)
    return Scenario(tuple(items))


def without_blackhole(path: Path) -> bool:
    return not any(type(item) is BlackholeStep for item in parse_scenario(path.read_text(encoding="utf-8")).items)


@pytest.mark.parametrize("path", [p for p in SCENARIOS if without_blackhole(p)], ids=lambda path: path.stem)
def test_a_change_of_basis_leaves_the_text_report_unchanged(path):
    # blackhole emits a Haar state of its sub-seed in the fixed computational
    # basis, so it is the one step that does not commute with U.
    scenario = parse_scenario(path.read_text(encoding="utf-8"))
    for seed in (0, 1):
        base = emit_report(run_scenario(scenario, {"seed": seed}), "text")
        for unitary_seed in range(5):
            report = run_scenario(rotated(scenario, unitary_seed), {"seed": seed})
            assert emit_report(report, "text") == base, (unitary_seed, seed)


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
    swapped[hole] = items[hole]._replace(state=data.draw(st.sampled_from(others)))
    overrides = {"seed": seed, "tol": tol}
    base, other = json_outcome(Scenario(tuple(items)), overrides), json_outcome(Scenario(tuple(swapped)), overrides)
    if isinstance(base, dict) and isinstance(other, dict):
        for report in (base, other):
            (step,) = [step for step in report["steps"] if step["index"] == hole + 1]
            step["state"] = None
    assert other == base
