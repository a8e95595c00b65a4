"""Metamorphic relations of the physics, checked on the shipped scenarios.

Phase and scale: a ray does not depend on the vector chosen to represent
it, so multiplying every state and every spanning vector by a nonzero
complex factor must leave the report unchanged. Each factor is applied to
the parsed scenario, so the items keep their lines and columns.
"""

import cmath
import dataclasses
import json
import math
from pathlib import Path

import pytest

from svq import emit_report, parse_scenario, run_scenario
from svq.scenario import PropDecl, Scenario, StateDecl

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
