"""A returned report cannot rewrite the past it records.

Every container that a report from run_scenario reaches through public
names is read-only: the report's fields, its entries and the mappings
nested in them, each view and its public attributes, and each ledger and
its records. ``held`` walks them all and ``mutations`` tries each change in
place on each; every one must raise. What a report hands out as a copy,
the dicts a view builds when read and a ledger's ``columns()`` lists, may
be changed and must not reach the report. Afterwards the report's text
and JSON bytes are those it had before.
"""

import operator
from collections.abc import Mapping

import pytest
from hypothesis import given, settings

from svq import Ledger, StepError, SvqError, TruthValue, emit_report, parse_scenario, run_scenario
from svq._value import Value
from svq.runner import _Rows

from scenario_strategies import scenario_texts

#: What a report holds that holds nothing: its scalars, and the truths of its ledger records.
SCALARS = (str, int, float, TruthValue)


def held(value, path: str = "report"):
    """value and every container it reaches through public names, each with its path."""
    yield path, value
    if isinstance(value, Value):  # the report or a view
        children = [(f"{path}.{name}", getattr(value, name)) for name in value._fields]
    elif isinstance(value, Ledger):
        children = [(f"{path}.records", value.records)]
    elif isinstance(value, Mapping):
        children = [(f"{path}[{key!r}]", item) for key, item in value.items()]
    else:  # a tuple, or whatever sequence stands in for one
        children = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    for child_path, child in children:
        if not isinstance(child, SCALARS):
            yield from held(child, child_path)


def mutations(container):
    """Each change in place to try on container, with its name."""
    key = next(iter(container), 0) if isinstance(container, Mapping) else 0
    yield f"[{key!r}] = None", lambda: operator.setitem(container, key, None)
    yield f"del [{key!r}]", lambda: operator.delitem(container, key)
    yield "append", lambda: container.append(None)
    yield "extend", lambda: container.extend([None])
    yield "clear", lambda: container.clear()
    for name in [name for name in dir(container) if not name.startswith("_")] + ["extra"]:
        yield f".{name} = None", lambda name=name: setattr(container, name, None)
        yield f"del .{name}", lambda name=name: delattr(container, name)


def copies(report):
    """What report hands out as copies: each view's rows and each ledger's columns."""
    for _, value in held(report):
        if isinstance(value, _Rows):
            yield from value
        elif isinstance(value, Ledger):
            yield from value.columns()


def rendered(report) -> tuple[bytes, bytes]:
    return emit_report(report, "text"), emit_report(report, "json")


def assert_past_fixed(report) -> None:
    before = rendered(report)
    made = []
    for path, container in list(held(report)):
        for name, mutate in mutations(container):
            try:
                mutate()
            except (TypeError, AttributeError):
                continue
            except LookupError:  # only a mutable container checks its index or key
                pass
            made.append(f"{path}: {name}")
    assert made == []
    for copy in list(copies(report)):
        copy.clear()
    assert rendered(report) == before


@settings(max_examples=100)
@given(scenario_texts())
def test_no_mutation_reaches_a_returned_report(text):
    try:
        report = run_scenario(parse_scenario(text + "check-past\n"))
    except (StepError, SvqError):
        return
    assert_past_fixed(report)


def test_the_three_rewrites_of_clone_z_are_refused(scenario_dir):
    report = run_scenario(parse_scenario((scenario_dir / "clone_z.svq").read_text(encoding="utf-8")))
    before = rendered(report)
    assert report.violations
    with pytest.raises(TypeError):
        report.steps[0]["index"] = 99
    with pytest.raises(AttributeError):
        report.steps.clear()
    with pytest.raises(AttributeError):
        report.violations.rows = ()
    assert rendered(report) == before
    assert_past_fixed(report)
