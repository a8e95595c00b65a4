"""svq's value types behave as the dataclasses they replaced.

Each of the 24 classes is built from the same drawn field values in both
forms, the svq class and its @dataclass definition in value_oracle, and
every observable the dataclass defined must agree: == and != (within a
class, across classes, and across source positions, which equality
ignores), hash (identity for states and operators, a TypeError for a
report), repr byte for byte, the error and message of assigning or deleting
an attribute, and _replace against dataclasses.replace. Field values nest
value types, so equality and repr recurse in both forms. A wrong field
count, an unknown keyword, or line or col on a type without them, is a
TypeError in both forms, and svq's message starts with the class name.
"""

import dataclasses
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svq
import value_oracle as oracle
from svq import dynamics, formulas, hilbert, runner, scenario
from svq._value import Value

NEW = {
    cls.__name__: cls
    for cls in (
        hilbert.StateVector, hilbert.Operator, formulas.Atom, formulas.Not, formulas.And, formulas.Or,
        formulas.Implies, dynamics.FeasibilityReport, runner.Report, scenario.ScenarioItem, scenario.StateDecl,
        scenario.PropDecl, scenario.FormulaDecl, scenario.RecordStep, scenario.CloneStep, scenario.UncloneStep,
        scenario.BlackholeStep, scenario.EvolveStep, scenario.ReconstructStep, scenario.EvalQuery,
        scenario.SuperQuery, scenario.CheckPastQuery, scenario.FeasibleQuery, scenario.Scenario,
    )
}
OLD = {name: getattr(oracle, name) for name in NEW}
LOCATED = {name for name, cls in OLD.items() if issubclass(cls, oracle.ScenarioItem)}
#: Classes whose fields any value may fill; the others validate or default theirs.
FREE = sorted(set(NEW) - {"StateVector", "Operator", "Report"})

NAN = float("nan")  # one object, so a tuple holding it equals itself in both forms
SCALARS = st.sampled_from([0, 1, -1, True, False, 0.5, NAN, "", "x", "y", None, (), (1 + 2j, -0.5j), ((1j,), (0j,))])
AMPLITUDES = st.sampled_from([(1, 0), (0, 1j), (2**-0.5, -(2**-0.5)), (0.6, 0.8j, 0)])
ENTRIES = st.sampled_from([((1, 0), (0, 1)), ((0, 1j), (1j, 0)), ((2, 0, 0), (0, 1, 0), (0, 0, 1))])


def positional(name: str) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(OLD[name]) if not f.kw_only]


def required(name: str) -> int:
    return sum(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in positional(name))


@st.composite
def values(draw, depth: int = 2):
    """A field value: a scalar, or the spec of a value type holding more."""
    if depth == 0 or draw(st.booleans()):
        return draw(SCALARS)
    return draw(specs(depth - 1, st.sampled_from(FREE)))


@st.composite
def specs(draw, depth: int = 2, names=st.sampled_from(sorted(NEW))):
    """(class name, positional field values, keyword arguments) of one instance."""
    name = draw(names)
    n = len(positional(name))
    count = draw(st.integers(required(name), n))
    if name == "StateVector":
        fields = [draw(AMPLITUDES)]
    elif name == "Operator":
        fields = [draw(ENTRIES), draw(st.booleans())][:count]
    elif name == "Report":
        fields = [draw(st.sampled_from([0, 7])), draw(st.sampled_from([1e-9, 0.5])), 0.5]
        fields += [[draw(SCALARS)] for _ in range(4)] + [draw(st.integers(0, 3)), svq.Ledger()]
        fields = fields[:count]
    else:
        fields = [draw(values(depth)) for _ in range(count)]
    keywords = {}
    if name in LOCATED:
        keywords = draw(st.fixed_dictionaries({}, optional={"line": st.integers(0, 3), "col": st.integers(0, 3)}))
    return name, tuple(fields), keywords


def build(spec, classes: dict):
    """The instance a spec describes, of classes[name]; scalars as they are."""
    if not (isinstance(spec, tuple) and len(spec) == 3 and isinstance(spec[2], dict)):
        return spec
    name, fields, keywords = spec
    return classes[name](*[build(value, classes) for value in fields], **keywords)


def outcome(action):
    """What action returns, or the type and message of what it raises. Any
    AttributeError counts as one type: the dataclasses raise its subclass
    FrozenInstanceError, which svq cannot name without importing them."""
    try:
        return "returned", action()
    except AttributeError as err:
        return AttributeError, str(err)
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err)


@settings(max_examples=400)
@given(specs(), specs(), st.data())
def test_value_types_behave_as_their_dataclasses(first, second, data):
    new, old = build(first, NEW), build(first, OLD)
    new2, old2 = build(second, NEW), build(second, OLD)
    assert type(new).__name__ == type(old).__name__
    assert repr(new) == repr(old)
    moved = (first[0], first[1], {"line": 9, "col": 9} if first[0] in LOCATED else {})
    pairs = [(new2, old2), (new, old), (build(first, NEW), build(first, OLD)), (build(moved, NEW), build(moved, OLD))]
    for other_new, other_old in pairs:
        assert (new == other_new) == (old == other_old)
        assert (new != other_new) == (old != other_old)
    assert outcome(lambda: hash(new) == hash(new2)) == outcome(lambda: hash(old) == hash(old2))
    if type(old).__hash__ is object.__hash__:
        assert type(new).__hash__ is object.__hash__
    else:
        assert outcome(lambda: hash(new)) == outcome(lambda: hash(old))

    # Assignment and deletion, of a field or of any other name.
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(old)] + ["other"]))
    assert outcome(lambda: setattr(new, name, 5)) == outcome(lambda: setattr(old, name, 5))
    assert outcome(lambda: repr(new)) == outcome(lambda: repr(old))
    assert outcome(lambda: delattr(new, name)) == outcome(lambda: delattr(old, name))


@settings(max_examples=300)
@given(specs(), st.data())
def test_replace_matches_dataclasses_replace(spec, data):
    name = spec[0]
    names = [f.name for f in positional(name)]
    changed = data.draw(st.lists(st.sampled_from([f.name for f in dataclasses.fields(OLD[name])]), unique=True))
    _, donor, _ = data.draw(specs(names=st.just(name)).filter(lambda s: len(s[1]) == len(names)))
    changes = {field: {"line": 2, "col": 3}.get(field) or donor[names.index(field)] for field in changed}
    new = build(spec, NEW)._replace(**{field: build(value, NEW) for field, value in changes.items()})
    old = dataclasses.replace(build(spec, OLD), **{field: build(value, OLD) for field, value in changes.items()})
    assert repr(new) == repr(old)
    assert (new == build(spec, NEW)) == (old == build(spec, OLD))
    with pytest.raises(TypeError):
        dataclasses.replace(build(spec, OLD), other=1)
    with pytest.raises(TypeError):
        build(spec, NEW)._replace(other=1)


@settings(max_examples=300)
@given(specs(), st.data())
def test_a_wrong_construction_is_a_type_error_naming_the_class(spec, data):
    name, fields, keywords = spec
    n = len(positional(name))
    cases = ["too few", "too many", "unknown keyword"] + ([] if name in LOCATED else ["line or col"])
    case = data.draw(st.sampled_from(cases if required(name) else cases[1:]))
    if case == "too few":
        fields = fields[: data.draw(st.integers(0, required(name) - 1))]
    elif case == "too many":
        fields += (None,) * (n + 1 - len(fields)) + data.draw(st.lists(SCALARS, max_size=2).map(tuple))
    else:
        keyword = "other" if case == "unknown keyword" else data.draw(st.sampled_from(["line", "col"]))
        keywords = {**keywords, keyword: data.draw(st.integers(0, 3))}
    for classes in (OLD, NEW):
        with pytest.raises(TypeError) as info:
            build((name, fields, keywords), classes)
    assert re.match(rf"{name}(\.__init__)?\(\) ", str(info.value)), str(info.value)


def test_value_init_is_the_one_constructor_of_every_type_without_its_own():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    types = [cls for cls in subclasses(Value) if cls.__module__.startswith("svq.")]
    assert {cls.__name__ for cls in types} >= set(NEW)
    assert {cls.__name__ for cls in types if "__init__" in cls.__dict__} == {"StateVector", "Operator", "Report"}


def test_importing_svq_builds_no_dataclass():
    code = (
        "import svq, svq.cli, sys\n"
        "print('dataclasses' in sys.modules)\n"
        "print([n for n, v in vars(svq).items() if isinstance(v, type) and hasattr(v, '__dataclass_fields__')])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n[]\n"
