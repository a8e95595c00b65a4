"""Compiling once at the run's tolerance, against the code it replaced.

``reference_run_scenario`` is the runner as it was before scenarios were
compiled: it built each state and subspace while executing, dispatched on
an isinstance chain, and read its defaults from a configuration record.
Its body is kept as it was, except that the defaults are a local record
and that a key's first determinate present record, not its first record,
makes it erasable. It calls today's library functions, so the differential
property below compares the runners alone: the same parsed scenario goes
through both.

``reference_compile`` is the two passes that the one semantic pass of
``compile_scenario`` replaced: the parser's name, dimension and
probability check, then the build of every state and subspace, verbatim.
"""

import contextlib
import io
import json
import re
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svq import (
    DEFAULT_TOL,
    BadProbability,
    DimensionMismatch,
    DuplicateIdentifier,
    EmptySpan,
    NotCloneShape,
    ScenarioSyntaxError,
    StepError,
    SvqError,
    UnknownIdentifier,
    ZeroVector,
    compile_scenario,
    emit_report,
    parse_scenario,
    run_scenario,
)
from svq.cli import main
from svq.dynamics import blackhole_evaporate, check_cloner_feasibility, sample_past_reconstruction
from svq.formulas import evaluate_super, formula_atoms
from svq.hilbert import Operator, StateVector, apply_operator, is_unitary, is_valid_tol, make_state, tensor
from svq.lattice import Subspace, TruthValue, membership, span_subspace
from svq.ledger import Ledger, check_past_unalterability, derive_tense, record_valuation
from svq.runner import Report
from svq.scenario import (
    BlackholeStep,
    CheckPastQuery,
    CloneStep,
    EvalQuery,
    EvolveStep,
    FeasibleQuery,
    FormulaDecl,
    PropDecl,
    ReconstructStep,
    RecordStep,
    StateDecl,
    SuperQuery,
    UncloneStep,
)

from report_oracle import old_text_report, plain_payload
from scenario_strategies import mutated_texts, scenario_texts


# The library's former Proposition record; only this reference used it.
@dataclass(frozen=True, eq=False)
class Proposition:
    """A named experimental proposition backed by a subspace."""

    id: str
    subspace: Subspace


# The library's former copy map on two-register product states, cut to the
# path this reference executes. It forms each d²-amplitude joint state; the
# runner moves the system between factors and forms none.
@dataclass(frozen=True, eq=False)
class ProductState:
    """A two-register state with its tensor factors."""

    joint: StateVector
    factors: tuple[StateVector, StateVector]

    @classmethod
    def from_factors(cls, a: StateVector, b: StateVector) -> "ProductState":
        return cls(tensor(a, b), (a, b))


def ideal_clone(state: ProductState) -> ProductState:
    """The hypothetical copy map on tensor factors: (a, b) becomes (a, a)."""
    a, _ = state.factors
    return ProductState.from_factors(a, a)


def ideal_unclone(cloned: ProductState, blank: StateVector, tol: float) -> ProductState:
    """Reverse of the copy map: (v, v) with a chosen blank becomes (v, blank)."""
    first, second = cloned.factors
    if not first.same_ray(second, tol):
        raise NotCloneShape("factors differ beyond tolerance; not the output of a clone")
    return ProductState.from_factors(first, blank)


@dataclass(frozen=True)
class ReferenceConfig:
    tol: float = 1e-9
    seed: int = 0
    p_one: float = 0.5


REFERENCE_KINDS = {
    StateDecl: "state",
    PropDecl: "prop",
    FormulaDecl: "formula",
    RecordStep: "record",
    CloneStep: "clone",
    UncloneStep: "unclone",
    BlackholeStep: "blackhole",
    EvolveStep: "evolve",
    ReconstructStep: "reconstruct",
    EvalQuery: "eval",
    SuperQuery: "super",
    CheckPastQuery: "check-past",
    FeasibleQuery: "feasible",
}


def reference_feasibility_entry(feas) -> dict:
    return {
        "feasible": feas.feasible,
        "overlap": float(feas.witness_overlap),
        "overlap_squared": float(feas.witness_overlap_squared),
        "detail": feas.detail,
    }



def reference_run_scenario(scenario, overrides=None) -> Report:
    """The runner before compile_scenario, which built values as it went."""
    cfg = ReferenceConfig()
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in dict(overrides).items() if v is not None})
    if not is_valid_tol(cfg.tol):
        raise SvqError(f"tol must be a finite number in (0, 1), got {cfg.tol!r}")
    if not 0.0 <= cfg.p_one <= 1.0:
        raise BadProbability(f"p_one must lie in [0, 1], got {cfg.p_one!r}")
    rng = np.random.default_rng(cfg.seed)
    report = Report(seed=cfg.seed, tolerance=cfg.tol, p_one=cfg.p_one)

    states: dict[str, StateVector] = {}
    props: dict[str, Proposition] = {}
    formulas: dict = {}
    system: StateVector | None = None
    led = Ledger()
    audited = led
    recorded: dict[tuple[str, int], TruthValue] = {}
    lost: dict[tuple[str, int], bool] = {}
    now = 0
    pending_clone: ProductState | None = None

    def valuations_of(state: StateVector) -> dict[str, TruthValue]:
        return {pid: membership(state, p.subspace, cfg.tol) for pid, p in props.items()}

    def transitions(before: StateVector | None, after: StateVector) -> list[dict]:
        if before is None:
            return []
        pre = valuations_of(before)
        post = valuations_of(after)
        return [{"prop": pid, "before": str(pre[pid]), "after": str(post[pid])} for pid in props]

    def mark_lost() -> None:
        for key, first_truth in recorded.items():
            if first_truth.is_determinate and key not in lost:
                lost[key] = False

    for index, item in enumerate(scenario.items, start=1):
        kind = REFERENCE_KINDS[type(item)]
        try:
            if isinstance(item, StateDecl):
                states[item.name] = make_state(item.components)
                if system is None:
                    system = states[item.name]
            elif isinstance(item, PropDecl):
                dim = len(item.vectors[0])
                sub = span_subspace(item.vectors, dim, cfg.tol)
                props[item.name] = Proposition(item.name, sub)
            elif isinstance(item, FormulaDecl):
                formulas[item.name] = item.body
            elif isinstance(item, RecordStep):
                if system is None:
                    raise SvqError("record before any state declaration")
                entries = []
                for (pid, at0), gapped in list(lost.items()):
                    if not gapped:
                        led = record_valuation(led, at0, pid, TruthValue.GAP, item.at)
                        lost[(pid, at0)] = True
                        entries.append(
                            {
                                "prop": pid,
                                "at": at0,
                                "truth": str(TruthValue.GAP),
                                "tense": derive_tense(at0, item.at),
                            }
                        )
                for pid, prop in props.items():
                    tv = membership(system, prop.subspace, cfg.tol)
                    led = record_valuation(led, item.at, pid, tv, item.at)
                    recorded[pid, item.at] = tv if tv.is_determinate else recorded.get((pid, item.at), tv)
                    entries.append(
                        {"prop": pid, "at": item.at, "truth": str(tv), "tense": "present"}
                    )
                now = item.at
                report.steps.append(
                    {"index": index, "line": item.line, "kind": kind, "at": item.at, "recorded": entries}
                )
            elif isinstance(item, CloneStep):
                src, tgt = states[item.source], states[item.target]
                feas = check_cloner_feasibility(src, tgt, cfg.tol)
                product = ideal_clone(ProductState.from_factors(src, tgt))
                pending_clone = product
                before = system
                system = product.factors[1]
                if not feas.feasible:
                    mark_lost()
                report.steps.append(
                    {
                        "index": index,
                        "line": item.line,
                        "kind": kind,
                        "source": item.source,
                        "target": item.target,
                        "physical": False,
                        "past_lost": not feas.feasible,
                        "feasibility": reference_feasibility_entry(feas),
                        "transitions": transitions(before, system),
                    }
                )
            elif isinstance(item, UncloneStep):
                if pending_clone is None:
                    raise NotCloneShape("unclone without a preceding clone")
                named = states[item.cloned]
                blank = states[item.blank]
                pair = ProductState.from_factors(pending_clone.factors[0], named)
                result = ideal_unclone(pair, blank, cfg.tol)
                pending_clone = None
                before = system
                system = result.factors[1]
                report.steps.append(
                    {
                        "index": index,
                        "line": item.line,
                        "kind": kind,
                        "cloned": item.cloned,
                        "blank": item.blank,
                        "physical": False,
                        "transitions": transitions(before, system),
                    }
                )
            elif isinstance(item, BlackholeStep):
                sub_seed = int(rng.integers(0, 2**63))
                before = system
                system = blackhole_evaporate(states[item.state], seed=sub_seed)
                mark_lost()
                report.steps.append(
                    {
                        "index": index,
                        "line": item.line,
                        "kind": kind,
                        "state": item.state,
                        "seed": sub_seed,
                        "past_lost": True,
                        "transitions": transitions(before, system),
                    }
                )
            elif isinstance(item, EvolveStep):
                matrix = np.array(item.matrix, dtype=np.complex128)
                flag = is_unitary(Operator(matrix), cfg.tol)
                op = Operator(matrix, unitary=flag)
                before = system
                system = apply_operator(op, states[item.state], cfg.tol)
                report.steps.append(
                    {
                        "index": index,
                        "line": item.line,
                        "kind": kind,
                        "state": item.state,
                        "unitary": flag,
                        "transitions": transitions(before, system),
                    }
                )
            elif isinstance(item, ReconstructStep):
                p = cfg.p_one if item.p_one is None else item.p_one
                samples = []
                sub_seeds = rng.integers(0, 2**63, size=len(lost)).tolist()
                bits = sample_past_reconstruction(p, sub_seeds)
                for (pid, at0), sub_seed, bit in zip(lost, sub_seeds, bits):
                    tv = TruthValue.TRUE if bit else TruthValue.FALSE
                    led = record_valuation(led, at0, pid, tv, now)
                    samples.append({"prop": pid, "at": at0, "value": bit, "seed": sub_seed})
                lost.clear()
                report.steps.append(
                    {
                        "index": index,
                        "line": item.line,
                        "kind": kind,
                        "p_one": float(p),
                        "samples": samples,
                    }
                )
            elif isinstance(item, EvalQuery):
                tv = membership(states[item.state], props[item.prop].subspace, cfg.tol)
                report.valuations.append(
                    {"kind": "eval", "state": item.state, "prop": item.prop, "truth": str(tv)}
                )
            elif isinstance(item, SuperQuery):
                if system is None:
                    raise SvqError("super query before any state declaration")
                body = formulas[item.formula]
                atomics = {
                    name: membership(system, props[name].subspace, cfg.tol)
                    for name in formula_atoms(body)
                }
                tv = evaluate_super(body, atomics)
                report.valuations.append(
                    {
                        "kind": "super",
                        "formula": item.formula,
                        "atoms": {name: str(v) for name, v in atomics.items()},
                        "truth": str(tv),
                    }
                )
            elif isinstance(item, CheckPastQuery):
                report.checks_run += 1
                audited = led
            elif isinstance(item, FeasibleQuery):
                feas = check_cloner_feasibility(states[item.first], states[item.second], cfg.tol)
                entry = {"first": item.first, "second": item.second}
                entry.update(reference_feasibility_entry(feas))
                report.feasibility.append(entry)
            else:
                raise SvqError(f"unhandled scenario item {item!r}")
        except StepError:
            raise
        except (SvqError, ValueError) as err:
            raise StepError(index, item.line, kind, err) from err

    if report.checks_run:
        report.violations = [
            {
                "kind": v.kind,
                "prop": v.prop_id,
                "at": v.at,
                "earlier": str(v.earlier_truth),
                "later": str(v.later_truth),
                "asserted_at": v.later_asserted_at,
            }
            for v in check_past_unalterability(audited)
        ]
    report.ledger = led
    return report



tolerances = st.one_of(
    st.none(),
    st.sampled_from([1e-9, 1e-6, 1e-3, 0.05]),
    st.floats(min_value=1e-12, max_value=0.3),
)


def compiles(scenario, tol) -> bool:
    try:
        compile_scenario(scenario, tol)
    except SvqError as err:
        assert str(err).split(" ", 1)[0].count(":") == 2, err  # "line:col:"
        return False
    return True


def outcome(run, scenario, overrides):
    try:
        report = run(scenario, overrides)
    except StepError as err:
        return ("step", err.index, err.kind)
    if run is reference_run_scenario:  # its rows are plain lists, which emit_report does not render
        plain_json = json.dumps(plain_payload(report), indent=2) + "\n"
        return ("report", plain_json.encode(), old_text_report(report).encode())
    return ("report", emit_report(report, "json"), emit_report(report, "text"))


GAP_FIRST = (
    "state a = [1, 1]\nstate b = [1, 0]\nprop Z = span([1, 0])\nrecord at 0\n"
    "clone b -> a\nrecord at 0\nclone a -> b\nrecord at 1\ncheck-past\n"
)


@settings(max_examples=200)
@given(scenario_texts(), tolerances, st.integers(min_value=0, max_value=2**32))
@example(GAP_FIRST, None, 0)
def test_runner_matches_the_reference(text, tol, seed):
    scenario = parse_scenario(text)
    run_tol = DEFAULT_TOL if tol is None else tol
    # Before, the values were checked at parse time at the default
    # tolerance, and the props built again at the run's.
    before = compiles(scenario, DEFAULT_TOL)
    after = compiles(scenario, run_tol)
    if not (before and after):
        # The one divergence: the builds now use the run's tolerance. A
        # vector no component of which exceeds it is rejected before the
        # first step, where a state used to pass and a prop to fail as a
        # StepError; a tighter tolerance accepts what the default rejected.
        assert before == after or run_tol != DEFAULT_TOL
        if before:
            with pytest.raises((ZeroVector, EmptySpan)) as err:
                compile_scenario(scenario, run_tol)
            line = int(str(err.value).split(":", 1)[0])
            failing = next(i for i, item in enumerate(scenario.items, 1) if item.line == line)
            if type(scenario.items[failing - 1]) is PropDecl:
                ref = outcome(reference_run_scenario, scenario, {"seed": seed, "tol": tol})
                assert ref[0] == "step" and ref[1] <= failing
                assert ref[1] < failing or ref[2] == "prop"
        return
    overrides = {"seed": seed, "tol": tol}
    assert outcome(run_scenario, scenario, overrides) == outcome(
        reference_run_scenario, scenario, overrides
    )


def check_exit(text: str, tol: float) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.svq"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["check", str(path), "--tol", repr(tol)])


def run_compiles(text: str, tol: float) -> bool:
    try:
        run_scenario(parse_scenario(text), {"tol": tol})
    except StepError:
        pass
    except SvqError:
        return False
    return True


@settings(max_examples=100)
@given(scenario_texts(), st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True))
def test_check_accepts_exactly_what_run_compiles(text, tol):
    assert check_exit(text, tol) == (0 if run_compiles(text, tol) else 2)


@pytest.mark.parametrize(
    "text, error",
    [
        ("state s = [0.000001, 0]\n", ZeroVector("1:1: ")),
        ("state s = [1, 0]\nprop P = span([0.000001, 0])\n", EmptySpan("2:1: ")),
    ],
)
def test_check_and_run_agree_on_tiny_vectors_at_a_loose_tol(text, error, tmp_path, capsys):
    # check used to accept both at the default tol, while run rejected the
    # prop as a StepError and accepted the state.
    assert check_exit(text, 1e-9) == 0
    assert check_exit(text, 1e-3) == 2
    assert not run_compiles(text, 1e-3)
    with pytest.raises(type(error), match=f"^{error}"):
        run_scenario(parse_scenario(text), {"tol": 1e-3})
    path = tmp_path / "tiny.svq"
    path.write_text(text, encoding="utf-8")
    for command in ("check", "run"):
        assert main([command, str(path), "--tol", "1e-3"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")


def test_compile_builds_each_value_once_at_its_tol():
    scenario = parse_scenario("state s = [1, 0.01]\nprop P = span([1, 0], [1, 0.01])\nrecord at 0\n")
    tight, loose = compile_scenario(scenario), compile_scenario(scenario, 0.05)
    assert len(tight) == len(loose) == len(scenario.items)
    assert tight[2] is loose[2] is None
    assert (tight[1].rank, loose[1].rank) == (2, 1)
    assert np.allclose(tight[0].amplitudes, make_state([1, 0.01]).amplitudes)


@pytest.mark.parametrize(
    "tol",
    [float("nan"), 0.0, 1.0, -1e-3, "0.1", None, 1e-3 + 0j, pytest.param(10**400, id="10**400"), Fraction(10**400, 3)],
)
def test_compile_rejects_a_tolerance_outside_the_open_unit_interval(tol):
    with pytest.raises(SvqError, match="tol"):
        compile_scenario(parse_scenario("state s = [1, 0]\n"), tol)


REFERENCE_USES = {
    CloneStep: (("source", "state"), ("target", "state")),
    UncloneStep: (("cloned", "state"), ("blank", "state")),
    BlackholeStep: (("state", "state"),),
    EvolveStep: (("state", "state"),),
    EvalQuery: (("state", "state"), ("prop", "proposition")),
    SuperQuery: (("formula", "formula"),),
    FeasibleQuery: (("first", "state"), ("second", "state")),
}


def reference_check_scenario(scenario) -> None:
    declared: dict[str, str] = {}  # name -> "state", "proposition" or "formula"
    dim: int | None = None

    def need(name: str, what: str, item) -> None:
        if declared.get(name) != what:
            raise UnknownIdentifier(f"{item.line}:{item.col}: no {what} named {name!r}")

    def declare(item, what: str) -> None:
        if item.name in declared:
            raise DuplicateIdentifier(f"{item.line}:{item.col}: {item.name!r} is already declared")
        declared[item.name] = what

    for item in scenario.items:
        kind = type(item)
        for attr, what in REFERENCE_USES.get(kind, ()):
            need(getattr(item, attr), what, item)
        lengths: tuple[int, ...] = ()
        if kind is StateDecl:
            declare(item, "state")
            lengths = (len(item.components),)
        elif kind is PropDecl:
            declare(item, "proposition")
            lengths = tuple(map(len, item.vectors))
        elif kind is FormulaDecl:
            declare(item, "formula")
            for atom in formula_atoms(item.body):
                need(atom, "proposition", item)
        elif kind is EvolveStep:
            lengths = (len(item.matrix), *map(len, item.matrix))
        elif kind is ReconstructStep and item.p_one is not None and not 0.0 <= item.p_one <= 1.0:
            raise BadProbability(f"{item.line}:{item.col}: p must lie in [0, 1], got {item.p_one!r}")
        for length in lengths:
            if dim is None:
                dim = length
            elif length != dim:
                raise DimensionMismatch(
                    f"{item.line}:{item.col}: dimension {length} conflicts with scenario dimension {dim}"
                )


def reference_compile(scenario, tol: float = DEFAULT_TOL):
    """The former parse-time check, then the former compile_scenario."""
    reference_check_scenario(scenario)
    if not is_valid_tol(tol):
        raise SvqError(f"tol must be a finite number in (0, 1), got {tol!r}")
    values: list[StateVector | Subspace | None] = []
    for item in scenario.items:
        kind = type(item)
        try:
            if kind is StateDecl:
                values.append(make_state(item.components, tol))
            elif kind is PropDecl:
                values.append(span_subspace(item.vectors, len(item.vectors[0]), tol))
            else:
                values.append(None)
        except (SvqError, ValueError) as err:
            cls = type(err) if isinstance(err, SvqError) else SvqError
            raise cls(f"{item.line}:{item.col}: {err}") from err
    return tuple(values)


#: What the former parse-time check raised.
CHECK_ERRORS = (UnknownIdentifier, DuplicateIdentifier, DimensionMismatch, BadProbability)


def check_only(scenario, tol):
    return reference_check_scenario(scenario)


def compiled_or_error(compile, scenario, tol):
    try:
        return compile(scenario, tol)
    except SvqError as err:
        return err


@settings(max_examples=300)
@given(st.one_of(scenario_texts(), mutated_texts()), st.sampled_from([DEFAULT_TOL, 1e-3, 0.05]))
@example("state s = [1, 0]\nevolve s by [[1e999, 0], [0, 1]]\n", DEFAULT_TOL)
@example("state s = [1, 0]\nevolve s by [[1, 0], [0, 1]]\nevolve s by [[1, 0], [0, 1e999]]\n", 0.05)
@example("state s = [0, 0]\neval s in P\nstate s = [1]\n", DEFAULT_TOL)
@example("state s = [1, 0]\nstate s = [0, 1]\n", DEFAULT_TOL)
@example("prop s = span([1, 0])\nstate t = [1, 0]\nclone t -> s\n", DEFAULT_TOL)
@example("state s = [1, 0, 0]\nstate t = [1, 0]\n", DEFAULT_TOL)
@example("state s = [1, 0]\nformula f = P\nprop P = span([1, 0])\n", DEFAULT_TOL)
@example("state s = [1, 0]\nreconstruct p 1.5\n", DEFAULT_TOL)
def test_one_pass_accepts_what_check_then_compile_accepted(text, tol):
    try:
        scenario = parse_scenario(text)
    except ScenarioSyntaxError:
        return
    new = compiled_or_error(compile_scenario, scenario, tol)
    old = compiled_or_error(reference_compile, scenario, tol)
    if isinstance(new, SvqError):
        where = re.match(r"(\d+):(\d+): ", str(new))
        assert where, str(new)
        # The one difference: an evolve operator is now built when the
        # scenario is compiled, where a non-finite entry is an error.
        non_finite_operator = re.match(r"\d+:\d+: operator entries must be finite$", str(new))
        if not isinstance(old, SvqError):
            assert non_finite_operator, str(new)
            return
        # The first error in source order now wins: the new pass stops at
        # the rejected item, or at an earlier value that fails to build.
        old_where = re.match(r"(\d+):(\d+): ", str(old))
        new_at, old_at = tuple(map(int, where.groups())), tuple(map(int, old_where.groups()))
        if new_at == old_at:
            assert (type(new), str(new)) == (type(old), str(old))
        else:
            assert new_at < old_at, (str(new), str(old))
            assert type(new) not in CHECK_ERRORS, str(new)
            if compiled_or_error(check_only, scenario, tol) is None:
                # The reference failed in its build step, which builds
                # everything the new pass builds but evolve operators.
                assert non_finite_operator, (str(new), str(old))
        return
    assert not isinstance(old, SvqError), old
    bound = {}  # name -> what the new pass built for its declaration
    for item, value, ref in zip(scenario.items, new, old):
        kind = type(item)
        if kind is StateDecl:
            assert value.amplitudes.tobytes() == ref.amplitudes.tobytes()
        elif kind is PropDecl:
            assert value.basis.tobytes() == ref.basis.tobytes()
        elif kind is FormulaDecl:
            assert value[0] is item.body and value[1] == formula_atoms(item.body)
            assert all(type(bound[atom]) is Subspace for atom in value[1])
        elif kind in REFERENCE_USES:
            names = tuple(getattr(item, attr) for attr, _ in REFERENCE_USES[kind])
            assert value[: len(names)] == tuple(bound[name] for name in names)
            if kind is EvolveStep:
                assert value[1].entries.tobytes() == np.array(item.matrix, dtype=np.complex128).tobytes()
        else:
            assert value is None
        if kind in (StateDecl, PropDecl, FormulaDecl):
            bound[item.name] = value
