"""Scenario execution and report emission.

Execution model
---------------
The runner tracks one experimental system: the state that ``record`` steps
evaluate every declared proposition against. The system starts as the first
declared state. Steps reference declared, immutable state bindings and
replace the system with their output:

* ``clone src -> tgt`` applies the idealized copy map to the pair
  (src, tgt); the register that held tgt now holds src, so the system
  becomes src's state. The pair's cloning feasibility is checked and
  reported. An infeasible pair (partial overlap) means the copy erased
  unrecoverable history: every valuation key recorded so far with a
  determinate value is marked lost.
* ``unclone cloned blank b`` reverses the most recent clone onto the named
  blank; the system becomes b's state. The state round-trips but the lost
  marks stay, which is the whole point.
* ``blackhole s`` replaces the system with a seeded uniformly random state
  of the same dimension and marks every recorded determinate key lost.
* ``evolve s by M`` applies the matrix to s. Known, reversible evolution:
  nothing is marked lost.
* ``record at t`` first re-asserts every lost key as a gap (a past-tense
  record asserted at t), then appends the present valuation of every
  declared proposition against the system.
* ``reconstruct [p x]`` draws one seeded Bernoulli bit per lost key,
  appends it as a past-tense record at the current tick, and clears the
  lost marks. Flips against the original record are what the past-fixity
  audit then surfaces.
* ``check-past`` counts one audit and keeps the ledger as it stands. The
  report lists the violations of the ledger as of the last ``check-past``;
  that ledger is a persistent value, so it is audited once, after the last
  step, however many checks the scenario runs.

Reports are deterministic for a fixed scenario, seed and tolerance;
sub-seeds for random steps are drawn from a single generator seeded with
the run seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _quote
from typing import Mapping

import numpy as np

from .config import is_valid_tol
from .dynamics import (
    ProductState,
    check_cloner_feasibility,
    blackhole_evaporate,
    ideal_clone,
    ideal_unclone,
    sample_past_reconstruction,
)
from .errors import BadProbability, NotCloneShape, StepError, SvqError
from .formulas import evaluate_super, formula_atoms
from .hilbert import Operator, StateVector, apply_operator, is_unitary, make_state
from .lattice import Proposition, TruthValue, membership, span_subspace
from .ledger import Ledger, derive_tense, check_past_unalterability, ledger_lines, record_valuation
from .scenario import (
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
    Scenario,
    ScenarioConfig,
    StateDecl,
    SuperQuery,
    UncloneStep,
)

_STEP_KINDS = {
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


@dataclass
class Report:
    """Everything a run produced, in emission-ready plain data."""

    seed: int
    tolerance: float
    p_one: float
    steps: list[dict] = field(default_factory=list)
    valuations: list[dict] = field(default_factory=list)
    feasibility: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    checks_run: int = 0
    ledger: Ledger = field(default_factory=Ledger)

    @property
    def has_violations(self) -> bool:
        return self.checks_run > 0 and bool(self.violations)


def _merge_config(base: ScenarioConfig, overrides: Mapping | None) -> ScenarioConfig:
    if not overrides:
        return base
    fields = {k: v for k, v in dict(overrides).items() if v is not None}
    return replace(base, **fields)


def _feasibility_entry(feas) -> dict:
    return {
        "feasible": feas.feasible,
        "overlap": float(feas.witness_overlap),
        "overlap_squared": float(feas.witness_overlap_squared),
        "detail": feas.detail,
    }


def run_scenario(scenario: Scenario, overrides: Mapping | None = None) -> Report:
    """Execute a parsed scenario and return its report.

    The merged tolerance must be a finite number in (0, 1) and p_one must
    lie in [0, 1]; either is checked before the first step. Errors raised
    by a step or query, SvqError or ValueError, are re-raised as StepError
    carrying the item's index (1-based) and source line.
    """
    cfg = _merge_config(scenario.config, overrides)
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
        kind = _STEP_KINDS[type(item)]
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
                    recorded.setdefault((pid, item.at), tv)
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
                        "feasibility": _feasibility_entry(feas),
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
                entry.update(_feasibility_entry(feas))
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


def _text_report(report: Report) -> str:
    lines = [
        f"svq report (seed={report.seed}, tol={report.tolerance!r}, p_one={report.p_one!r})"
    ]
    if report.steps:
        lines.append("steps:")
        for step in report.steps:
            head = f"  {step['index']} (line {step['line']}) {step['kind']}"
            if step["kind"] == "record":
                head += f" at {step['at']}"
                lines.append(head)
                for entry in step["recorded"]:
                    lines.append(
                        f"      {entry['tense']} {entry['prop']} @{entry['at']} = {entry['truth']}"
                    )
            elif step["kind"] == "clone":
                feas = step["feasibility"]
                verdict = "feasible" if feas["feasible"] else "infeasible"
                head += (
                    f" {step['source']} -> {step['target']} [non-physical, {verdict}:"
                    f" overlap {feas['overlap']:.8f} vs squared {feas['overlap_squared']:.8f}]"
                )
                lines.append(head)
                for tr in step["transitions"]:
                    lines.append(f"      {tr['prop']}: {tr['before']} -> {tr['after']}")
            elif step["kind"] == "unclone":
                head += f" {step['cloned']} blank {step['blank']} [non-physical]"
                lines.append(head)
                for tr in step["transitions"]:
                    lines.append(f"      {tr['prop']}: {tr['before']} -> {tr['after']}")
            elif step["kind"] == "blackhole":
                head += f" {step['state']} (seed {step['seed']})"
                lines.append(head)
                for tr in step["transitions"]:
                    lines.append(f"      {tr['prop']}: {tr['before']} -> {tr['after']}")
            elif step["kind"] == "evolve":
                head += f" {step['state']} [{'unitary' if step['unitary'] else 'renormalized'}]"
                lines.append(head)
                for tr in step["transitions"]:
                    lines.append(f"      {tr['prop']}: {tr['before']} -> {tr['after']}")
            elif step["kind"] == "reconstruct":
                head += f" (p_one {step['p_one']!r})"
                lines.append(head)
                for sample in step["samples"]:
                    lines.append(
                        f"      {sample['prop']} @{sample['at']} := {sample['value']}"
                    )
    if report.valuations:
        lines.append("valuations:")
        for entry in report.valuations:
            if entry["kind"] == "eval":
                lines.append(f"  eval {entry['state']} in {entry['prop']} = {entry['truth']}")
            else:
                lines.append(f"  super {entry['formula']} = {entry['truth']}")
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


def _write_json(value, newline: str, out: list[str], heads: dict) -> None:
    """Append the pieces of json.dumps(value, indent=2, allow_nan=False).

    newline is "\n" plus the indentation of the line value starts on. The
    type tests run in json's order (str, None, True, False, int, float,
    list or tuple, dict), so subclasses render as json renders them; the
    exact-type tests inside the loops are shortcuts to the same output.
    Dict keys must be strings, which is all a report holds.
    heads caches, per indentation, the text that opens each dict item
    after the first (comma, newline, indent, quoted key and colon).
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(sep + _quote(item))
            else:
                out.append(sep)
                _write_json(item, inner, out, heads)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        level = heads.get(inner)
        if level is None:
            level = heads[inner] = {}
        first = True
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if first:
                out.append(f"{{{inner}{_quote(key)}: ")
                first = False
            else:
                head = level.get(key)
                if head is None:
                    head = level[key] = f",{inner}{_quote(key)}: "
                out.append(head)
            kind = type(item)
            if kind is str:
                out.append(_quote(item))
            elif kind is int:
                out.append(int.__repr__(item))
            else:
                _write_json(item, inner, out, heads)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    out: list[str] = []
    _write_json(value, "\n", out, {})
    return "".join(out)


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render a report as bytes; format is "text" or "json".

    The JSON schema is stable and versioned: top-level keys are schema,
    seed, tolerance, p_one, steps, valuations, feasibility, violations,
    checks_run and ledger. Gaps render as the string "0/0" in both formats.
    JSON is rendered by a direct writer whose bytes equal those of
    ``json.dumps(payload, indent=2, allow_nan=False)`` plus a newline; a
    non-finite float raises ValueError, as it does there.
    """
    if format == "json":
        payload = {
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
        return (_json_text(payload) + "\n").encode("utf-8")
    if format == "text":
        return _text_report(report).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
