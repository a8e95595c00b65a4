"""Scenario execution and report emission.

Execution model
---------------
run_scenario checks its overrides, compiles the scenario once at the run's
tolerance (compile_scenario resolves every name and builds every value),
then hands each item and its operands, in source order, to its handler in
one item table. A prop joins the propositions ``record`` evaluates when it
is reached, so a ``record`` sees only the propositions declared above it.

The runner tracks one experimental system: the state that ``record`` steps
evaluate every declared proposition against. The system starts as the first
declared state. Steps reference declared, immutable state bindings and
replace the system with their output:

* ``clone src -> tgt`` applies the idealized copy map to the pair
  (src, tgt), on its factors alone (no joint state of d² amplitudes is
  built): the register that held tgt now holds src, so the system becomes
  src's state. The pair's cloning feasibility is checked and reported. An
  infeasible pair (partial overlap) means the copy erased unrecoverable
  history: every valuation key recorded so far with a determinate value
  is marked lost.
* ``unclone cloned blank b`` reverses the most recent clone onto the named
  blank; cloned must lie on the clone's source ray, and the system becomes
  b's state. The state round-trips but the lost marks stay, which is the
  whole point.
* ``blackhole s`` replaces the system with a seeded uniformly random state
  of the same dimension and marks every recorded determinate key lost.
* ``evolve s by M`` applies the matrix to s and renormalizes, flagged
  unitary when is_unitary accepts M at the run's tol. Known, reversible
  evolution: nothing is marked lost.
* ``record at t`` first re-asserts every lost key as a gap (a past-tense
  record asserted at t), then appends the present valuation of every
  declared proposition against the system.
* ``reconstruct [p x]`` appends a past-tense record per lost key at the
  current tick, takes one sub-seed per record from the run's stream and
  clears the lost marks. Each record holds the seeded Bernoulli bit of its
  own sub-seed. No step reads a bit, so the run draws the bits after the
  last step, in one call per distinct p over that p's sub-seeds in step
  order, written into the rows: what a draw per step gives. Flips against
  the original record are what the past-fixity audit then surfaces.
* ``check-past`` counts one audit and keeps the ledger as it stands. The
  report lists the violations of the ledger as of the last ``check-past``;
  that ledger is a persistent value, so it is audited once, after the last
  step, however many checks the scenario runs.

Every truth value the runner reports comes from one row per state: the
membership of that state in each declared proposition, computed when a
step or query first needs it and kept. A record or transition reads the
system's row for every declared prop, an ``eval`` its state's row for its
prop, and a ``super`` the system's row for its formula's atoms, so
``membership`` runs at most once per (state, prop) in a run. It is pure and
states are immutable, so the row is exact. A row holds truths, whose text
is taken where an entry is written. Rows are keyed by declared state (a
state hashes by identity), and the system's row is kept beside the system:
its own row if declared, else a fresh one that goes with it.

The report keeps each row once, in a read-only view of its row kind: a
record step keeps the range of ledger rows it appended, a reconstruct step
its range and sub-seeds, any other step its (prop, before, after) tuples,
and the violations are the audit's tuples. A view reads as the list of
dicts it stands for and renders itself, as text lines and as JSON. The
run gathers the report's steps, valuations, feasibility entries and check
count, and run_scenario builds the report from them once, after the last
step, as a value read-only at every depth: its past stays as recorded.

Reports are deterministic for a fixed scenario, seed and tolerance: every
sub-seed comes from one generator seeded with the run seed, in step order,
and a sub-seed below 2**63 takes one word of its stream however it is batched.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._value import Value
from .dynamics import check_cloner_feasibility, blackhole_evaporate, sample_past_reconstruction
from .errors import NotCloneShape, StepError, SvqError
from .formulas import evaluate_super
# make_state and span_subspace go unused here, but tracers wrap them by name in svq.runner too.
from .hilbert import DEFAULT_TOL, Operator, StateVector, apply_operator, is_unitary, is_valid_tol, make_state
from .lattice import Subspace, TruthValue, membership, span_subspace
from .ledger import FUTURE, PAST, PRESENT, Ledger, Violation, derive_tense, check_past_unalterability, ledger_lines
from .ledger import _settle_truths, record_valuation
from .scenario import (
    KIND,
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
    StateDecl,
    SuperQuery,
    UncloneStep,
    compile_scenario,
)


class Report(Value):
    """Everything a run produced, in emission-ready data read-only at every
    depth: tuples of entries, each entry and nested mapping a MappingProxyType,
    except that each step's rows and the violations (empty unless a check
    ran) are _Rows views that iterate, index, take len and compare equal as
    the lists of dicts they stand for, and build each dict only when read.
    run_scenario builds it once, after the run's last step. p_one is not a
    field: it is the 0.5 a bare reconstruct draws at."""

    seed: int
    tolerance: float
    steps: tuple[Mapping, ...]
    valuations: tuple[Mapping, ...]
    feasibility: tuple[Mapping, ...]
    violations: Sequence[Mapping]
    checks_run: int
    ledger: Ledger
    p_one = 0.5

    @property
    def has_violations(self) -> bool:
        return self.checks_run > 0 and bool(self.violations)


class _Rows(Value, Sequence):
    """A read-only report view, one subclass per row kind, that renders
    itself through text() and json(), its fields a frozen Value's, held as
    tuples or a ledger. Each keeps side by side its FIELDS; _values(lo, hi),
    its rows lo to hi (by default all) as tuples in FIELDS order, reading no
    other row; _lines(rows), the text lines of such tuples; and
    _json_rows(head, sep, close), each row's JSON from the comma before it
    to its closing brace, with head before the first field and sep between
    fields. Prop ids go through _quote; truths, tenses and kinds are library
    constants that need no escaping."""

    def __len__(self) -> int:
        return len(self.rows)

    def _values(self, lo=0, hi=None):
        return self.rows[lo:hi]

    def __getitem__(self, index):
        picked = range(len(self))[index]  # raises IndexError and TypeError as a list does
        if type(picked) is int:
            return dict(zip(self.FIELDS, *self._values(picked, picked + 1)))
        rows = list(self._values(min(picked, default=0), max(picked, default=-1) + 1))[:: picked.step]
        return list(map(dict, map(zip, repeat(self.FIELDS), rows)))

    def __iter__(self):
        return map(dict, map(zip, repeat(self.FIELDS), self._values()))

    def __reversed__(self):
        return reversed(list(self))

    def index(self, value, start=0, stop=None) -> int:
        return list(self).index(value, start, len(self) if stop is None else stop)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, _Rows)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def text(self) -> list[str]:
        """The text lines of these rows."""
        return self._lines(self._values())

    def json(self, newline: str, out: list[str]) -> None:
        """Append what json.dumps(list(self), indent=2) writes from newline on."""
        if not self:
            out.append("[]")
            return
        inner = newline + "  "
        pieces = self._json_rows(f",{inner}{{{inner}  ", f",{inner}  ", inner + "}")
        pieces[0] = "[" + pieces[0][1:]
        out += pieces
        out.append(newline + "]")


class _RecordRows(_Rows):
    """The ledger rows a record step appended: those of ledger from start on."""

    ledger: Ledger
    start: int
    FIELDS = ("prop", "at", "truth", "tense")
    _lines = staticmethod(lambda rows: [f"      {tense} {prop} @{at} = {truth}" for prop, at, truth, tense in rows])

    def __len__(self) -> int:
        return len(self.ledger) - self.start

    def _values(self, lo=0, hi=None):
        props, ats, truths, asserted = self.ledger.columns(self.start + lo, None if hi is None else self.start + hi)
        return zip(props, ats, map(str, truths), map(derive_tense, ats, asserted))

    def _json_rows(self, h, i, n):
        props, ats, truths, asserted = self.ledger.columns(self.start)
        return [
            f'{h}"prop": {_quote(p)}{i}"at": {at}{i}"truth": "{truth._value_}"'
            f'{i}"tense": "{PAST if at < a else PRESENT if at == a else FUTURE}"{n}'
            for p, at, truth, a in zip(props, ats, truths, asserted)
        ]


class _SampleRows(_RecordRows):
    """The ledger rows a reconstruct step appended, with their sub-seeds."""

    seeds: tuple[int, ...]
    FIELDS = ("prop", "at", "value", "seed")
    _lines = staticmethod(lambda rows: [f"      {prop} @{at} := {value}" for prop, at, value, _ in rows])

    def _values(self, lo=0, hi=None):
        props, ats, truths, _ = self.ledger.columns(self.start + lo, None if hi is None else self.start + hi)
        return zip(props, ats, map(_BITS.index, truths), self.seeds[lo:hi])

    def _json_rows(self, h, i, n):
        props, ats, truths, _ = self.ledger.columns(self.start)
        return [  # a bit's truth text is the bit, "0" or "1"
            f'{h}"prop": {_quote(p)}{i}"at": {at}{i}"value": {truth._value_}{i}"seed": {seed}{n}'
            for p, at, truth, seed in zip(props, ats, truths, self.seeds)
        ]


class _TransitionRows(_Rows):
    """A step's (prop, truth text before, truth text after) tuples."""

    rows: tuple[tuple[str, str, str], ...]
    FIELDS = ("prop", "before", "after")
    _lines = staticmethod(lambda rows: [f"      {prop}: {before} -> {after}" for prop, before, after in rows])

    def _json_rows(self, h, i, n):
        return [f'{h}"prop": {_quote(pid)}{i}"before": "{was}"{i}"after": "{now}"{n}' for pid, was, now in self.rows]


class _ViolationRows(_Rows):
    """The audit's Violation tuples, as report rows."""

    rows: tuple[Violation, ...]
    FIELDS = ("kind", "prop", "at", "earlier", "later", "asserted_at")
    _lines = staticmethod(
        lambda rows: [f"  {kind} {pid} @{at}: {was} -> {now} (asserted at {a})" for kind, pid, at, was, now, a in rows]
    )

    def _values(self, lo=0, hi=None):
        return [(kind, pid, at, str(was), str(now), a) for pid, at, was, now, a, kind in self.rows[lo:hi]]

    def _json_rows(self, h, i, n):
        quoted = {pid: _quote(pid) for pid in {v[0] for v in self.rows}}
        return [
            f'{h}"kind": "{kind}"{i}"prop": {quoted[pid]}{i}"at": {at}{i}"earlier": "{was._value_}"'
            f'{i}"later": "{now._value_}"{i}"asserted_at": {a}{n}'
            for pid, at, was, now, a, kind in self.rows
        ]


_GAP, _FALSE = TruthValue.GAP, TruthValue.FALSE
_BITS = (_FALSE, TruthValue.TRUE)

#: A valuation row: prop -> truth, for the props evaluated so far, in the order first asked.
_Row = dict[str, TruthValue]


class _Run:
    """The bindings, history and report entries of one run, which the handlers update."""

    def __init__(self, seed: int, tol: float):
        self.seed, self.tol, self.checks_run = seed, tol, 0
        self.steps, self.valuations, self.feasibility = [], [], []  # the report's entry lists
        self.props: dict[str, Subspace] = {}  # every prop declared so far, in order
        self.system: StateVector | None = None
        self.system_row: _Row = {}  # the system's row, kept beside it
        self.rows: dict[StateVector, _Row] = {}  # declared state -> its row
        self.ledger = self.audited = Ledger()  # the ledger as it stands, and as of the last check-past
        self.recorded: dict[tuple[str, int], bool] = {}  # key -> some present record is determinate
        self.lost: dict[tuple[str, int], bool] = {}  # key -> already re-asserted as a gap
        self.now = 0
        self.pending_clone: StateVector | None = None  # the source of the last clone
        # The run's generator, built when a step first draws. Set as an attribute: a
        # cached_property would materialize __dict__ mid-run and slow every attribute read.
        self.rng: np.random.Generator | None = None
        self.words: list[int] = []  # the words read from rng; the first taken are handed out
        self.taken = 0
        # p -> the ledger rows a reconstruct appended at p, and their sub-seeds
        self.draws: dict[float, tuple[list[int], list[int]]] = {}

    def row(self, state: StateVector, pids) -> _Row:
        """The valuation row of the system or of a declared state, holding pids.
        The runner calls membership here only, for each of pids the row does not hold yet."""
        row, props = (self.system_row if state is self.system else self.rows[state]), self.props
        for pid in pids:
            if pid not in row:
                row[pid] = membership(state, props[pid], self.tol)
        return row

    def move(self, system: StateVector) -> _TransitionRows:
        """Replace the system and its row; return each proposition's truth before and after."""
        old = self.row(self.system, self.props)
        self.system, self.system_row = system, self.rows.get(system, {})
        new = self.row(system, self.props)
        return _TransitionRows(tuple((pid, old[pid]._value_, new[pid]._value_) for pid in self.props))

    def sub_seeds(self, n: int) -> tuple[int, ...]:
        """The next n words of the generator's stream, each a sub-seed below
        2**63. When the words read run short, it reads at least as many
        again in one call, so a run that uses w words reads at most 2w of
        them in at most ceil(log2 w) + 2 calls."""
        words, taken = self.words, self.taken
        if taken + n > len(words):
            if self.rng is None:
                self.rng = np.random.default_rng(self.seed)
            words += self.rng.integers(0, 2**63, size=max(taken + n - len(words), len(words))).tolist()
        self.taken = taken + n
        return tuple(words[taken : taken + n])

    def mark_lost(self) -> None:
        for key, determinate in self.recorded.items():
            if determinate and key not in self.lost:
                self.lost[key] = False


def verdict(feasible: bool) -> str:
    """A cloning-feasibility outcome as the text report and ``svq eval`` name it."""
    return "feasible" if feasible else "infeasible"


def _feasibility_entry(feas) -> MappingProxyType:
    return MappingProxyType({
        "feasible": feas.feasible,
        "overlap": float(feas.witness_overlap),
        "overlap_squared": float(feas.witness_overlap_squared),
        "detail": feas.detail,
    })


#: How _json_entry writes a scalar field value, by its type, as json.dumps does.
_SCALARS = {str: _quote, int: int.__repr__, bool: ("false", "true").__getitem__, float: float.__repr__}
#: The keys of the report's entries and of their nested mappings, atom names aside.
_KEYS = (
    "index line kind at recorded source target physical past_lost feasibility transitions cloned blank state"
    " seed unitary p_one samples prop truth formula atoms first second feasible overlap overlap_squared detail"
).split()
#: The indentation of an entry's brace line -> each key's head after a comma, as _json_entry writes it.
_HEADS = {newline: {key: f",{newline}  {_quote(key)}: " for key in _KEYS} for newline in ("\n    ", "\n      ")}


def _json_entry(entry: Mapping, newline: str, out: list[str]) -> None:
    """Append entry, which has a field, as json.dumps(entry, indent=2) writes
    the dict it stands for: each field by its value's type, a scalar through
    _SCALARS, a read-only mapping through this function and otherwise a view
    through its json(). newline is "\\n" and the indentation of the brace's
    line. A field's head comes from _HEADS where it has one."""
    inner, heads, first = newline + "  ", _HEADS.get(newline, {}), len(out)
    for key, value in entry.items():
        out.append(heads.get(key) or f",{inner}{_quote(key)}: ")
        write = _SCALARS.get(type(value))
        if write is not None:
            out.append(write(value))
        elif type(value) is MappingProxyType:
            _json_entry(value, inner, out)
        else:
            value.json(inner, out)
    out[first] = "{" + out[first][1:]
    out.append(newline + "}")


# Handlers: each takes the run, the item and what compile_scenario built for
# it, and returns the fields its step adds to the report after index, line
# and kind, or None for a declaration or query. The library functions they
# call are looked up in this module's globals at call time.


def _state(run: _Run, item: StateDecl, state: StateVector) -> None:
    run.rows[state] = row = {}
    if run.system is None:
        run.system, run.system_row = state, row


def _prop(run: _Run, item: PropDecl, sub: Subspace) -> None:
    run.props[item.name] = sub


def _formula(run: _Run, item: FormulaDecl, formula) -> None:
    """Nothing to bind: a super query receives the compiled formula."""


def _record(run: _Run, item: RecordStep, _) -> dict:
    if run.system is None:
        raise SvqError("record before any state declaration")
    at, led, lost, recorded = item.at, run.ledger, run.lost, run.recorded
    start = len(led)
    for key, gapped in lost.items():
        if not gapped:
            pid, at0 = key
            led = record_valuation(led, at0, pid, _GAP, at)
            lost[key] = True
    row = run.row(run.system, run.props)
    for pid in run.props:
        tv = row[pid]
        led = record_valuation(led, at, pid, tv, at)
        recorded[pid, at] = tv is not _GAP or recorded.get((pid, at), False)
    run.ledger = led
    run.now = at
    return {"at": at, "recorded": _RecordRows(led, start)}


def _clone(run: _Run, item: CloneStep, operands) -> dict:
    src, tgt = operands
    feas = check_cloner_feasibility(src, tgt, run.tol)
    run.pending_clone = src
    if not feas.feasible:
        run.mark_lost()
    return {
        "source": item.source,
        "target": item.target,
        "physical": False,
        "past_lost": not feas.feasible,
        "feasibility": _feasibility_entry(feas),
        "transitions": run.move(src),
    }


def _unclone(run: _Run, item: UncloneStep, operands) -> dict:
    if run.pending_clone is None:
        raise NotCloneShape("unclone without a preceding clone")
    cloned, blank = operands
    if not run.pending_clone.same_ray(cloned, run.tol):
        raise NotCloneShape("factors differ beyond tolerance; not the output of a clone")
    run.pending_clone = None
    return {"cloned": item.cloned, "blank": item.blank, "physical": False, "transitions": run.move(blank)}


def _blackhole(run: _Run, item: BlackholeStep, operands) -> dict:
    (state,) = operands
    (sub_seed,) = run.sub_seeds(1)
    transitions = run.move(blackhole_evaporate(state, seed=sub_seed))
    run.mark_lost()
    return {"state": item.state, "seed": sub_seed, "past_lost": True, "transitions": transitions}


def _evolve(run: _Run, item: EvolveStep, operands) -> dict:
    state, op = operands
    flag = is_unitary(op, run.tol)
    system = apply_operator(Operator(op.entries, flag), state, run.tol)
    return {"state": item.state, "unitary": flag, "transitions": run.move(system)}


def _reconstruct(run: _Run, item: ReconstructStep, _) -> dict:
    p = Report.p_one if item.p_one is None else item.p_one
    lost, led = run.lost, run.ledger
    start = len(led)
    for pid, at0 in lost:  # 0 until run_scenario draws the bit; no step reads it before
        led = record_valuation(led, at0, pid, _FALSE, run.now)
    lost.clear()
    run.ledger = led
    seeds = run.sub_seeds(len(led) - start)
    if seeds:
        rows, all_seeds = run.draws.setdefault(p, ([], []))
        rows += range(start, len(led))
        all_seeds += seeds
    return {"p_one": float(p), "samples": _SampleRows(led, start, seeds)}


def _eval(run: _Run, item: EvalQuery, operands) -> None:
    truth = run.row(operands[0], (item.prop,))[item.prop]._value_
    run.valuations.append({"kind": "eval", "state": item.state, "prop": item.prop, "truth": truth})


def _super(run: _Run, item: SuperQuery, operands) -> None:
    if run.system is None:
        raise SvqError("super query before any state declaration")
    ((body, atoms),) = operands
    row = run.row(run.system, atoms)
    truth = evaluate_super(body, row)._value_
    texts = MappingProxyType({name: row[name]._value_ for name in atoms})
    run.valuations.append({"kind": "super", "formula": item.formula, "atoms": texts, "truth": truth})


def _check_past(run: _Run, item: CheckPastQuery, _) -> None:
    run.checks_run += 1
    run.audited = run.ledger


def _feasible(run: _Run, item: FeasibleQuery, operands) -> None:
    feas = check_cloner_feasibility(*operands, run.tol)
    run.feasibility.append({"first": item.first, "second": item.second, **_feasibility_entry(feas)})


#: Item kind (scenario.KIND) -> (its handler,); for a step (its handler,
#: the key of its rows, the text its line shows after its kind). An entry's
#: JSON is its dict, written by _json_entry, which has each view write its
#: rows. Reports and StepErrors name an item by its kind.
_ITEMS = {
    "state": (_state,),
    "prop": (_prop,),
    "formula": (_formula,),
    "record": (_record, "recorded", lambda s: f" at {s['at']}"),
    "clone": (
        _clone, "transitions",
        lambda s: f" {s['source']} -> {s['target']} [non-physical, {verdict(s['feasibility']['feasible'])}:"
        f" overlap {s['feasibility']['overlap']:.8f} vs squared {s['feasibility']['overlap_squared']:.8f}]",
    ),
    "unclone": (_unclone, "transitions", lambda s: f" {s['cloned']} blank {s['blank']} [non-physical]"),
    "blackhole": (_blackhole, "transitions", lambda s: f" {s['state']} (seed {s['seed']})"),
    "evolve": (_evolve, "transitions", lambda s: f" {s['state']} [{'unitary' if s['unitary'] else 'renormalized'}]"),
    "reconstruct": (_reconstruct, "samples", lambda s: f" (p_one {s['p_one']!r})"),
    "eval": (_eval,),
    "super": (_super,),
    "check-past": (_check_past,),
    "feasible": (_feasible,),
}


def _settings(overrides: Mapping | None) -> tuple[int, float]:
    """The run's seed and tol: the defaults under every override that is not None."""
    settings = {"seed": 0, "tol": DEFAULT_TOL}
    for name, value in (overrides or {}).items():
        if name not in settings:
            raise SvqError(f"unknown override {name!r}")
        if value is not None:
            settings[name] = value
    seed, tol = settings["seed"], settings["tol"]
    if type(seed) is not int or seed < 0:
        raise SvqError(f"seed must be a non-negative integer, got {seed!r}")
    # compile_scenario rejects an invalid tol, and a valid one that is 0.0 as a float.
    return seed, float(tol) if is_valid_tol(tol) else tol


def run_scenario(scenario: Scenario, overrides: Mapping | None = None) -> Report:
    """Execute a parsed scenario and return its report.

    overrides may set seed (an int >= 0) and tol (a real number in (0, 1),
    stored as a float), and nothing else; None keeps the default. Both are
    checked, and the scenario compiled at tol, before the first step.
    Errors raised by a step or query, SvqError or ValueError, are re-raised
    as StepError carrying the item's index (1-based) and source line.
    """
    seed, tol = _settings(overrides)
    compiled = compile_scenario(scenario, tol)
    run = _Run(seed, tol)
    for index, (item, operands) in enumerate(zip(scenario.items, compiled), start=1):
        kind = KIND[type(item)]
        try:
            fields = _ITEMS[kind][0](run, item, operands)
        except (SvqError, ValueError) as err:
            raise StepError(index, item.line, kind, err) from err
        if fields is not None:
            run.steps.append({"index": index, "line": item.line, "kind": kind, **fields})

    for p, (rows, seeds) in run.draws.items():
        _settle_truths(run.ledger, rows, [_BITS[bit] for bit in sample_past_reconstruction(p, seeds)])
    violations = _ViolationRows(check_past_unalterability(run.audited) if run.checks_run else ())
    frozen = (tuple(map(MappingProxyType, entries)) for entries in (run.steps, run.valuations, run.feasibility))
    return Report(seed, tol, *frozen, violations, run.checks_run, run.ledger)


def valuation_line(entry: Mapping) -> str:
    """One eval or super result as the text report and ``svq eval`` print it."""
    if entry["kind"] == "eval":
        return f"eval {entry['state']} in {entry['prop']} = {entry['truth']}"
    return f"super {entry['formula']} = {entry['truth']}"


def _text_report(report: Report) -> str:
    lines = [
        f"svq report (seed={report.seed}, tol={report.tolerance!r}, p_one={report.p_one!r})"
    ]
    if report.steps:
        lines.append("steps:")
        for step in report.steps:
            _, key, head = _ITEMS[step["kind"]]
            lines.append(f"  {step['index']} (line {step['line']}) {step['kind']}{head(step)}")
            lines += step[key].text()
    if report.valuations:
        lines.append("valuations:")
        lines += ["  " + valuation_line(entry) for entry in report.valuations]
    if report.feasibility:
        lines.append("feasibility:")
        for entry in report.feasibility:
            lines.append(
                f"  {entry['first']} {entry['second']}: {verdict(entry['feasible'])}"
                f" (overlap {entry['overlap']:.8f}, squared {entry['overlap_squared']:.8f})"
            )
    if report.checks_run:
        lines.append(f"violations ({len(report.violations)}):")
        lines += report.violations.text()
    if len(report.ledger):
        lines.append("ledger:")
        lines.append("  " + "\n  ".join(ledger_lines(report.ledger)))
    return "\n".join(lines) + "\n"


def _json_report(report: Report) -> str:
    tol = float.__repr__(report.tolerance)
    if tol in ("nan", "inf", "-inf"):
        raise ValueError(f"Out of range float values are not JSON compliant: {tol}")
    out = [f'{{\n  "schema": 1,\n  "seed": {report.seed},\n  "tolerance": {tol},\n  "p_one": {report.p_one!r}']
    lists = ("steps", report.steps), ("valuations", report.valuations), ("feasibility", report.feasibility)
    for name, entries in lists:
        sep = f',\n  "{name}": [\n    '
        for entry in entries:
            out.append(sep)
            _json_entry(entry, "\n    ", out)
            sep = ",\n    "
        out.append("\n  ]" if entries else f',\n  "{name}": []')
    out.append(',\n  "violations": ')
    report.violations.json("\n  ", out)
    ledger = ",\n    ".join(map(_quote, ledger_lines(report.ledger)))
    out.append(f',\n  "checks_run": {report.checks_run},\n  "ledger": ' + (f"[\n    {ledger}\n  ]" if ledger else "[]"))
    out.append("\n}\n")
    return "".join(out)


def emit_report(report: Report, format: str = "text") -> bytes:
    """Render a report as bytes; format is "text" or "json".

    The JSON schema is stable and versioned: top-level keys are schema,
    seed, tolerance, p_one, steps, valuations, feasibility, violations,
    checks_run and ledger. Gaps render as the string "0/0" in both formats.
    An entry's JSON is its mapping's, every field written by its value's
    type (str, int, bool, float, a read-only mapping of these, or a view, in
    any field, which writes its rows). For a report that run_scenario
    returns the bytes equal ``json.dumps(payload, indent=2, allow_nan=False)``
    plus a newline, with each mapping as a dict and each view as the list of
    dicts it stands for; a report whose rows are not views, or whose entries
    hold values of other types (a nested dict too), is not supported. A
    non-finite tolerance raises ValueError, as it does there.
    """
    if format == "json":
        return _json_report(report).encode("utf-8")
    if format == "text":
        return _text_report(report).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
