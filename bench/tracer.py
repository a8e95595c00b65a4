"""An in-memory span tracer wrapped around svq's public functions.

``Tracer.install(svq)`` replaces module attributes with timing wrappers,
under the name each caller uses (``svq.runner.record_valuation`` is what
the runner calls), and ``uninstall`` puts the originals back. Nothing in
``src/`` changes, and the wrapped functions return exactly what the
originals return.

Functions that call other wrapped functions are recorded as spans (name,
start, end, parent). Hot leaf functions, which call none, are aggregated
per parent span into (calls, nanoseconds). Self time is derived from both
afterwards: a span's duration minus what its child spans and leaf
aggregates cover. Everything runs on one thread with no queues, so no wait
time exists to record. Every wrapper counts the calls that raised.

Records carry a phase, ``setup`` or ``passes``; ``per_layer`` reports the
cost of one traced set-up plus one average traced pass.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from workloads import LatticeDim


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dim_of_span(args, kwargs):
    return _arg(args, kwargs, 1, "dim")


def _dim_of_membership(args, kwargs):
    return _arg(args, kwargs, 1, "prop").dim


def _dim_of_first(args, kwargs):
    return args[0].dim


#: (module, attribute, layer metric name, how it is recorded, dimension of a call)
WRAPS = (
    ("cli", "main", "cli.main", "span", None),
    ("cli", "parse_scenario", "scenario.parse_scenario", "span", None),
    ("cli", "run_scenario", "runner.run_scenario", "span", None),
    ("cli", "emit_report", "runner.emit_report", "span", None),
    ("scenario", "parse_scenario", "scenario.parse_scenario", "span", None),
    ("scenario", "make_state", "hilbert.make_state", "leaf", None),
    ("scenario", "span_subspace", "lattice.span_subspace", "leaf", _dim_of_span),
    ("runner", "run_scenario", "runner.run_scenario", "span", None),
    ("runner", "emit_report", "runner.emit_report", "span", None),
    ("runner", "ledger_lines", "ledger.ledger_lines", "leaf", None),
    ("runner", "make_state", "hilbert.make_state", "leaf", None),
    ("runner", "span_subspace", "lattice.span_subspace", "leaf", _dim_of_span),
    ("runner", "membership", "lattice.membership", "leaf", _dim_of_membership),
    ("runner", "record_valuation", "ledger.record_valuation", "record", None),
    ("runner", "check_past_unalterability", "ledger.check_past_unalterability", "leaf", None),
    ("runner", "evaluate_super", "formulas.evaluate_super", "super", None),
    ("runner", "check_cloner_feasibility", "dynamics.check_cloner_feasibility", "leaf", None),
    ("runner", "sample_past_reconstruction", "dynamics.sample_past_reconstruction", "leaf", None),
    ("runner", "blackhole_evaporate", "dynamics.blackhole_evaporate", "span", None),
    ("runner", "is_unitary", "hilbert.is_unitary", "leaf", None),
    ("runner", "apply_operator", "hilbert.apply_operator", "span", None),
    ("formulas", "evaluate_classical", "formulas.evaluate_classical", "completion", None),
    ("dynamics", "haar_state", "hilbert.haar_state", "span", None),
    ("hilbert", "haar_state", "hilbert.haar_state", "span", None),
    ("hilbert", "make_state", "hilbert.make_state", "leaf", None),
    ("lattice", "span_subspace", "lattice.span_subspace", "leaf", _dim_of_span),
    ("lattice", "membership", "lattice.membership", "leaf", _dim_of_membership),
    ("lattice", "meet", "lattice.meet", "leaf", _dim_of_first),
    ("lattice", "join", "lattice.join", "leaf", _dim_of_first),
    ("lattice", "orthocomplement", "lattice.orthocomplement", "leaf", _dim_of_first),
)

LATTICE_DIMS = LatticeDim.DIMS

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("cli.main.self_ms", "ms"),
    ("scenario.parse_scenario.ms", "ms"),
    ("scenario.parse_scenario.calls", "count"),
    ("runner.run_scenario.self_ms", "ms"),
    ("runner.run_scenario.errors", "count"),
    ("runner.emit_report.ms", "ms"),
    ("runner.emit_report.bytes", "bytes"),
    ("ledger.ledger_lines.ms", "ms"),
    ("ledger.record_valuation.calls", "count"),
    ("ledger.record_valuation.ms", "ms"),
    ("ledger.record_valuation.late_early_ratio", "ratio"),
    ("ledger.check_past_unalterability.calls", "count"),
    ("ledger.check_past_unalterability.ms", "ms"),
    ("ledger.gap_record_share", "ratio"),
    ("formulas.evaluate_super.calls", "count"),
    ("formulas.evaluate_super.ms", "ms"),
    ("formulas.evaluate_classical.calls", "count"),
    ("formulas.enumerated_share", "ratio"),
    ("lattice.span_subspace.calls", "count"),
    ("lattice.span_subspace.ms", "ms"),
    ("lattice.membership.calls", "count"),
    ("lattice.membership.ms", "ms"),
    ("lattice.orthocomplement.ms", "ms"),
    *(
        (f"lattice.{op}.d{d}.ms", "ms")
        for op in ("span_subspace", "meet", "join", "membership")
        for d in LATTICE_DIMS
    ),
    ("dynamics.check_cloner_feasibility.calls", "count"),
    ("dynamics.check_cloner_feasibility.ms", "ms"),
    ("dynamics.sample_past_reconstruction.calls", "count"),
    ("dynamics.sample_past_reconstruction.ms", "ms"),
    ("dynamics.blackhole_evaporate.ms", "ms"),
    ("hilbert.make_state.calls", "count"),
    ("hilbert.make_state.ms", "ms"),
    ("hilbert.is_unitary.ms", "ms"),
    ("hilbert.apply_operator.ms", "ms"),
    ("hilbert.haar_state.ms", "ms"),
    ("trace.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stack: list[list] = []  # open spans: [id, name, completions]
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, phase, label)
        self.leaves: dict[tuple, list[int]] = {}  # (phase, parent, name, dim) -> [calls, ns]
        self.errors: dict[str, int] = defaultdict(int)  # name -> calls that raised
        self.counters: dict[tuple[str, str], float] = defaultdict(float)  # (phase, counter)
        self.enumerated_by_gaps: dict[int, list[int]] = {}  # k -> [calls, ns], full 2^k only
        self._record_ns: list[int] = []  # record_valuation times under the open run_scenario
        self._patches: list[tuple] = []
        self._next_id = 1

    # -- installation -------------------------------------------------------

    def install(self, svq) -> None:
        for module_name, attr, name, how, dim_of in WRAPS:
            module = getattr(svq, module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            if how == "completion":
                wrapper = self._completion(module, attr, original)
            elif how == "super":
                wrapper = self._super(name, original, svq)
            elif how == "record":
                wrapper = self._record(name, original)
            elif how == "leaf":
                wrapper = self._leaf(name, original, dim_of)
            else:
                wrapper = self._span(name, original)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, 0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int, label=None) -> None:
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else 0
        self.spans.append((frame[0], frame[1], start, end, parent, self.phase, label))
        if frame[1] == "runner.run_scenario" and self._record_ns:
            self._fold_record_times()

    @contextmanager
    def job(self, kind: str):
        """Root span around one benchmark job."""
        frame = self._open("bench.job")
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter_ns(), kind)

    def _span(self, name, original):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(frame, start, perf_counter_ns())
            if name == "runner.emit_report":
                tracer.counters[(tracer.phase, "emit_bytes")] += len(result)
            return result

        return wrapper

    def _leaf(self, name, original, dim_of=None, on_call=None):
        tracer = self
        leaves = self.leaves

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            key = (tracer.phase, stack[-1][0] if stack else 0, name, dim_of(args, kwargs) if dim_of else 0)
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                entry = leaves.get(key)
                if entry is None:
                    leaves[key] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed
                if on_call is not None:
                    on_call(args, kwargs, elapsed)

        return wrapper

    def _record(self, name, original):
        """record_valuation: a leaf that also keeps its per-call times, for
        the late/early ratio, and counts re-asserted gaps."""
        tracer = self

        def on_call(args, kwargs, elapsed):
            tracer._record_ns.append(elapsed)
            truth = _arg(args, kwargs, 3, "truth")
            if str(truth) == "0/0" and _arg(args, kwargs, 1, "at") != _arg(args, kwargs, 4, "asserted_at"):
                tracer.counters[(tracer.phase, "gap_records")] += 1

        return self._leaf(name, original, on_call=on_call)

    def _fold_record_times(self) -> None:
        times = self._record_ns
        tenth = len(times) // 10
        if tenth:
            self.counters[(self.phase, "record_first_ns")] += sum(times[:tenth])
            self.counters[(self.phase, "record_last_ns")] += sum(times[-tenth:])
        times.clear()

    def _super(self, name, original, svq):
        """evaluate_super: a span that also knows its gap-atom count k."""
        tracer = self
        formula_atoms = svq.formulas.formula_atoms
        gap = svq.lattice.TruthValue.GAP

        def wrapper(*args, **kwargs):
            formula = _arg(args, kwargs, 0, "f")
            atomics = _arg(args, kwargs, 1, "atomics")
            k = sum(atomics.get(n) is gap for n in formula_atoms(formula))
            frame = tracer._open(name)
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                end = perf_counter_ns()
                tracer._close(frame, start, end)
            completions = frame[2]
            tracer.counters[(tracer.phase, "completions")] += completions
            tracer.counters[(tracer.phase, "completion_space")] += 2**k
            if completions == 2**k:
                entry = tracer.enumerated_by_gaps.setdefault(k, [0, 0])
                entry[0] += 1
                entry[1] += end - start
            return result

        return wrapper

    def _completion(self, module, attr, original):
        """evaluate_classical: counted only when its parent is evaluate_super.

        It recurses through its module global, so while one call runs the
        global points back at the original and the recursion is unwrapped.
        """
        tracer = self
        name = "formulas.evaluate_classical"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == "formulas.evaluate_super":
                stack[-1][2] += 1
            setattr(module, attr, original)
            try:
                return original(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                setattr(module, attr, wrapper)

        return wrapper

    # -- derived numbers ----------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per phase: name and (name, dim) -> [calls, self ns]."""
        covered: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.spans:
            covered[parent] += end - start
        for (_, parent, _, _), (_, ns) in self.leaves.items():
            covered[parent] += ns
        out: dict[str, dict] = {"setup": defaultdict(lambda: [0, 0]), "passes": defaultdict(lambda: [0, 0])}
        for span_id, name, start, end, _, phase, _ in self.spans:
            entry = out[phase][name]
            entry[0] += 1
            entry[1] += end - start - covered[span_id]
        for (phase, _, name, dim), (calls, ns) in self.leaves.items():
            for key in (name, (name, dim)):
                out[phase][key][0] += calls
                out[phase][key][1] += ns
        return out

    def per_layer(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Cost of one traced set-up plus one average traced pass."""
        totals = self.totals()

        def combined(key, index):
            return totals["setup"][key][index] + totals["passes"][key][index] / passes

        def counter(name):
            return self.counters[("setup", name)] + self.counters[("passes", name)] / passes

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for metric, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                values[metric] = combined(layer, 0)
            elif field in ("ms", "self_ms"):
                values[metric] = combined(layer, 1) / 1e6
        for op in ("span_subspace", "meet", "join", "membership"):
            for d in LATTICE_DIMS:
                values[f"lattice.{op}.d{d}.ms"] = combined((f"lattice.{op}", d), 1) / 1e6
        values["runner.run_scenario.errors"] = self.errors["runner.run_scenario"]
        values["runner.emit_report.bytes"] = counter("emit_bytes")
        values["ledger.record_valuation.late_early_ratio"] = ratio(
            counter("record_last_ns"), counter("record_first_ns")
        )
        values["ledger.gap_record_share"] = ratio(
            counter("gap_records"), combined("ledger.record_valuation", 0)
        )
        values["formulas.enumerated_share"] = ratio(counter("completions"), counter("completion_space"))
        values["formulas.evaluate_classical.calls"] = counter("completions")
        values["trace.errors"] = sum(self.errors.values())
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def enumerated_ms_by_gaps(self) -> dict[int, float]:
        """Mean evaluate_super time of calls that enumerated all 2^k completions."""
        return {k: ns / calls / 1e6 for k, (calls, ns) in sorted(self.enumerated_by_gaps.items())}

    def dump(self, path) -> None:
        """Write the spans and leaf aggregates as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"errors": dict(self.errors)}) + "\n")
            for span_id, name, start, end, parent, phase, label in self.spans:
                handle.write(
                    json.dumps({"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                                "parent": parent, "phase": phase, "label": label}) + "\n"
                )
            for (phase, parent, name, dim), (calls, ns) in self.leaves.items():
                handle.write(
                    json.dumps({"leaf": name, "parent": parent, "phase": phase, "dim": dim,
                                "calls": calls, "ns": ns}) + "\n"
                )
