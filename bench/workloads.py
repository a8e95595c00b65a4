"""The four seeded, closed-loop workloads of the svq benchmark.

Each workload is built in two steps. The constructor generates every input
from the workload seed with the benchmark's own code (scenario text and
numpy arrays); nothing from svq runs there, so the same seed always yields
the same inputs. ``jobs(svq)`` then builds the program-side fixtures and
returns the job list of one pass. A job calls the program through module
attributes looked up at call time, so the tracer's wrappers are seen, and
carries its own reference check (see ``oracles``).

Why these four: each later optimisation named in the ROADMAP needs one
workload where its layer does most of the work and one where it does
almost nothing.

* ``shipped-mix``: typical use; fixed per-job costs dominate and no layer
  does much. The bypass workload for every optimisation.
* ``clone-ledger``: the ledger grows with the square of the ticks; half the
  jobs audit once, half audit after every tick.
* ``super-gaps``: ``evaluate_super`` does nearly all the work; its cost
  depends on how soon two completions disagree.
* ``lattice-dim``: O(d^3) projector work, with dimension as the knob;
  construction-heavy and query-heavy jobs use the layer differently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Job:
    """One closed-loop request: call the program, then check its output."""

    kind: str  # jobs of one kind differ only in size
    size: int  # the workload's traffic knob: ticks, gap atoms or dimension
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the output passes


def shipped_paths(root: Path) -> list[Path]:
    return sorted((root / "scenarios").glob("*.svq"))


def cold_cli_calls(root: Path, seed: int) -> list[tuple[list[str], str]]:
    """``svq run`` argvs, each shipped scenario three times, with golden digests."""
    rng = np.random.default_rng([seed, 99])
    golden = oracles.load_golden()["digests"]
    calls = []
    for path in shipped_paths(root) * 3:
        run_seed = int(rng.integers(oracles.SEED_POOL))
        argv = oracles.cli_argv(str(path.relative_to(root)), run_seed, "text")
        calls.append((argv, golden[path.name]["text"][run_seed]))
    return calls


def _fmt_complex(z) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt_complex(z) for z in v) + "]"


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _random_scale(rng) -> complex:
    """A nonzero complex factor; spans and states are invariant to it."""
    return np.exp(rng.uniform(np.log(0.5), np.log(2.0)) + 1j * rng.uniform(0, 2 * np.pi))


def _gaussian_columns(rng, d: int, n: int) -> np.ndarray:
    """n unit vectors drawn from the unitarily invariant measure on C^d."""
    z = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    return z / np.linalg.norm(z, axis=0)


def _scenario_job(svq, text: str, run_seed: int) -> Callable[[], bytes]:
    def call() -> bytes:
        scenario = svq.scenario.parse_scenario(text)
        report = svq.runner.run_scenario(scenario, {"seed": run_seed})
        return svq.runner.emit_report(report, "json")

    return call


# ---------------------------------------------------------------------------


class ShippedMix:
    """The shipped scenarios through ``svq.cli.main`` in-process, stdout
    captured: ``run`` as text and JSON, and ``eval``, over run seeds drawn
    from the workload seed. Checked against golden report digests."""

    name = "shipped-mix"
    SEEDS_PER_RUN = 6

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 1])
        seeds = sorted(int(s) for s in rng.choice(oracles.SEED_POOL, self.SEEDS_PER_RUN, replace=False))
        specs = [
            (str(path), path.name, s, mode)
            for path in shipped_paths(root)
            for s in seeds
            for mode in oracles.MODES
        ]
        self.specs = [specs[i] for i in rng.permutation(len(specs))]
        self.golden = oracles.load_golden()["digests"]

    def material(self) -> bytes:
        return repr([spec[1:] for spec in self.specs]).encode()

    def jobs(self, svq) -> list[Job]:
        jobs = []
        for path, name, run_seed, mode in self.specs:
            argv = oracles.cli_argv(path, run_seed, mode)
            want = self.golden[name][mode][run_seed]
            jobs.append(
                Job(
                    f"{name}/{mode}",
                    1,
                    lambda argv=argv: oracles.call_cli(svq.cli.main, argv),
                    lambda out, want=want, mode=mode: oracles.check_cli_output(want, mode, out),
                )
            )
        return jobs


# ---------------------------------------------------------------------------

# (axis, sign): axis 0 is Z, axis 1 is X. Same axis, same sign: member;
# same axis, other sign: orthogonal; other axis: a gap.
_STATES = {"up": (0, 0), "down": (0, 1), "plus": (1, 0), "minus": (1, 1)}
_PROPS = {"Zp": (0, 0), "Zm": (0, 1), "Xp": (1, 0), "Xm": (1, 1)}
_AXIS_VECTORS = {
    (0, 0): np.array([1.0, 0.0]),
    (0, 1): np.array([0.0, 1.0]),
    (1, 0): np.array([1.0, 1.0]) / np.sqrt(2.0),
    (1, 1): np.array([1.0, -1.0]) / np.sqrt(2.0),
}
_FEASIBLE = [(a, b) for a in _STATES for b in _STATES if _STATES[a][0] == _STATES[b][0] and a != b]
_INFEASIBLE = [(a, b) for a in _STATES for b in _STATES if _STATES[a][0] != _STATES[b][0]]


def _expected_truth(state: str, prop: str) -> str:
    (s_axis, s_sign), (p_axis, p_sign) = _STATES[state], _PROPS[prop]
    if s_axis != p_axis:
        return "0/0"
    return "1" if s_sign == p_sign else "0"


@dataclass(frozen=True)
class CloneSpec:
    text: str
    ticks: int
    audit: str  # "once" or "each"
    pairs: tuple[tuple[str, str], ...]
    infeasible: tuple[bool, ...]
    run_seed: int


def _clone_spec(rng, ticks: int, audit: str) -> CloneSpec:
    u = _haar_unitary(rng, 2)
    lines = [f"# clone-ledger: {ticks} ticks, audit {audit}"]
    for name, key in _STATES.items():
        lines.append(f"state {name} = {_fmt_vector(u @ _AXIS_VECTORS[key])}")
    for name in rng.permutation(list(_PROPS)):
        vector = _random_scale(rng) * (u @ _AXIS_VECTORS[_PROPS[str(name)]])
        lines.append(f"prop {name} = span({_fmt_vector(vector)})")
    infeasible: list[bool] = []
    for _ in range(ticks // 2):
        first = bool(rng.integers(2))
        infeasible += [first, not first]
    pairs = []
    for tick, bad in enumerate(infeasible):
        options = _INFEASIBLE if bad else _FEASIBLE
        src, tgt = options[int(rng.integers(len(options)))]
        pairs.append((src, tgt))
        lines += [f"record at {2 * tick}", f"clone {src} -> {tgt}", f"record at {2 * tick + 1}", "reconstruct"]
        if audit == "each":
            lines.append("check-past")
    if audit == "once":
        lines.append("check-past")
    return CloneSpec(
        "\n".join(lines) + "\n", ticks, audit, tuple(pairs), tuple(infeasible), int(rng.integers(2**31))
    )


def check_clone_report(spec: CloneSpec, out: bytes) -> str | None:
    payload = json.loads(out)
    if oracles.independent_audit(payload["ledger"]) != oracles.reported_violations(payload):
        return "violations differ from the independent audit of the ledger lines"
    want_checks = spec.ticks if spec.audit == "each" else 1
    if payload["checks_run"] != want_checks:
        return f"checks_run {payload['checks_run']}, expected {want_checks}"
    clones = [s for s in payload["steps"] if s["kind"] == "clone"]
    if [s["past_lost"] for s in clones] != list(spec.infeasible):
        return "clone steps disagree with the constructed (in)feasibility"
    if any(s["feasibility"]["feasible"] == bad for s, bad in zip(clones, spec.infeasible)):
        return "feasibility verdict disagrees with construction"
    systems = []
    previous = "up"  # the first declared state is the initial system
    for src, _ in spec.pairs:
        systems += [previous, src]
        previous = src
    records = [s for s in payload["steps"] if s["kind"] == "record"]
    if len(records) != len(systems):
        return "wrong number of record steps"
    for step, state in zip(records, systems):
        present = [e for e in step["recorded"] if e["tense"] == "present"]
        if sorted(e["prop"] for e in present) != sorted(_PROPS):
            return f"record at {step['at']} does not value every proposition once"
        for entry in present:
            if entry["truth"] != _expected_truth(state, entry["prop"]):
                return f"{entry['prop']} of {state} at {step['at']} is {entry['truth']}"
    present_lines = sum(1 for line in payload["ledger"] if "\tpresent\t" in line)
    if present_lines != 2 * len(_PROPS) * spec.ticks:
        return f"{present_lines} present ledger lines"
    return None


class CloneLedger:
    """Synthetic qubit scenarios with 4 propositions, each tick
    ``record / clone A -> B / record / reconstruct``. In every block of two
    ticks exactly one clone pair is infeasible (partial overlap) and erases
    everything recorded so far, so the ledger size is fixed by the tick
    count while the pairs, basis and report seeds vary with the seed."""

    name = "clone-ledger"
    # Many small scenarios, a few large; the largest takes about a second
    # at the seed commit, whose ledger append is quadratic.
    ONCE_TICKS = (4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 16, 16, 20, 24, 28, 32, 40, 48, 64)
    EACH_TICKS = (4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 16, 16, 20, 24, 28, 32, 40)

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 2])
        specs = [_clone_spec(rng, t, "once") for t in self.ONCE_TICKS]
        specs += [_clone_spec(rng, t, "each") for t in self.EACH_TICKS]
        self.specs = [specs[i] for i in rng.permutation(len(specs))]

    def material(self) -> bytes:
        return repr([(s.text, s.run_seed) for s in self.specs]).encode()

    def jobs(self, svq) -> list[Job]:
        return [
            Job(
                f"audit-{spec.audit}",
                spec.ticks,
                _scenario_job(svq, spec.text, spec.run_seed),
                lambda out, spec=spec: check_clone_report(spec, out),
            )
            for spec in self.specs
        ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperSpec:
    text: str
    kind: str
    gaps: int
    truth: str
    atoms: dict


def _super_spec(rng, kind: str, gaps: int, template: int = 0) -> SuperSpec:
    prefix = str(rng.choice(["a", "b", "g", "h", "q", "w"]))
    gap_names = [f"{prefix}{i}" for i in rng.permutation(gaps)]
    true_names, false_names, used = [], [], []
    if kind == "few-atom":
        true_names, false_names = ["t0", "t1"], ["f0", "f1"]
    props = {}
    for name in gap_names:
        c = np.exp(rng.uniform(np.log(0.25), np.log(4.0)) + 1j * rng.uniform(0, 2 * np.pi))
        props[name] = [1.0, c]  # overlaps [1, 0] without containing it: a gap
    for name in true_names:
        props[name] = [_random_scale(rng), 0.0]
    for name in false_names:
        props[name] = [0.0, _random_scale(rng)]
    pivot = gap_names[int(rng.integers(gaps))]
    conj = " and ".join(gap_names)
    if kind == "tautology":
        body, truth = f"({conj}) -> {pivot}", "1"
    elif kind == "contradiction":
        body, truth = f"({conj}) and not {pivot}", "0"
    elif kind == "conjunction":
        body, truth = conj, "0/0"
    elif kind == "disjunction":
        body, truth = " or ".join(gap_names), "0/0"
    else:
        trues, falses = " and ".join(true_names), " or ".join(false_names)
        if template == 0:
            middles = " and ".join(f"({g} or not {g})" for g in gap_names)
            body, truth, used = f"{middles} and {trues}", "1", true_names
        elif template == 1:
            body, truth, used = f"({conj}) or {falses}", "0/0", false_names
        elif template == 2:
            body, truth, used = f"({' or '.join(gap_names)}) and ({falses})", "0", false_names
        elif template == 3:
            contradictions = " or ".join(f"({g} and not {g})" for g in gap_names)
            body, truth, used = f"({trues}) -> ({contradictions})", "0", true_names
        else:
            body, truth, used = f"({falses}) -> ({conj})", "1", false_names
    order = rng.permutation(list(props))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    lines = [f"# super-gaps: {kind}, {gaps} gap atoms", f"state s = {_fmt_vector([phase, 0.0])}"]
    lines += [f"prop {name} = span({_fmt_vector(props[str(name)])})" for name in order]
    lines += [f"formula f = {body}", "super f"]
    atoms = {g: "0/0" for g in gap_names}
    atoms.update({name: "1" if name in true_names else "0" for name in used})
    return SuperSpec("\n".join(lines) + "\n", kind, gaps, truth, atoms)


def check_super_report(spec: SuperSpec, out: bytes) -> str | None:
    (entry,) = json.loads(out)["valuations"]
    if entry["truth"] != spec.truth:
        return f"{spec.kind} with {spec.gaps} gap atoms is {entry['truth']}, expected {spec.truth}"
    if entry["atoms"] != spec.atoms:
        return "atomic valuations disagree with construction"
    return None


class SuperGaps:
    """Qubit scenarios whose state is ``[1, 0]`` (up to phase) and whose gap
    atoms are ``span([1, c_i])``, queried with ``super``. Tautologies and
    contradictions enumerate all 2^k completions, conjunctions of gap atoms
    are decided only at the last completion, disjunctions after two, and
    few-atom formulas mix at most 3 gap atoms with determinate ones."""

    name = "super-gaps"
    GAP_COUNTS = (2, 4, 6, 8, 10, 12, 14, 15, 16)
    ENUMERATING = ("tautology", "contradiction", "conjunction", "disjunction")
    FEW_ATOM_JOBS = 10

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 3])
        specs = [_super_spec(rng, kind, k) for k in self.GAP_COUNTS for kind in self.ENUMERATING]
        # Sizes and templates are fixed, so the seed moves names, vectors and
        # order but not the cost of a pass.
        specs += [_super_spec(rng, "few-atom", 1 + i % 3, i % 5) for i in range(self.FEW_ATOM_JOBS)]
        self.specs = [specs[i] for i in rng.permutation(len(specs))]
        self.run_seed = int(rng.integers(2**31))

    def material(self) -> bytes:
        return repr([s.text for s in self.specs]).encode()

    def jobs(self, svq) -> list[Job]:
        return [
            Job(
                spec.kind,
                spec.gaps,
                _scenario_job(svq, spec.text, self.run_seed),
                lambda out, spec=spec: check_super_report(spec, out),
            )
            for spec in self.specs
        ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeInputs:
    """Arrays for one dimension, all generated by the benchmark."""

    dim: int
    common: int
    a: np.ndarray  # d x r spanning set: common part, then its own part
    b: np.ndarray  # d x r spanning set sharing the common part
    query: np.ndarray  # d x r spanning set of the fixed query subspace
    inside: np.ndarray  # probes in the query subspace, one per column
    outside: np.ndarray  # probes orthogonal to it
    generic_seed: int  # seed of the generic Haar probes


class LatticeDim:
    """Library jobs with no DSL at d in {64, 128, 256, 512}. Construction
    jobs span two rank-d/4 subspaces that share a seeded common part (random
    pairs otherwise meet in {0}) and run meet, join, orthocomplement and
    contains; query jobs run many membership calls on a fixed subspace."""

    name = "lattice-dim"
    DIMS = (64, 128, 256, 512)
    # 19 query jobs per dimension against 4 construction jobs keep the
    # median inside the d=256 query jobs and the 90th percentile inside the
    # d=512 ones, away from a boundary between job kinds of unlike cost.
    QUERY_JOBS_PER_DIM = 19
    PROBES_PER_KIND = 32  # per query job: inside, orthogonal and generic

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng([seed, 4])
        self.inputs = []
        count = self.QUERY_JOBS_PER_DIM * self.PROBES_PER_KIND
        for d in self.DIMS:
            rank = d // 4
            common = int(rng.integers(d // 16, d // 8 + 1))
            shared = _gaussian_columns(rng, d, common)
            a = np.hstack([shared, _gaussian_columns(rng, d, rank - common)])
            b = np.hstack([shared, _gaussian_columns(rng, d, rank - common)])
            query = _gaussian_columns(rng, d, rank)
            full, _ = np.linalg.qr(query, mode="complete")
            inside = query @ (rng.standard_normal((rank, count)) + 1j * rng.standard_normal((rank, count)))
            perp = full[:, rank:]
            outside = perp @ (rng.standard_normal((d - rank, count)) + 1j * rng.standard_normal((d - rank, count)))
            self.inputs.append(
                LatticeInputs(d, common, a, b, query, inside, outside, int(rng.integers(2**31)))
            )
        self.order_seed = int(rng.integers(2**31))

    def material(self) -> bytes:
        parts = []
        for x in self.inputs:
            parts += [x.a.tobytes(), x.b.tobytes(), x.query.tobytes(), x.inside.tobytes(), x.outside.tobytes()]
            parts.append(repr((x.dim, x.common, x.generic_seed)).encode())
        return b"".join(parts) + repr(self.order_seed).encode()

    def jobs(self, svq) -> list[Job]:
        jobs = []
        n = self.PROBES_PER_KIND
        order = np.random.default_rng(self.order_seed)
        for x in self.inputs:
            d = x.dim
            jobs.append(Job("construct", d, self._construct(svq, x), self._check_construct(x)))
            fixed = svq.lattice.span_subspace(x.query.T, d)
            generic_rng = np.random.default_rng(x.generic_seed)
            for j in range(self.QUERY_JOBS_PER_DIM):
                probes = [(svq.hilbert.make_state(v), "1") for v in x.inside[:, j * n:(j + 1) * n].T]
                probes += [(svq.hilbert.make_state(v), "0") for v in x.outside[:, j * n:(j + 1) * n].T]
                probes += [(svq.hilbert.haar_state(d, generic_rng), "0/0") for _ in range(n)]
                probes = [probes[i] for i in order.permutation(len(probes))]
                states = [p for p, _ in probes]
                want = tuple(v for _, v in probes)
                jobs.append(Job("query", d, self._query(svq, fixed, states), self._check_query(d, want)))
        return [jobs[i] for i in order.permutation(len(jobs))]

    @staticmethod
    def _construct(svq, x: LatticeInputs):
        def call():
            lat = svq.lattice
            a = lat.span_subspace(x.a.T, x.dim)
            b = lat.span_subspace(x.b.T, x.dim)
            m = lat.meet(a, b)
            j = lat.join(a, b)
            o = lat.orthocomplement(a)
            return (a.rank, b.rank, m.rank, j.rank, o.rank, a.contains(m), j.contains(a))

        return call

    @staticmethod
    def _check_construct(x: LatticeInputs):
        r = x.a.shape[1]
        want = (r, r, x.common, 2 * r - x.common, x.dim - r, True, True)

        def check(out):
            return None if out == want else f"d={x.dim}: ranks/containment {out}, expected {want}"

        return check

    @staticmethod
    def _query(svq, fixed, states):
        def call():
            membership = svq.lattice.membership
            return tuple(str(membership(s, fixed)) for s in states)

        return call

    @staticmethod
    def _check_query(d: int, want: tuple):
        def check(out):
            wrong = sum(a != b for a, b in zip(out, want))
            return None if out == want else f"d={d}: {wrong} membership verdicts differ from construction"

        return check


WORKLOADS = {cls.name: cls for cls in (ShippedMix, CloneLedger, SuperGaps, LatticeDim)}
