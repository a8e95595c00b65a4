"""The svq benchmark: one seeded, closed-loop workload, one client.

Run from the repository root:

    python3 bench/run.py --workload shipped-mix --seed 1 --seconds 20 --trace 0

A run sets the workload up three times (fresh ``import svq``, input
generation from the seed, program-side fixtures, one warm-up job of each
kind) and reports the median as ``setup_s``. It then runs passes over the
workload's fixed job list until ``--seconds`` have passed and at least
three passes are done. Every output is checked against a reference that
does not come from the code under test (see ``oracles``); a repeated job
must reproduce its first output byte for byte. Times are scaled to a
nominal machine speed (see ``speed``); raw times are kept in the record.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics. With ``--trace 1`` the same untraced passes run first,
then the tracer wraps svq's public functions, the set-up and as many passes
run again, and the per-layer metrics are printed instead; the traced
outputs must equal the untraced ones. A context line (versions, BLAS,
cores, seed, commit) precedes the result, and the whole record, with the
spans of a traced run, is written under ``bench/out/``.

Exit status 0 when a result was printed (check ``correct``), 2 when the
program under test cannot be found or imported.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import oracles
from speed import SpeedProbe
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, cold_cli_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPS = 3
MIN_PASSES = 3
# A pass that overruns is finished, but no new one starts after this many
# multiples of --seconds, so a slow commit still exits in bounded time.
MAX_OVERRUN = 3
SVQ_MODULES = ("cli", "scenario", "runner", "ledger", "lattice", "formulas", "dynamics", "hilbert")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "cli_cold_ms": "ms",
}


def load_svq(fresh: bool) -> SimpleNamespace:
    """Import svq from ``src/``; with fresh, drop any loaded copy first."""
    if fresh:
        for name in [n for n in sys.modules if n == "svq" or n.startswith("svq.")]:
            del sys.modules[name]
    importlib.import_module("svq")
    return SimpleNamespace(**{m: importlib.import_module(f"svq.{m}") for m in SVQ_MODULES})


class Outcomes:
    """Checks every job output once, then requires identical repeats."""

    def __init__(self):
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, index: int, job, out, error: str | None) -> None:
        if error is None:
            key = oracles.digest(out)
            if index not in self.reference:
                error = job.check(out)
                if error is None:
                    self.reference[index] = key
            elif key != self.reference[index]:
                error = "output differs from the first run of this job"
        self.add(f"job {index} ({job.kind}, size {job.size})", error)

    def add(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{label}: {error}")


def call_job(job, tracer=None):
    """Run one job; return (output, error, start, end) with perf_counter times."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = job.call()
        else:
            with tracer.job(job.kind):
                out = job.call()
    except Exception as exc:  # an unexpected error counts as a failed job
        return None, f"{type(exc).__name__}: {exc}", start, time.perf_counter()
    return out, None, start, time.perf_counter()


def set_up(workload_cls, seed: int, outcomes: Outcomes, fresh: bool, tracer=None):
    """Import, generate, build fixtures, warm up: returns the job list."""
    svq = load_svq(fresh)
    if tracer is not None:
        tracer.install(svq)
    jobs = workload_cls(seed, ROOT).jobs(svq)
    smallest: dict[str, int] = {}
    for index, job in enumerate(jobs):
        if job.kind not in smallest or job.size < jobs[smallest[job.kind]].size:
            smallest[job.kind] = index
    for index in smallest.values():
        out, error, _, _ = call_job(jobs[index], tracer)
        outcomes.record(index, jobs[index], out, error)
    return jobs


@dataclass
class Passes:
    """Pass walls (s) and job latencies (ms), scaled and raw."""

    walls: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)


def run_passes(jobs, seconds: float, outcomes: Outcomes, probe: SpeedProbe, passes: int | None = None,
               tracer=None, between=None) -> Passes:
    """Closed loop over the job list.

    Runs exactly ``passes`` passes when given, else until ``seconds`` have
    passed and at least MIN_PASSES are done. ``between`` runs after each pass.
    """
    result = Passes()
    start = time.perf_counter()
    while True:
        intervals = []
        for index, job in enumerate(jobs):
            probe.sample_if_due()
            out, error, begin, end = call_job(job, tracer)
            outcomes.record(index, job, out, error)
            intervals.append((begin, end))
        probe.sample()
        scaled = [probe.scaled(begin, end) for begin, end in intervals]
        raw = [end - begin for begin, end in intervals]
        result.walls.append(sum(scaled))
        result.raw_walls.append(sum(raw))
        result.latencies += [x * 1e3 for x in scaled]
        result.raw_latencies += [x * 1e3 for x in raw]
        if between is not None:
            between()
        spent = time.perf_counter() - start
        if passes is not None:
            if len(result.walls) >= passes:
                break
        elif (len(result.walls) >= MIN_PASSES and spent >= seconds) or spent >= MAX_OVERRUN * seconds:
            break
    return result


class ColdCli:
    """``python -m svq run`` as a subprocess, three times per shipped scenario.

    The calls are spread between passes so that they sample the same
    stretch of time as the passes do.
    """

    def __init__(self, workload_seed: int, outcomes: Outcomes):
        self.pending = cold_cli_calls(ROOT, workload_seed)
        self.outcomes = outcomes
        self.times: list[float] = []  # ms, unscaled: the child may run on the other CPU
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))

    def call_next(self) -> None:
        if not self.pending:
            return
        argv, want = self.pending.pop(0)
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "svq", *argv], cwd=ROOT, env=self.env, capture_output=True, timeout=120
        )
        self.times.append((time.perf_counter() - start) * 1e3)
        result = (done.returncode, done.stdout, done.stderr.decode("utf-8", "replace"))
        self.outcomes.add(f"cli-cold {' '.join(argv)}", oracles.check_cli_output(want, "text", result))

    def finish(self) -> None:
        while self.pending:
            self.call_next()


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _blas_threads():
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def untraced_run(jobs, args, outcomes: Outcomes, probe: SpeedProbe, setup: list[float], raw_setup: list[float]):
    """End-to-end metrics of the untraced passes and the cold CLI calls."""
    cold = ColdCli(args.seed, outcomes)
    timed = run_passes(jobs, args.seconds, outcomes, probe, between=cold.call_next)
    cold.finish()

    def summary(setup_s, walls, latencies, cold_ms):
        return {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(walls),
            "job_p50_ms": statistics.median(latencies),
            "job_p90_ms": _percentile(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1 - len(outcomes.failures) / outcomes.attempted,
            "cli_cold_ms": statistics.median(cold_ms),
        }

    values = summary(setup, timed.walls, timed.latencies, cold.times)
    samples = {
        "setup_s": len(setup),
        "wall_s": len(timed.walls),
        "job_p50_ms": len(timed.latencies),
        "job_p90_ms": len(timed.latencies),
        "peak_rss_mb": 1,
        "pass_ratio": outcomes.attempted,
        "cli_cold_ms": len(cold.times),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    record = {
        "samples": samples,
        "raw": summary(raw_setup, timed.raw_walls, timed.raw_latencies, cold.times),
        "pass_walls_s": timed.walls,
        "raw_pass_walls_s": timed.raw_walls,
        "cli_cold_ms": cold.times,
        "kernel_s": probe.kernel,
    }
    return metrics, record


def traced_run(workload_cls, args, outcomes: Outcomes, probe: SpeedProbe, untraced: Passes):
    """Per-layer metrics: set up again and rerun as many passes, traced."""
    tracer = Tracer()
    try:
        jobs = set_up(workload_cls, args.seed, outcomes, fresh=False, tracer=tracer)
        tracer.phase = "passes"
        traced = run_passes(jobs, args.seconds, outcomes, probe, passes=len(untraced.walls), tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = statistics.median(traced.walls) / statistics.median(untraced.walls)
    values = tracer.per_layer(len(traced.walls), overhead)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    record = {
        "samples": {"passes": len(untraced.walls), "traced_passes": len(traced.walls)},
        "pass_walls_s": untraced.walls,
        "traced_pass_walls_s": traced.walls,
        "baseline_checks": {
            "evaluate_super_ms_by_gap_atoms": tracer.enumerated_ms_by_gaps(),
            "record_valuation_late_early_ratio": values["ledger.record_valuation.late_early_ratio"],
            "lattice_d512_ms": {
                op: values[f"lattice.{op}.d512.ms"] for op in ("span_subspace", "meet", "join", "membership")
            },
        },
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "svq" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no svq sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    outcomes = Outcomes()

    probe = SpeedProbe()
    setup, raw_setup = [], []
    jobs = None
    try:
        for _ in range(SETUP_REPS):
            jobs = None  # free the previous set-up first, so that peak memory counts one
            gc.collect()
            start = time.perf_counter()
            jobs = set_up(workload_cls, args.seed, outcomes, fresh=True)
            end = time.perf_counter()
            probe.sample()
            setup.append(probe.scaled(start, end))
            raw_setup.append(end - start)
    except ImportError as exc:
        print(f"error: cannot import svq: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        untraced = run_passes(jobs, args.seconds, outcomes, probe)
        metrics, record = traced_run(workload_cls, args, outcomes, probe, untraced)
    else:
        metrics, record = untraced_run(jobs, args, outcomes, probe, setup, raw_setup)
    record.update({"context": run_context(args), "metrics": metrics, "attempted": outcomes.attempted,
                   "failures": outcomes.failures[:50]})
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for failure in outcomes.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    samples = record["samples"]
    print(json.dumps({"context": record["context"], "samples": samples}))
    for name, metric in metrics.items():
        print(f"# {args.workload} {name} = {metric['value']:.6g} {metric['unit']} (n={samples.get(name, 1)})")
    print(json.dumps({
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
