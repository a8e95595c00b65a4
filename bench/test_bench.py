"""Tests of the benchmark itself: seeded inputs, reference checks, tracing.

Run with ``PYTHONPATH=src python -m pytest bench``. They use the small jobs
of each workload so they stay fast.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
from run import Outcomes, call_job, load_svq  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH.parent
#: Largest job size each workload contributes to these tests.
SMALL = {"shipped-mix": 1, "clone-ledger": 12, "super-gaps": 10, "lattice-dim": 128}


_JOBS = {}


@pytest.fixture(scope="module")
def svq():
    return load_svq(fresh=False)


def small_jobs(svq, name):
    if name not in _JOBS:
        _JOBS[name] = [job for job in WORKLOADS[name](5, ROOT).jobs(svq) if job.size <= SMALL[name]]
    return _JOBS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_generates_same_inputs(name):
    assert WORKLOADS[name](7, ROOT).material() == WORKLOADS[name](7, ROOT).material()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_generates_different_inputs(name):
    assert WORKLOADS[name](7, ROOT).material() != WORKLOADS[name](8, ROOT).material()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_checks_pass(svq, name):
    outcomes = Outcomes()
    jobs = small_jobs(svq, name)
    assert len({job.kind for job in jobs}) >= 2 or name == "shipped-mix"
    for index, job in enumerate(jobs):
        out, error, _, _ = call_job(job)
        outcomes.record(index, job, out, error)
    assert outcomes.failures == []
    assert outcomes.attempted == len(jobs)


def _first(svq, name, kind):
    job = next(j for j in small_jobs(svq, name) if j.kind.startswith(kind))
    return job, job.call()


def test_shipped_check_rejects_changed_bytes_and_exit_code(svq):
    job, (code, out, err) = _first(svq, "shipped-mix", "clone_z.svq/json")
    assert job.check((code, out, err)) is None
    assert job.check((code, out.replace(b"loss", b"lost"), err)) is not None
    assert job.check((1 - code, out, err)) is not None


def test_clone_check_rejects_a_dropped_violation(svq):
    job, out = _first(svq, "clone-ledger", "audit-once")
    payload = json.loads(out)
    assert payload["violations"]
    payload["violations"].pop()
    assert job.check(json.dumps(payload).encode()) is not None


def test_super_check_rejects_a_wrong_verdict(svq):
    job, out = _first(svq, "super-gaps", "tautology")
    payload = json.loads(out)
    payload["valuations"][0]["truth"] = "0/0"
    assert job.check(json.dumps(payload).encode()) is not None


def test_lattice_checks_reject_wrong_ranks_and_verdicts(svq):
    job, out = _first(svq, "lattice-dim", "construct")
    assert job.check((out[0], out[1], out[2] + 1) + out[3:]) is not None
    job, out = _first(svq, "lattice-dim", "query")
    flipped = tuple("0/0" if v == "1" else v for v in out)
    assert job.check(flipped) is not None


def test_independent_audit_follows_the_documented_contract():
    lines = [
        "0\tP\tpresent\t0/0\t0",  # a gap before the baseline is skipped
        "0\tP\tpast\t1\t1",  # learning: the baseline
        "0\tP\tpast\t0/0\t2",  # loss
        "0\tP\tpast\t0\t3",  # flip
        "5\tQ\tfuture\t1\t3",  # a prediction is never a baseline
        "5\tQ\tpresent\t0\t5",
    ]
    assert oracles.independent_audit(lines) == [
        ("flip", "P", 0, "1", "0", 3),
        ("loss", "P", 0, "1", "0/0", 2),
    ]


def test_trace_leaves_outputs_unchanged(svq):
    originals = {name: vars(svq.runner)[name] for name in ("run_scenario", "record_valuation")}
    untraced = {}
    for name in sorted(WORKLOADS):
        for index, job in enumerate(small_jobs(svq, name)):
            untraced[name, index] = oracles.digest(job.call())
    tracer = Tracer()
    tracer.install(svq)
    try:
        tracer.phase = "passes"
        for name in sorted(WORKLOADS):
            for index, job in enumerate(small_jobs(svq, name)):
                out, error, _, _ = call_job(job, tracer)
                assert error is None
                assert oracles.digest(out) == untraced[name, index], (name, index)
    finally:
        tracer.uninstall()
    assert {name: vars(svq.runner)[name] for name in originals} == originals
    values = tracer.per_layer(1, 1.0)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["trace.errors"] == 0
    for name in ("cli.main.self_ms", "ledger.record_valuation.calls", "formulas.evaluate_classical.calls",
                 "lattice.join.d128.ms", "hilbert.haar_state.ms"):
        assert values[name] > 0, name
    assert 0 < values["formulas.enumerated_share"] <= 1
