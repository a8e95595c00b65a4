"""The benchmark tracer still sees every layer a scenario runs through.

``bench/tracer.py`` wraps svq functions by module and name. A refactor that
moves a call behind another name leaves the wrapper in place but uncalled,
and that layer's counts drop to 0 without any error. This runs shipped
scenarios through the CLI with the tracer installed and checks that each
layer they exercise was seen, with record_valuation called once per ledger
row and the audit once per run that checked.
"""

import sys
from pathlib import Path

import numpy as np

import svq
import svq.cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracer import Tracer  # noqa: E402

#: A clone with reconstruction and an audit, a supervaluation, a
#: feasibility query, an evolve, and a black hole.
SCENARIOS = (
    "clone_z.svq",
    "valuations.svq",
    "clone_orthogonal.svq",
    "no_clone_control.svq",
    "blackhole.svq",
)
SEEN = (
    "scenario.parse_scenario.calls",
    "lattice.span_subspace.calls",
    "lattice.membership.calls",
    "hilbert.make_state.calls",
    "hilbert.is_unitary.ms",
    "hilbert.apply_operator.ms",
    "dynamics.check_cloner_feasibility.calls",
    "dynamics.sample_past_reconstruction.calls",
    "dynamics.blackhole_evaporate.ms",
    "formulas.evaluate_super.calls",
    "ledger.record_valuation.calls",
    "ledger.check_past_unalterability.calls",
    "ledger.ledger_lines.ms",
    "runner.emit_report.bytes",
)


def test_tracer_sees_every_layer(capsys):
    tracer = Tracer()
    tracer.install(svq)
    try:
        for name in SCENARIOS:
            svq.cli.main(["run", str(ROOT / "scenarios" / name), "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    values = tracer.per_layer(1, 1.0)
    assert {name: values[name] for name in SEEN if values[name] <= 0} == {}
    assert values["trace.errors"] == 0
    # One record_valuation call per ledger row and one audit per run that
    # checked, both through the names the tracer wraps.
    reports = [
        svq.run_scenario(svq.parse_scenario((ROOT / "scenarios" / name).read_text(encoding="utf-8")))
        for name in SCENARIOS
    ]
    assert values["ledger.record_valuation.calls"] == sum(len(report.ledger) for report in reports)
    assert values["ledger.check_past_unalterability.calls"] == sum(report.checks_run > 0 for report in reports)


def test_every_haar_draw_is_counted_as_a_make_state_call():
    # haar_state must reach make_state through the svq.hilbert global, or
    # hilbert.make_state.calls silently stops counting Haar draws.
    tracer = Tracer()
    tracer.install(svq)
    try:
        rng = np.random.default_rng(3)
        for dim in (2, 5, 64, 7, 2):
            svq.hilbert.haar_state(dim, rng)
    finally:
        tracer.uninstall()
    values = tracer.per_layer(1, 1.0)
    assert values["hilbert.make_state.calls"] == 5
    assert values["trace.errors"] == 0
