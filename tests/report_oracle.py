"""The report renderings that emit_report replaced, over plain lists of dicts.

``plain_payload`` is the JSON payload of a report, which
``json.dumps(plain_payload(report), indent=2)`` plus a newline renders as
emit_report must; ``old_text_report`` is the text renderer that read the
lists of dicts before the report views. Both read a report whose rows are
plain lists, as the reference runner of tests/test_compile.py builds it,
and are the oracles of the views in tests/test_report_views.py.
"""

from svq.ledger import ledger_lines
from svq.runner import Report, valuation_line


def plain_payload(report: Report) -> dict:
    return {
        "schema": 1,
        "seed": report.seed,
        "tolerance": report.tolerance,
        "p_one": report.p_one,
        "steps": report.steps,
        "valuations": report.valuations,
        "feasibility": report.feasibility,
        "violations": list(report.violations),
        "checks_run": report.checks_run,
        "ledger": ledger_lines(report.ledger),
    }


def _step_head(step: dict) -> str:
    """What a step's line shows after its kind."""
    kind = step["kind"]
    if kind == "record":
        return f" at {step['at']}"
    if kind == "clone":
        feas = step["feasibility"]
        verdict = "feasible" if feas["feasible"] else "infeasible"
        return (
            f" {step['source']} -> {step['target']} [non-physical, {verdict}:"
            f" overlap {feas['overlap']:.8f} vs squared {feas['overlap_squared']:.8f}]"
        )
    if kind == "unclone":
        return f" {step['cloned']} blank {step['blank']} [non-physical]"
    if kind == "blackhole":
        return f" {step['state']} (seed {step['seed']})"
    if kind == "evolve":
        return f" {step['state']} [{'unitary' if step['unitary'] else 'renormalized'}]"
    return f" (p_one {step['p_one']!r})"


def old_step_body(step: dict) -> list[str]:
    if step["kind"] == "record":
        return [f"      {e['tense']} {e['prop']} @{e['at']} = {e['truth']}" for e in step["recorded"]]
    if step["kind"] == "reconstruct":
        return [f"      {s['prop']} @{s['at']} := {s['value']}" for s in step["samples"]]
    return [f"      {tr['prop']}: {tr['before']} -> {tr['after']}" for tr in step["transitions"]]


def old_text_report(report: Report) -> str:
    lines = [f"svq report (seed={report.seed}, tol={report.tolerance!r}, p_one={report.p_one!r})"]
    if report.steps:
        lines.append("steps:")
        for step in report.steps:
            lines.append(f"  {step['index']} (line {step['line']}) {step['kind']}{_step_head(step)}")
            lines += old_step_body(step)
    if report.valuations:
        lines.append("valuations:")
        lines += ["  " + valuation_line(entry) for entry in report.valuations]
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
