"""The committed benchmark evidence against its own records.

A BENCH_<pr>.json file keeps, beside each summary of parent and change
runs, every run's record. Each trace-0 summary's medians, quartiles and
win count must be what its records give, as the method line of the file
states: medians and quartiles over pairs (statistics.quantiles, n=4), and
change_wins counts the pairs where the change reads lower.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "job_p50_ms")


def summaries():
    for name in ("BENCH_21.json", "BENCH_24.json", "BENCH_33.json", "BENCH_34.json", "BENCH_35.json"):
        evidence = json.loads((ROOT / name).read_text(encoding="utf-8"))
        # Further runs that carry their own records are checked as well.
        parts = {"": evidence}
        parts |= {f"{key}-": evidence[key] for key in ("repeat_runs", "earlier_runs") if "records" in evidence.get(key, {})}
        for prefix, part in parts.items():
            for summary in part["summary"]:
                run_id = f"{name}-{prefix}{summary['workload']}-seed{summary['seed']}"
                yield pytest.param(part["records"], summary, id=run_id)


@pytest.mark.parametrize("records, summary", summaries())
def test_each_summary_is_recomputed_from_its_records(records, summary):
    run = f"{summary['workload']}-seed{summary['seed']}-trace0"
    parent, change = records["parent"][run], records["change"][run]
    assert len(parent) == len(change) == summary["pairs"]
    for metric in METRICS:
        stored = summary["metrics"][metric]
        ours = [record["metrics"][metric]["value"] for record in parent]
        theirs = [record["metrics"][metric]["value"] for record in change]
        for side, values in (("parent", ours), ("change", theirs)):
            first, _, third = statistics.quantiles(values, n=4)
            assert stored[f"{side}_median"] == statistics.median(values), (metric, side)
            assert stored[f"{side}_quartiles"] == [first, third], (metric, side)
        assert stored["change_wins"] == sum(b < a for a, b in zip(ours, theirs)), metric
