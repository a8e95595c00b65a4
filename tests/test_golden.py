"""Every shipped scenario's report bytes against the recorded golden digests.

``bench/golden/shipped.json`` holds the SHA-256 of stdout for each shipped
scenario, run seed 0..seed_pool-1 and mode (text report, JSON report,
``svq eval``). The digests change only when report bytes change, so this
pins every renderer to the bytes it produced when they were recorded.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from svq.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden" / "shipped.json").read_text(encoding="utf-8"))
MODE_ARGS = {"text": [], "json": ["--format", "json"]}


def stdout_of(argv: list[str]) -> bytes:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    saved = sys.stdout
    sys.stdout = out
    try:
        main(argv)
    finally:
        sys.stdout = saved
    return out.buffer.getvalue()


def test_golden_file_covers_every_shipped_scenario():
    shipped = sorted(path.name for path in (ROOT / "scenarios").glob("*.svq"))
    assert sorted(GOLDEN["digests"]) == shipped
    for modes in GOLDEN["digests"].values():
        assert sorted(modes) == ["eval", "json", "text"]
        assert all(len(digests) == GOLDEN["seed_pool"] for digests in modes.values())


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_report_bytes_match_golden_digests(name):
    path = str(ROOT / "scenarios" / name)
    mismatches = []
    for mode, digests in GOLDEN["digests"][name].items():
        for seed, expected in enumerate(digests):
            if mode == "eval":
                argv = ["eval", path, "--seed", str(seed)]
            else:
                argv = ["run", path, "--seed", str(seed), *MODE_ARGS[mode]]
            if hashlib.sha256(stdout_of(argv)).hexdigest() != expected:
                mismatches.append((mode, seed))
    assert mismatches == []
