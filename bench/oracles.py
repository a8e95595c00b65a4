"""Reference checks that do not come from the code under test.

Each workload compares the program's output against one of these:

* golden SHA-256 digests of the shipped-scenario reports, recorded once by
  ``make_golden.py`` (they change only when report bytes change);
* an independent re-implementation of the past-fixity audit, written from
  the docstring of ``svq.ledger.check_past_unalterability`` and fed the
  ledger lines the program emitted;
* answers known by construction of the generated inputs (supervaluation
  verdicts, subspace ranks, membership verdicts).
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "shipped.json"

#: Every (scenario, seed, mode) the shipped-mix workload can draw has a digest.
SEED_POOL = 32
MODES = ("text", "json", "eval")


def digest(data) -> str:
    """SHA-256 of bytes, or of the repr of any other output."""
    if not isinstance(data, bytes):
        data = repr(data).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def cli_argv(path: str, seed: int, mode: str) -> list[str]:
    """The ``svq`` arguments for one shipped-mix job."""
    if mode == "eval":
        return ["eval", path, "--seed", str(seed)]
    argv = ["run", path, "--seed", str(seed)]
    if mode == "json":
        argv += ["--format", "json"]
    return argv


def call_cli(main, argv: list[str]) -> tuple[int, bytes, str]:
    """Run a CLI entry point in-process; return (exit code, stdout bytes, stderr)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.buffer.getvalue(), err.getvalue()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


_TEXT_VIOLATIONS = re.compile(rb"^violations \((\d+)\):$", re.MULTILINE)


def violations_present(mode: str, out: bytes) -> bool:
    """Read from the report itself whether the audit found violations."""
    if mode == "json":
        payload = json.loads(out)
        return payload["checks_run"] > 0 and bool(payload["violations"])
    if mode == "text":
        found = _TEXT_VIOLATIONS.search(out)
        return bool(found) and int(found.group(1)) > 0
    return False


def check_cli_output(expected_digest: str, mode: str, result) -> str | None:
    """Digest match, empty stderr, and exit 1 exactly when violations exist."""
    code, out, err = result
    if err:
        return f"stderr: {err.strip()[:200]}"
    if digest(out) != expected_digest:
        return "report bytes differ from the golden digest"
    want = 1 if violations_present(mode, out) else 0
    if code != want:
        return f"exit code {code}, expected {want}"
    return None


def independent_audit(ledger_lines: list[str]) -> list[tuple]:
    """Past-fixity audit over serialized ledger lines.

    Written from the documented contract: per (proposition, tick) key, the
    earliest record that is determinate and not future-tense is the
    baseline; every later record at that key whose truth differs is a
    violation, a "loss" when it is the gap and a "flip" otherwise. Keys
    without a baseline are skipped. Returns sorted tuples of
    (kind, prop, at, earlier, later, asserted_at).
    """
    by_key: dict[tuple[str, int], list[tuple[str, str, int]]] = {}
    for line in ledger_lines:
        at, prop, tense, truth, asserted = line.split("\t")
        by_key.setdefault((prop, int(at)), []).append((tense, truth, int(asserted)))
    found = []
    for (prop, at), records in by_key.items():
        baseline = None
        for tense, truth, asserted in records:
            if baseline is None:
                if truth != "0/0" and tense != "future":
                    baseline = truth
                continue
            if truth != baseline:
                kind = "loss" if truth == "0/0" else "flip"
                found.append((kind, prop, at, baseline, truth, asserted))
    return sorted(found)


def reported_violations(payload: dict) -> list[tuple]:
    return sorted(
        (v["kind"], v["prop"], v["at"], v["earlier"], v["later"], v["asserted_at"])
        for v in payload["violations"]
    )
