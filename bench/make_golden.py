"""Record the golden report digests of the shipped scenarios.

For every shipped scenario, run seed in ``range(oracles.SEED_POOL)`` and
mode (``run`` as text, ``run`` as JSON, ``eval``), store the SHA-256 of the
bytes ``svq`` prints. Run from the repository root:

    python3 bench/make_golden.py

Reports are meant to stay byte-identical, so rerun this only with a
deliberate, versioned change to the report format.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from workloads import shipped_paths  # noqa: E402


def main() -> int:
    from svq.cli import main as svq_main

    digests: dict[str, dict[str, list[str]]] = {}
    for path in shipped_paths(ROOT):
        digests[path.name] = {}
        for mode in oracles.MODES:
            row = []
            for seed in range(oracles.SEED_POOL):
                code, out, err = oracles.call_cli(svq_main, oracles.cli_argv(str(path), seed, mode))
                if err or code not in (0, 1):
                    print(f"{path.name} seed {seed} {mode}: exit {code}: {err}", file=sys.stderr)
                    return 2
                row.append(oracles.digest(out))
            digests[path.name][mode] = row
    oracles.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(oracles.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed_pool": oracles.SEED_POOL, "digests": digests}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {oracles.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
