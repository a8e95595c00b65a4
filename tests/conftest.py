import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# One profile for the whole suite: no per-example deadline, since a shared
# machine's speed swings would make one flaky, and every failing property
# prints the blob that reproduces it (@reproduce_failure).
settings.register_profile("svq", deadline=None, print_blob=True)
settings.load_profile("svq")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def run_cli():
    def invoke(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "svq", *args],
            capture_output=True,
            timeout=60,
        )

    return invoke
