"""Every example runs clean and prints the same story every time.

The examples are the broadest end-to-end flows the repo has.  Each runs
in a fresh interpreter, twice, under two hash seeds: nothing it prints
may depend on set or dict iteration order, on wall-clock time, or on
state an earlier run left behind.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def run(example: Path, hash_seed: str) -> str:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        "PYTHONHASHSEED": hash_seed,
    }
    completed = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    return completed.stdout


def test_there_are_six_examples():
    assert [path.name for path in EXAMPLES] == [
        "dependable_failover.py",
        "healthcare_federation.py",
        "policy_administration.py",
        "quickstart.py",
        "trust_negotiation.py",
        "virtual_organization.py",
    ]


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_runs_clean_and_deterministically(example):
    first = run(example, "0")
    assert first.strip(), "an example tells its story on stdout"
    assert run(example, "1") == first
