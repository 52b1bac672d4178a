"""The traced benchmark on its two short workloads: every layer it lists is
still reached, and every answer matches the benchmark's independent oracle."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["sweep-p5n3", "crosscheck-222"])
def test_traced_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert not [line for line in done.stderr.splitlines() if line.startswith("perfbench:")]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
