"""The traced benchmark on every workload: every layer it lists is still
reached, and every answer matches the benchmark's independent oracle.

The benchmark writes its results next to its own sources, so it runs from a
copy in a temporary directory and leaves the results of real runs alone."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep-p5n3", "crosscheck-222", "algebra-p5"])
def test_traced_run_is_correct(workload, tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in (REPO / "perfbench").glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    (tmp_path / "src").symlink_to(REPO / "src")
    (tmp_path / "BENCHMARK.json").symlink_to(REPO / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert not [line for line in done.stderr.splitlines() if line.startswith("perfbench:")]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
