"""Golden `report --output json` documents: the gate for refactors.

Every config p = 2..5, n = 1..3 (default trials, seed and max-mu) is rendered
in-process and compared byte for byte with its checked-in file, `timings`
removed because it is the only wall-clock field.  Regenerate the files, after
checking that a change of answer is intended, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from schurdet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = [(p, n) for p in range(2, 6) for n in range(1, 4)]


def golden_path(p: int, n: int) -> Path:
    return GOLDEN / f"report-p{p}-n{n}.json"


def render(p: int, n: int) -> str:
    """The report document for (p, n) without `timings`, as the CLI formats it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["report", "--p", str(p), "--n", str(n), "--output", "json"])
    doc = json.loads(out.getvalue())
    del doc["timings"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("p,n", CONFIGS, ids=[f"p{p}-n{n}" for p, n in CONFIGS])
def test_report_matches_golden(p, n):
    assert render(p, n) == golden_path(p, n).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for p, n in CONFIGS:
        golden_path(p, n).write_text(render(p, n))
