"""One traced pass of each benchmark workload must run and give correct verdicts.

The traced mode patches the package's functions and methods by name and
checks that each workload's layers recorded calls, so this catches a change
to the package that the benchmark can no longer measure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["simulate", "decide", "probe", "certify"])
def test_traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
