"""One pass of each benchmark workload, traced and untraced, must run and
give correct verdicts.

The traced mode patches the package's functions and methods by name and
checks that each workload's layers recorded calls, so this catches a change
to the package that the benchmark can no longer measure.  The untraced mode
is the one whose end-to-end metrics the comparisons read: each metric that
``BENCHMARK.json`` names must come out, and positive.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["simulate", "decide", "probe", "certify"]


def one_pass(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass(workload):
    one_pass(workload, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass(workload):
    result = one_pass(workload, 0)
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
