"""Run the benchmark over several seeds, summarise it, optionally record it.

    python3 bench/record.py --seeds 1-10
    python3 bench/record.py --seeds 1-10 --label <commit>

Runs ``bench/run.py`` once per workload of ``BENCHMARK.json`` and seed, one
run at a time, with its ``run_seconds``.  For each end-to-end metric it prints
the median over the seeds and the spread (Q3 - Q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's bound.
With ``--label`` it also makes one traced run per workload (first seed) and
appends an entry with every value to ``bench/history.json``, so that later
changes can report their deltas against it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY = ROOT / "bench" / "history.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported wrong verdicts:\n{proc.stdout}{proc.stderr}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--label", help="name of the measured commit: record an entry under it")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entry = {
        "label": args.label,
        "recorded": datetime.date.today().isoformat(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in workloads:
        runs = [run_once(workload, seed, bench["run_seconds"], 0) for seed in seeds]
        summary = {}
        print(f"{workload}: {len(runs)} runs")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:16s} median {med:12.6g}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                             "values": values}
        entry["workloads"][workload] = {"end_to_end": summary}
        if args.label:
            traced = run_once(workload, seeds[0], bench["run_seconds"], 1)
            entry["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.label:
        history = json.loads(HISTORY.read_text()) if HISTORY.exists() else []
        history.append(entry)
        HISTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"recorded entry {len(history)} in {HISTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
