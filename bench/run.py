"""Benchmark of the ncrewrite engine: one seeded workload per run.

    python3 bench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Workloads (inputs drawn from ``--seed``; one process, one verdict after
another, no concurrency):

- ``simulate``: ``lockstep`` on configuration words of 50 to 800 letters,
  both constructions, a fixed number of machine steps each.
- ``decide``: the three bounded deciders on configurations that halt at
  fixed steps within the bound and on configurations that run past it.
- ``probe``: ``cancellation_probe`` calls of many short random words.
- ``certify``: Gröbner certificate, orientation and order-axiom audit, with
  the presentations written and read back through the ``ncrewrite`` CLI.

The run repeats the workload's fixed list of verdicts (a pass) until
``--seconds`` have gone by, and times a fresh set-up after each pass.  Every
verdict is checked against an answer known independently of the rewriting
engine.  Timings keep each job's fastest repetition (see ``fastest``):
``wall_s`` sums them over the pass, ``verdict_s.p50`` is their median per
verdict and ``setup_s`` is the fastest set-up.  The median pass and the 90th
percentile of every verdict, as observed, are printed as well (the latter
where at least 10 verdicts lie beyond it).

With ``--trace 0`` the run measures with no instrumentation.  With
``--trace 1`` it alternates untraced and traced passes (see ``tracing.py``),
checks that both give the same verdicts, and reports the per-layer metrics
of one traced set-up plus one traced pass, each span and counter at its
fastest repetition, as for the end-to-end timings.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists for the mode (``end_to_end`` or ``per_layer``).
Exit code 0 means every verdict matched; 1 means some did not; 2 means the
benchmark could not run (bad arguments, or no package source to measure).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2
WORKDIR = ROOT / ".bench-work"  # the CLI's presentation files, kept inside the checkout
clock = time.perf_counter


@dataclass
class Pass:
    wall_s: float  # the pass as observed, interference included
    job_s: list[float] = field(default_factory=list)  # per job
    floor_s: list[float] = field(default_factory=list)  # per job: bare machine, same inputs and steps
    answers: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    work: int = 0  # machine steps checked, or words probed
    layers: object = None  # traced pass: the tracer's Snapshot of it


def run_pass(jobs, tracer=None) -> Pass:
    gc.collect()
    with tracer if tracer is not None else contextlib.nullcontext():
        raw = []
        t_pass = clock()
        for job in jobs:
            t0 = clock()
            try:
                result = job.call()
            except Exception as exc:  # a raise is a failed verdict, not a crash
                result = exc
            raw.append((result, clock() - t0))
        p = Pass(clock() - t_pass)
        for job in jobs:
            t0 = clock()
            if job.floor is not None:
                job.floor()
            p.floor_s.append(clock() - t0)
    if tracer is not None:
        p.layers = tracer.take()
    for job, (result, dt) in zip(jobs, raw):
        p.attempted += job.count
        p.job_s.append(dt)
        try:
            if isinstance(result, Exception):
                raise result
            answer, failed = job.check(result)
            p.work += job.work(result)
        except Exception as exc:
            answer, failed = f"raised {exc!r}", job.count
        if failed:
            print(f"FAILED {job.label}: {answer!r}", file=sys.stderr)
        p.answers.append(answer)
        p.failed += failed
    return p


def timed_setup(workload, tracer=None) -> tuple[float, object]:
    """A fresh set-up: its time, and the tracer's Snapshot of it if traced."""
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = clock()
        workload.setup()
        dt = clock() - t0
    return dt, tracer.take() if tracer is not None else None


def run_passes(workload, arms, seconds: float, setups: list, setup_tracer=None) -> list[list[Pass]]:
    """Passes until ``seconds`` have gone by, each round followed by a set-up.

    ``arms`` is a list of (jobs, tracer or None); a round runs one pass of
    each, so that all arms and the set-ups see the same stretches of a
    machine whose speed drifts.  The jobs keep the state of the set-up they
    were made from.  Each set-up's ``timed_setup`` result, traced by
    ``setup_tracer`` if given, is appended to ``setups``.
    """
    passes = [[] for _ in arms]
    end = clock() + seconds
    while len(passes[0]) < MIN_PASSES or clock() < end:
        for out, (jobs, tracer) in zip(passes, arms):
            out.append(run_pass(jobs, tracer))
        setups.append(timed_setup(workload, setup_tracer))
    return passes


def fastest(passes: list[Pass], attr: str = "job_s") -> list[float]:
    """Each job's fastest time over the passes.

    Other tenants of a shared machine only ever add time, and on a 2-CPU
    cloud host they slow whole stretches of seconds by up to 1.5x, which
    moves a median of passes by as much.  The minimum over many repetitions
    is the steadiest estimate of what the job itself costs (Chen & Revels,
    "Robust benchmarking in noisy environments", 2016).
    """
    return [min(col) for col in zip(*(getattr(p, attr) for p in passes))]


def end_to_end(workload, jobs, setup: list[float], passes: list[Pass]) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end metric that applies: name -> (value, unit, note)."""
    best = fastest(passes)
    per_verdict = [t / job.count for t, job in zip(best, jobs)]
    wall = sum(best)
    pooled = [t / job.count for p in passes for t, job in zip(p.job_s, jobs)]
    n = len(pooled)
    beyond = n - math.ceil(0.9 * n)
    fastest_of = f"fastest of {len(passes)} passes"
    m = {
        "setup_s": (min(setup), "s", f"fastest of {len(setup)} set-ups"),
        "wall_s": (wall, "s", f"sum over {len(jobs)} jobs of each one's {fastest_of}"),
        "verdict_s.p50": (statistics.median(per_verdict), "s", f"median over {len(jobs)} jobs, {fastest_of}"),
        "pass_s.observed_p50": (statistics.median(p.wall_s for p in passes), "s",
                                f"median of {len(passes)} passes, interference included"),
    }
    m["verdict_s.observed_p90"] = (
        (statistics.quantiles(pooled, n=10)[-1], "s", f"{n} samples, {beyond} beyond it") if beyond >= 10
        else (None, "s", f"not reported: {n} samples leave fewer than 10 beyond it"))
    if workload.name in ("simulate", "decide"):
        m["machine_steps_per_s"] = (passes[0].work / wall, "1/s", "")
        m["rewrite_over_machine"] = (wall / sum(fastest(passes, "floor_s")), "ratio", "rewriting time / tm_run time")
    if workload.name == "probe":
        m["words_per_s"] = (passes[0].work / wall, "1/s", "")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "")
    m["failed_share"] = (failed / attempted, "ratio", f"{failed} of {attempted} verdicts")
    return m


def report(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        suffix = f"  ({note})" if note else ""
        print(f"  {name:34s} {shown:>14s} {unit}{suffix}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("simulate", "decide", "probe", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncrewrite" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no package source under {SRC}, or no BENCHMARK.json; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ncrewrite

    if Path(ncrewrite.__file__).resolve().parent != SRC / "ncrewrite":
        print(f"error: imported ncrewrite from {ncrewrite.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracing import Snapshot, Tracer, layer_metrics
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]

    shutil.rmtree(WORKDIR, ignore_errors=True)  # left over by a run that was killed
    WORKDIR.mkdir()
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed), WORKDIR)
        setups = [timed_setup(workload)]
        jobs = workload.jobs()
        print(f"workload {args.workload}: seed {args.seed}, {len(jobs)} verdicts per pass")
        if not args.trace:
            [passes] = run_passes(workload, [(jobs, None)], args.seconds, setups)
            metrics = end_to_end(workload, jobs, [t for t, _ in setups], passes)
            report("end-to-end (tracing off)", metrics)
            problems = []
        else:
            tracer = Tracer()
            passes, traced = run_passes(
                workload, [(jobs, None), (workload.jobs(), tracer)], args.seconds, setups, tracer)
            # span by span, the fastest traced set-up plus the fastest traced
            # pass: the statistic of the end-to-end timings (see ``fastest``)
            snap = Snapshot.fastest([s for _, s in setups if s is not None]).plus(
                Snapshot.fastest([p.layers for p in traced]))
            metrics = {k: (v, unit, "") for k, (v, unit) in layer_metrics(snap).items()}
            metrics["trace.overhead"] = (
                sum(fastest(traced)) / sum(fastest(passes)), "ratio", "traced wall_s / untraced wall_s")
            report(f"per layer: fastest traced set-up plus fastest traced pass, span by span "
                   f"({len(traced)} passes traced)", metrics)
            problems = [f"layer {name} recorded no calls" for name in workload.layers_used
                        if not snap.calls(name)]
            if len({p.layers.call_counts() for p in traced}) > 1:
                problems.append("traced passes made different calls")
            same = all(p.answers == passes[0].answers for p in traced)
            print(f"  traced verdicts equal untraced verdicts: {'yes' if same else 'NO'}")
            if not same:
                problems.append("traced verdicts differ from untraced verdicts")
            passes += traced
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    missing = [n for n in names if n not in metrics]
    problems += [f"metric {n} declared in BENCHMARK.json but not measured" for n in missing]
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
