"""Seeded inputs, verdicts and known answers of the four benchmark workloads.

Each workload builds its inputs from one ``random.Random(seed)`` before any
timing, then offers a fixed list of jobs (one job = one verdict).  Jobs call
the package only through its public API and look every function up on its
module at call time, so that a traced run sees every call.

Known answers come from outside the rewriting engine: the bare machine
(``tm_run``) for lockstep and the deciders, closed-form counts for the
order audit, and the emptiness the paper predicts for the Gröbner,
orientation and cancellation checks.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import ncrewrite as nc
import ncrewrite.cli as nc_cli

NILPOTENCY = nc.NILPOTENCY
ZERO_DIVISOR = nc.ZERO_DIVISOR
MAX_DRAWS = 200_000


@dataclass
class Job:
    """One verdict: a call into the package and the check of its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[object, int]]  # result -> (answer, failed)
    count: int = 1  # verdicts the job stands for (probe: words per call)
    floor: Optional[Callable[[], object]] = None  # bare-machine run, same steps
    work: Callable[[object], int] = lambda result: 0  # machine steps or words


def _compile_both(spec: nc.TMSpec) -> dict[str, nc.Presentation]:
    out = {}
    for construction in (NILPOTENCY, ZERO_DIVISOR):
        p = nc.make_presentation(spec, construction)
        p.matcher  # build the Aho-Corasick automaton now, not in the first verdict
        out[construction] = p
    return out


def _random_config(rng, spec: nc.TMSpec, cells: int) -> nc.TMConfig:
    left = rng.randint(0, cells)
    tape = [rng.randrange(spec.colors) for _ in range(cells)]
    return nc.TMConfig(
        tuple(tape[:left]), rng.randrange(spec.states), rng.randrange(spec.colors), tuple(tape[left:])
    )


def _draw_config(rng, spec: nc.TMSpec, cells: int, budget: int, halt_at: Optional[int]):
    """A random configuration whose machine run halts exactly at ``halt_at``
    (``None``: runs ``budget`` steps without halting) and never leaves its tape.

    The rewriting cost grows with the square of the word length, so a run
    that walks off its tape would make the workload heavier for some seeds
    than for others.  The machine, not the rewriting engine, decides both
    conditions.
    """
    for _ in range(MAX_DRAWS):
        c = _random_config(rng, spec, cells)
        run = nc.tm_run(spec, c, budget)
        stays = len(run.config.left) + len(run.config.right) == cells
        if stays and ((halt_at is None and not run.halted) or (run.halted and run.steps == halt_at)):
            return c, run
    raise RuntimeError(f"no configuration of {cells} cells halting at {halt_at} in {MAX_DRAWS} draws")


class Workload:
    name = ""
    # spans that must record calls in a traced run of this workload
    layers_used: tuple[str, ...] = ()

    def __init__(self, rng, workdir: Path):
        self.spec = nc.minsky_utm()
        self.workdir = workdir

    def setup(self) -> None:
        self.presentations = _compile_both(self.spec)

    def jobs(self) -> list[Job]:
        raise NotImplementedError


class Simulate(Workload):
    """Lockstep on long configuration words, under both constructions."""

    name = "simulate"
    # encoded word lengths; an odd count puts the median verdict inside one stratum
    LENGTHS = (50, 175, 300, 425, 550, 675, 800)
    STEPS = 4
    layers_used = (
        "harness.lockstep", "rewrite.normalize", "rewrite.Matcher.redexes",
        "words.check_alphabet", "encodings.encode_config", "turing.tm_step", "turing.tm_run",
        "encodings.nilpotency_presentation", "encodings.zerodivisor_presentation",
    )

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.cases = []
        for length in self.LENGTHS:
            c0, run = _draw_config(rng, self.spec, length - 4, self.STEPS, None)
            for construction in (NILPOTENCY, ZERO_DIVISOR):
                tail = ("t",) if construction == NILPOTENCY else ("s",)
                final = nc.encode_config(run.config, construction) + tail
                self.cases.append((length, construction, c0, final))
        rng.shuffle(self.cases)

    def jobs(self):
        spec, steps = self.spec, self.STEPS
        jobs = []
        for length, construction, c0, final in self.cases:
            p = self.presentations[construction]

            def check(rep, final=final):
                answer = (rep.ok, rep.halted, len(rep.records), nc.format_polynomial(rep.records[-1].actual))
                good = (rep.ok and not rep.halted and len(rep.records) == steps
                        and rep.records[-1].actual == nc.Polynomial.from_word(final))
                return answer, 0 if good else 1

            jobs.append(Job(
                f"lockstep {construction} len={length}",
                lambda c0=c0, construction=construction, p=p: nc.lockstep(spec, c0, steps, construction, presentation=p),
                check,
                floor=lambda c0=c0: nc.tm_run(spec, c0, steps),
                work=lambda rep: len(rep.records),
            ))
        return jobs


class Decide(Workload):
    """The three bounded deciders, on configurations that halt and that do not."""

    name = "decide"
    CELLS = 24
    NMAX = 60  # t^N annihilation, both constructions
    HALT_AT = (34, 42, 50, 58)
    RUNNING = 4
    NMAX_NILPOTENT = 6  # (t w)^n grows by |w| letters per power: small horizon
    HALT_AT_NILPOTENT = (3, 4, 5, 6)
    layers_used = (
        "harness.annihilate_bounded", "harness.zerodivisor_witness_bounded", "harness.nilpotent_bounded",
        "rewrite.normalize", "rewrite.concat", "rewrite.Matcher.redexes", "words.check_alphabet",
        "encodings.encode_config", "turing.tm_run", "turing.tm_step",
        "encodings.nilpotency_presentation", "encodings.zerodivisor_presentation",
    )

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.cases = []
        for kind, nmax, halts in (
            ("annihilate", self.NMAX, self.HALT_AT + (None,) * self.RUNNING),
            ("nilpotent", self.NMAX_NILPOTENT, self.HALT_AT_NILPOTENT + (None,) * self.RUNNING),
        ):
            for halt_at in halts:
                c0, run = _draw_config(rng, self.spec, self.CELLS, nmax, halt_at)
                expected = (nc.DecisionOutcome.found(max(1, run.steps)) if run.halted
                            else nc.DecisionOutcome.unknown(nmax))
                kinds = ("annihilate", "zerodivisor") if kind == "annihilate" else ("nilpotent",)
                for k in kinds:
                    self.cases.append((k, nmax, c0, expected))
        rng.shuffle(self.cases)

    def jobs(self):
        spec, pn, pz = self.spec, self.presentations[NILPOTENCY], self.presentations[ZERO_DIVISOR]
        calls = {
            "annihilate": lambda c0, n: nc.annihilate_bounded(spec, c0, n, NILPOTENCY, presentation=pn),
            "zerodivisor": lambda c0, n: nc.zerodivisor_witness_bounded(spec, c0, n, presentation=pz),
            "nilpotent": lambda c0, n: nc.nilpotent_bounded(spec, c0, n, presentation=pn),
        }
        jobs = []
        for kind, nmax, c0, expected in self.cases:
            jobs.append(Job(
                f"{kind} nmax={nmax} expect={expected.value if expected.witnessed else 'unknown'}",
                lambda f=calls[kind], c0=c0, nmax=nmax: f(c0, nmax),
                lambda out, expected=expected: ((out.witnessed, out.value), 0 if out == expected else 1),
                floor=lambda c0=c0, nmax=nmax: nc.tm_run(spec, c0, nmax),
                work=lambda out: out.value,
            ))
        return jobs


class Probe(Workload):
    """Right-t / left-s cancellation on thousands of short random words."""

    name = "probe"
    CALLS = 5
    SAMPLES = 400
    MAX_LEN = 12  # as in acceptance criterion 10
    layers_used = (
        "harness.cancellation_probe", "rewrite.normalize", "rewrite.Matcher.redexes",
        "words.check_alphabet", "encodings.encode_config", "encodings.zerodivisor_presentation",
    )

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        self.seeds = [rng.randrange(2**31) for _ in range(self.CALLS)]

    def jobs(self):
        def check(violations):
            return tuple(violations), len({w for w, _, _ in violations})

        return [
            Job(
                f"cancellation_probe seed={s}",
                lambda s=s: nc.cancellation_probe(self.SAMPLES, self.MAX_LEN, seed=s),
                check,
                count=self.SAMPLES,
                work=lambda _: self.SAMPLES,
            )
            for s in self.seeds
        ]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``ncrewrite <argv>`` in process: exit code and everything it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nc_cli.main(argv)
    return code, out.getvalue()


def _audit_checks(letters: int, max_len: int) -> int:
    """Checks audit_order makes: minimality and totality per word, then both
    monotonicity sides for every ordered pair and letter."""
    words = sum(letters**n for n in range(max_len + 1))
    return 2 * (words - 1) + letters * words * (words - 1)


class Certify(Workload):
    """Gröbner certificate, orientation and order audit through the CLI."""

    name = "certify"
    # the sub-alphabets of acceptance criterion 3; the zero-divisor audit at
    # length 3, not 4: one 1.5 s verdict cannot be timed steadily on a shared
    # host, while at length 3 (88 ms) audit_order still dominates the pass
    AUDITS = ((NILPOTENCY, ("t", "a0", "R"), 4), (ZERO_DIVISOR, ("t", "s", "a0", "L", "R"), 3))
    layers_used = (
        "cli.main", "encodings.make_presentation", "encodings.format_presentation",
        "encodings.parse_presentation", "groebner.find_ambiguities", "groebner.audit_orientation",
        "groebner.audit_order", "orders.ReductionOrder.sort_key", "words.letter_kind",
    )

    def __init__(self, rng, workdir):
        super().__init__(rng, workdir)
        # the seed permutes each audited alphabet (same word set, another
        # enumeration order) and the order of the verdicts
        self.audits = [(order, tuple(rng.sample(letters, len(letters))), n) for order, letters, n in self.AUDITS]
        self.job_order_seed = rng.getrandbits(32)

    def setup(self):
        """Compile both presentations through the CLI and read the text back."""
        self.files = {}
        self.presentations = {}
        for construction in (NILPOTENCY, ZERO_DIVISOR):
            path = self.workdir / f"{construction}.rules"
            code, _ = run_cli(["gen-presentation", "--construction", construction, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"gen-presentation {construction} exited {code}")
            p = nc.parse_presentation(path.read_text())
            p.matcher
            self.files[construction] = path
            self.presentations[construction] = p

    def jobs(self):
        def expect_cli(last_lines: list[str]):
            def check(result):
                code, text = result
                return (code, text), 0 if code == 0 and text.splitlines()[-len(last_lines):] == last_lines else 1
            return check

        jobs = []
        for construction in (NILPOTENCY, ZERO_DIVISOR):
            jobs.append(Job(
                f"overlaps {construction}",
                lambda path=self.files[construction]: run_cli(["overlaps", "--presentation", str(path)]),
                expect_cli(["0 ambiguities"]),
            ))
            jobs.append(Job(
                f"audit_orientation {construction}",
                lambda p=self.presentations[construction]: nc.audit_orientation(p),
                lambda bad: (tuple(bad), len(bad)),
            ))
        for order, letters, n in self.audits:
            jobs.append(Job(
                f"verify-order {order} alphabet={' '.join(letters)} max-len={n}",
                lambda order=order, letters=letters, n=n: run_cli(
                    ["verify-order", "--order", order, "--max-len", str(n), "--alphabet", " ".join(letters)]),
                expect_cli([f"checks: {_audit_checks(len(letters), n)}", "violations: 0"]),
            ))
        random.Random(self.job_order_seed).shuffle(jobs)
        return jobs


WORKLOADS = {w.name: w for w in (Simulate, Decide, Probe, Certify)}

