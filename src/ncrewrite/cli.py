"""Command-line interface (`ncrewrite`).

Exit codes: 0 on success or match, 1 on divergence/violation/unknown
(an exhausted rewrite budget leaves the answer unknown), 2 on usage
errors (argparse default) and on bad input: a malformed or missing file,
a letter outside the alphabet, or a negative bound; 141 (128 + SIGPIPE)
when the reader of stdout closes it early, as `head -n 1` does.

When its first argument names a subcommand, `main` registers only that
subcommand: building the parser of all ten costs about 1 ms, more than
some whole commands take.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .encodings import (
    _CONSTRUCTIONS,
    _construction,
    encode_config,
    format_presentation,
    make_presentation,
    parse_presentation,
)
from .groebner import audit_order, find_ambiguities
from .harness import (
    annihilate_bounded,
    cancellation_probe,
    lockstep,
    nilpotent_bounded,
    zerodivisor_witness_bounded,
)
from .orders import NILPOTENCY, ZERO_DIVISOR
from .rewrite import DEFAULT_BUDGET, BudgetExhausted, Polynomial, format_polynomial, normalize
from .turing import format_config, minsky_utm, parse_config, parse_tm_spec, tm_run
from .words import parse_word, word_to_str

# verify-order: the default sub-alphabet of each construction's order
_AUDITS = {NILPOTENCY: ("t", "a0", "R"), ZERO_DIVISOR: ("t", "s", "a0", "L", "R")}


def _load_tm(path: str | None):
    if path is None:
        return minsky_utm()
    return parse_tm_spec(Path(path).read_text())


def _machine(args):
    """The machine (``--tm``, or Minsky's) and the start configuration (``--config``)."""
    return _load_tm(args.tm), parse_config(Path(args.config).read_text())


def cmd_normalize(args) -> int:
    p = parse_presentation(Path(args.presentation).read_text())
    w = parse_word(args.word)
    nf, steps = normalize(Polynomial.from_word(w), p, budget=args.budget)
    print(f"normal form: {format_polynomial(nf)}")
    print(f"steps: {steps}")
    return 0


def cmd_overlaps(args) -> int:
    p = parse_presentation(Path(args.presentation).read_text())
    ambiguities = find_ambiguities(p)
    for a in ambiguities:
        print(f"{a.kind.upper()} r{a.rule1} r{a.rule2} witness: {word_to_str(a.witness)}")
    print(f"{len(ambiguities)} ambiguities")
    return 0 if not ambiguities else 1


def cmd_verify_order(args) -> int:
    if args.max_len < 1:  # an audit of no words would print an empty certificate
        raise ValueError("max_len must be >= 1")
    alphabet = _AUDITS[args.order] if args.alphabet is None else tuple(args.alphabet.split())
    if not alphabet or len(set(alphabet)) < len(alphabet):  # words would repeat or be none
        raise ValueError(f"--alphabet must list distinct letters, got {args.alphabet!r}")
    report = audit_order(_construction(args.order).order(), alphabet, args.max_len)
    print(f"alphabet: {' '.join(report.alphabet)}")
    print(f"max length: {report.max_len}")
    print(f"checks: {report.checks}")
    print(f"violations: {len(report.violations)}")
    for kind, *words in report.violations[:20]:
        if isinstance(words[0], str):  # left / right: the letter, then the two words
            kind = f"{kind} {words.pop(0)}"
        print(f"  {kind}: {', '.join(map(word_to_str, words))}")
    return 0 if report.ok else 1


def cmd_gen_presentation(args) -> int:
    spec = _load_tm(args.tm)
    p = make_presentation(spec, args.construction)
    text = format_presentation(p)
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(p.rules)} rules written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_tm_run(args) -> int:
    spec, c0 = _machine(args)
    result = tm_run(spec, c0, args.budget)
    if result.halted:
        print(f"halted after {result.steps} steps")
    else:
        print(f"still running after {result.steps} steps")
    sys.stdout.write(format_config(result.config))
    return 0


def cmd_lockstep(args) -> int:
    spec, c0 = _machine(args)
    report = lockstep(spec, c0, args.steps, args.construction)
    for n, rec in enumerate(report.records):
        status = "ok" if rec.matched else "DIVERGED"
        print(f"step {n}: {word_to_str(rec.word)} [{status}]")
    if report.halted:
        print("machine halted")
    if report.ok:
        print(f"{len(report.records)} steps matched")
        return 0
    print(f"divergence at step {report.divergence}")
    return 1


def _print_outcome(kind: str, outcome, witness: str = "witnessed at {}") -> int:
    """Print a decider's verdict; ``witness`` words a found value ({} is where it goes)."""
    if outcome.witnessed:
        print(f"{kind}: {witness.format(outcome.value)}")
        return 0
    print(f"{kind}: unknown up to {outcome.value}")
    return 1


def cmd_nilpotent(args) -> int:
    spec, c0 = _machine(args)
    return _print_outcome("nilpotency", nilpotent_bounded(spec, c0, args.nmax))


def cmd_annihilate(args) -> int:
    spec, c0 = _machine(args)
    outcome = annihilate_bounded(spec, c0, args.nmax, NILPOTENCY)
    return _print_outcome("left annihilation by t^N", outcome)


def cmd_zerodivisor(args) -> int:
    spec, c0 = _machine(args)
    outcome = zerodivisor_witness_bounded(spec, c0, args.nmax)
    word = word_to_str(encode_config(c0, ZERO_DIVISOR))
    return _print_outcome("zero divisor", outcome, "t^{} annihilates " + word + " from the left")


def cmd_cancellation_probe(args) -> int:
    violations = cancellation_probe(args.samples, args.max_len, seed=args.seed)
    print(f"samples: {args.samples}")
    print(f"violations: {len(violations)}")
    for w, side, n in violations[:20]:
        print(f"  {side} n={n}: {word_to_str(w)}")
    return 0 if not violations else 1


# Each subcommand: its help line and its options, in registration order.
# Handlers are looked up by name when a parser is built, so a wrapper that
# replaces a ``cmd_*`` function in this module (as bench/tracing.py does) is
# the one that runs.
_MACHINE = [("--tm", {}), ("--config", {"required": True})]
_CONSTRUCTION = ("--construction", {"choices": list(_CONSTRUCTIONS), "required": True})
_PRESENTATION = ("--presentation", {"required": True})
_COMMANDS = {
    "normalize": ("normalize a word under a presentation", [
        _PRESENTATION, ("--word", {"required": True}), ("--budget", {"type": int, "default": DEFAULT_BUDGET})]),
    "overlaps": ("list ambiguities among rule lhs words", [_PRESENTATION]),
    "verify-order": ("audit order axioms exhaustively", [
        ("--order", {"choices": list(_CONSTRUCTIONS), "required": True}),
        ("--max-len", {"type": int, "required": True}),
        ("--alphabet", {"help": "space-separated letters (default: small sub-alphabet)"})]),
    "gen-presentation": ("compile a TM into rules", [
        ("--tm", {"help": "TM spec file (default: built-in Minsky UTM)"}), _CONSTRUCTION, ("--out", {})]),
    "tm-run": ("run a Turing machine", [*_MACHINE, ("--budget", {"type": int, "required": True})]),
    "lockstep": ("machine vs rewriting, step by step",
                 [*_MACHINE, ("--steps", {"type": int, "required": True}), _CONSTRUCTION]),
    **{name: (f"bounded {name} decider", [*_MACHINE, ("--nmax", {"type": int, "required": True})])
       for name in ("nilpotent", "annihilate", "zerodivisor")},
    "cancellation-probe": ("randomized right-t / left-s cancellation check", [
        ("--samples", {"type": int, "required": True}), ("--max-len", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0})]),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named ``only``.

    The usage line lists every subcommand either way, so an error that
    prints it reads the same.
    """
    parser = argparse.ArgumentParser(
        prog="ncrewrite",
        description="Free-algebra rewriting engine with Turing-machine encodings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if only is not None:  # unset on the full parser, whose "required: command" error names the dest
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name in _COMMANDS if only is None else [only]:
        helptext, options = _COMMANDS[name]
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
        for option, kwargs in options:
            sp.add_argument(option, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout: not bad input
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit-time flush stays quiet
        return 141  # 128 + SIGPIPE, as a shell shows for a tool cut off the same way
    except (ValueError, OSError) as exc:  # AlphabetError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
