"""Executable experiments: lockstep simulation, bounded deciders, probes.

Halting of the encoded machine is undecidable, so every decider here is
a bounded semidecision: it answers "witnessed at n" or "unknown up to
the bound", never "no".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .encodings import _construction, encode_config, make_presentation
from .orders import NILPOTENCY, ZERO_DIVISOR
from .rewrite import Polynomial, Presentation, _first_zero_power, concat, normalize
from .turing import TMConfig, TMSpec, minsky_utm, tm_step
from .words import Word, check_alphabet, psi_alphabet


@dataclass(frozen=True)
class StepRecord:
    config: TMConfig
    word: Word
    actual: Polynomial
    expected: Optional[Polynomial]  # None at a halt pair (actual must be zero)
    matched: bool


@dataclass(frozen=True)
class LockstepReport:
    records: tuple[StepRecord, ...]
    divergence: Optional[int]
    halted: bool

    @property
    def ok(self) -> bool:
        return self.divergence is None


@dataclass(frozen=True)
class DecisionOutcome:
    """Witnessed(n): zero reached at n.  Unknown(bound): searched up to bound."""

    witnessed: bool
    value: int

    @classmethod
    def found(cls, n: int) -> "DecisionOutcome":
        return cls(True, n)

    @classmethod
    def unknown(cls, bound: int) -> "DecisionOutcome":
        return cls(False, bound)


def _presentation(spec: TMSpec, construction: str, presentation: Presentation | None) -> Presentation:
    """`presentation`, or the one compiled for `construction`; the other
    construction's rules do not simulate the machine on these words."""
    _construction(construction)  # an unknown name is refused before any presentation is compared
    if presentation is None:
        return make_presentation(spec, construction)
    if presentation.construction in (NILPOTENCY, ZERO_DIVISOR) and presentation.construction != construction:
        raise ValueError(f"{presentation.construction} presentation given for the {construction} construction")
    return presentation


def lockstep(
    spec: TMSpec,
    c0: TMConfig,
    steps: int,
    construction: str,
    presentation: Presentation | None = None,
) -> LockstepReport:
    """Run machine and rewriting side by side for up to `steps` steps.

    At each non-halting step, t * encode(c) must normalize to the
    encoding of the successor followed by t (nilpotency) or s
    (zero-divisor), or to zero when the successor sits on a halt pair; at
    a halt pair it must normalize to zero.  The expected value comes from
    the machine alone, never from the rules under test.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    c0.validate(spec)
    p = _presentation(spec, construction, presentation)
    tail = (_construction(construction).step,)
    records: list[StepRecord] = []
    c, w, nxt = c0, encode_config(c0, construction), tm_step(spec, c0)
    for n in range(steps):
        actual, _ = normalize(Polynomial.from_word(("t",) + w), p)
        if nxt is None:
            expected, matched = None, actual.is_zero()
        else:
            after = tm_step(spec, nxt)
            w_next = encode_config(nxt, construction)
            # a halt pair Q_i P_j is the only redex the successor's word can hold
            expected = Polynomial.zero() if after is None else Polynomial.from_word(w_next + tail)
            matched = actual == expected
        records.append(StepRecord(c, w, actual, expected, matched))
        if nxt is None or not matched:
            return LockstepReport(tuple(records), None if matched else n, nxt is None)
        c, w, nxt = nxt, w_next, after
    return LockstepReport(tuple(records), None, False)


def annihilate_bounded(
    spec: TMSpec,
    c0: TMConfig,
    nmax: int,
    construction: str = NILPOTENCY,
    presentation: Presentation | None = None,
) -> DecisionOutcome:
    """Smallest N <= nmax with t^N * encode(c0) normalizing to zero.

    One power of t at a time, each on the normal form of the last (see
    ``_first_zero_power``).  The first power reads t * encode(c0) whole:
    the configuration word is not reduced first, since on a halt pair it
    holds that one redex.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    c0.validate(spec)
    p = _presentation(spec, construction, presentation)
    w = encode_config(c0, construction)
    check_alphabet(w + ("t",), p.letters)
    n = _first_zero_power(w, "t", p, nmax, 0)
    return DecisionOutcome.found(n) if n else DecisionOutcome.unknown(nmax)


def nilpotent_bounded(
    spec: TMSpec,
    c0: TMConfig,
    nmax: int,
    presentation: Presentation | None = None,
) -> DecisionOutcome:
    """Smallest n <= nmax with (t * encode(c0))^n normalizing to zero.

    Each power multiplies the previous normal form on the left, as
    base * acc: the one new t crosses the configuration word and then
    acc, a run of cells at a time, where acc * base would leave a train of
    n t letters that the rewriting advances one rewrite at a time.  For a
    Gröbner basis (both constructions, criterion 1) every word has one
    normal form, so the outcome is the same under either bracketing.  For
    other rule sets a found(n) is still a reduction of the n-th power to
    zero, but the smallest such n can depend on the bracketing.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    c0.validate(spec)
    p = _presentation(spec, NILPOTENCY, presentation)
    base = Polynomial.from_word(("t",) + encode_config(c0, NILPOTENCY))
    acc = Polynomial.from_word(())  # the empty word: the 0th power
    for n in range(1, nmax + 1):
        acc, _ = normalize(concat(base, acc), p)
        if acc.is_zero():
            return DecisionOutcome.found(n)
    return DecisionOutcome.unknown(nmax)


def zerodivisor_witness_bounded(
    spec: TMSpec,
    c0: TMConfig,
    nmax: int,
    presentation: Presentation | None = None,
) -> DecisionOutcome:
    """Left annihilator t^N for encode(c0) in the zero-divisor algebra."""
    return annihilate_bounded(spec, c0, nmax, ZERO_DIVISOR, presentation=presentation)


def _random_structured_word(rng: random.Random, states: int, colors: int, max_len: int) -> Word:
    randrange, randint = rng.randrange, rng.randint
    room = max(0, (max_len - 4) // 2)
    u = tuple([randrange(colors) for _ in range(randint(0, room))])
    v = tuple([randrange(colors) for _ in range(randint(0, room))])
    c = TMConfig(u, randrange(states), randrange(colors), v)
    w = list(encode_config(c, ZERO_DIVISOR))
    for _ in range(randint(0, 3)):
        if len(w) >= max_len:
            break
        w.insert(randint(0, len(w)), rng.choice(("t", "s")))
    return tuple(w[:max_len])


def _random_word(rng: random.Random, alphabet: tuple[str, ...], max_len: int) -> Word:
    choice = rng.choice
    return tuple([choice(alphabet) for _ in range(rng.randint(1, max_len))])


_DRAWS_PER_SAMPLE = 100  # draws allowed per sample wanted, before giving up


def cancellation_probe(
    samples: int,
    max_len: int,
    seed: int = 0,
    presentation: Presentation | None = None,
) -> list[tuple[Word, str, int]]:
    """Probe right-t / left-s cancellation in the zero-divisor algebra.

    Samples words X with nonzero normal form (half structured
    configuration words with extra t/s letters, half fully random) and
    checks that X t^n and s^n X stay nonzero for n in 1..3.  Returns the
    violations found (expected empty).  ``presentation`` defaults to the
    zero-divisor presentation of Minsky's machine.  The machine shape of
    the configuration words is read off its Q<i> and a<k> letters.  Raises
    ValueError when fewer than ``samples`` of ``_DRAWS_PER_SAMPLE`` times
    that many draws have a nonzero normal form.

    The derived words are built from Y = NF(X), which the nonzero test has
    just computed.  Y is normal, so a redex of Y t^n ends in the t letters:
    Y t^n is normalized only when some lhs ends in t, and is normal
    otherwise.  s^n Y is reduced one s at a time on a normal tail (see
    ``_first_zero_power``), and the chain stops at the first s that
    rewrites nothing when s is a fixed point of the automaton (no lhs
    begins with s s): s^n Y is then normal for every larger n too.  On
    Minsky's rules that holds, and a Y that begins with L takes one
    reduction, not three.  For a Gröbner basis (the zero-divisor
    construction, criterion 1) every word has one normal form, so the
    violations are those of the raw words X t^n and s^n X.  For other rule
    sets each violation is still a reduction of the raw word to zero,
    through NF(X), but which samples are reported can depend on that
    reading.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    rng = random.Random(seed)
    p = _presentation(minsky_utm(), ZERO_DIVISOR, presentation)
    states = sum(x.startswith("Q") for x in p.alphabet)
    colors = sum(x.startswith("a") for x in p.alphabet)
    # configuration words only over a full zero-divisor alphabet of that shape
    structured = states and colors and p.letters.issuperset(psi_alphabet(states, colors))
    check_alphabet(("t", "s"), p.letters)
    right_t = any(rule.lhs[-1] == "t" for rule in p.rules)  # else every Y t^n is normal
    violations: list[tuple[Word, str, int]] = []
    produced = 0
    draws = _DRAWS_PER_SAMPLE * samples
    for _ in range(draws):
        if structured and rng.random() < 0.5:
            x = _random_structured_word(rng, states, colors, max_len)
        else:
            x = _random_word(rng, p.alphabet, max_len)
        nf, _ = normalize(Polynomial.from_word(x), p)
        if nf.is_zero():
            continue
        produced += 1
        (y,) = nf.terms
        k = _first_zero_power(y, "s", p, 3, len(y))  # the first zero s^k Y, 0 if none
        for n in (1, 2, 3):
            if right_t and normalize(Polynomial.from_word(y + ("t",) * n), p)[0].is_zero():
                violations.append((x, "right-t", n))
            if 0 < k <= n:
                violations.append((x, "left-s", n))
        if produced == samples:
            return violations
    raise ValueError(f"only {produced} of {draws} sampled words have a nonzero normal form, {samples} wanted")
