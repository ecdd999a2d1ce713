"""Antihydra, a 6-state 2-color machine whose halting from the blank tape is
an open Collatz-like question ("Antihydra", bbchallenge.org wiki).

The machine file is accepted by arithmetic, not by the engine: at the
configurations where the head is in state 0 on a blank cell, with only
blanks to its left and a 1 to its right, the tape reads 1^b 0 0 1^(a-6),
and (a, b) runs through the terms of a_{k+1} = floor(3 a_k / 2) from 8 that
follow an even term.  These tests say nothing about whether it halts; the
deciders can only answer "unknown up to N".
"""

import re
from pathlib import Path

import pytest

from ncrewrite import (
    NILPOTENCY,
    ZERO_DIVISOR,
    DecisionOutcome,
    Move,
    Polynomial,
    TMConfig,
    TMSpec,
    annihilate_bounded,
    encode_config,
    lockstep,
    make_presentation,
    normalize,
    parse_tm_spec,
    tm_run,
)
from ncrewrite.turing import STOP
from oracles import EDGE, annihilate_reference

BLANK = TMConfig((), 0, 0, ())
# the steps after which the head is at the left end of the tape in state 0
# (observed; test_no_other_head_configurations checks the first seven)
HEAD_STEPS = (5, 41, 144, 383, 2058, 4739, 10784, 54697, 277322, 7111045)


@pytest.fixture(scope="module")
def antihydra():
    return parse_tm_spec((Path(__file__).parent / "machines" / "antihydra.tm").read_text())


def tape_at_head(c):
    """The tape right of the head, trailing blanks dropped, when the head is in
    state 0 on a blank cell with only blanks to its left and a 1 to its right."""
    if c.state == 0 and c.current == 0 and not any(c.left) and c.right[:1] == (1,):
        return "".join(map(str, c.right)).rstrip("0")
    return None


def term(tape):
    """(a, b) for a tape 1^b 0 0 1^(a-6)."""
    m = re.fullmatch(r"(1+)00(1+)", tape or "")
    return (len(m[2]) + 6, len(m[1])) if m else None


def expected_terms(count):
    """The terms of a_{k+1} = floor(3 a_k / 2) from a_0 = 8 that follow an even
    term, with b = 0 at a_0, rising by 2 after an even term and falling by 1
    after an odd one."""
    a, b, terms = 8, 0, []
    while len(terms) < count:
        even = a % 2 == 0
        a, b = 3 * a // 2, b + 2 if even else b - 1
        if even:
            terms.append((a, b))
    return terms


def head_tapes(spec, steps):
    """The tapes at the head after each of the given step counts, read off
    tm_run's configurations; None where the machine halted or the head is
    elsewhere."""
    c, done, tapes = BLANK, 0, []
    for step in steps:
        run = tm_run(spec, c, step - done)
        c, done = run.config, step
        tapes.append(None if run.halted else tape_at_head(c))
    return tapes


def test_the_table_follows_the_map(antihydra):
    tapes = head_tapes(antihydra, HEAD_STEPS)
    assert tapes[0] == "111"  # the start-up configuration
    assert list(map(term, tapes[1:])) == expected_terms(9)
    assert expected_terms(9)[-2:] == [(681, 13), (3444, 12)]


def test_no_other_head_configurations(antihydra):
    # one step at a time, the head reaches that shape only at the listed steps
    c, seen = BLANK, []
    for step in range(1, HEAD_STEPS[6] + 1):
        run = tm_run(antihydra, c, 1)
        assert not run.halted
        c = run.config
        if tape_at_head(c) is not None:
            seen.append(step)
    assert seen == list(HEAD_STEPS[:7])


def mutants(spec):
    """The machines with one moving entry's write color or direction flipped."""
    for key, move in spec.table.items():
        if move is STOP:
            continue
        for changed in (Move(move.direction, move.state, 1 - move.color),
                        Move("R" if move.direction == "L" else "L", move.state, move.color)):
            yield TMSpec(spec.states, spec.colors, {**spec.table, key: changed})


def test_every_single_entry_mutant_breaks_the_map(antihydra):
    steps = HEAD_STEPS[:8]  # within 10^5 steps
    assert len(list(mutants(antihydra))) == 22
    for mutant in mutants(antihydra):
        assert head_tapes(mutant, steps) != head_tapes(antihydra, steps)


@pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
def test_annihilation_unknown_at_ten_thousand(antihydra, construction):
    assert not tm_run(antihydra, BLANK, 10**4).halted
    assert annihilate_bounded(antihydra, BLANK, 10**4, construction) == DecisionOutcome.unknown(10**4)


@pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
def test_annihilation_equals_reference(antihydra, construction):
    for nmax in (1, 7, 40):
        assert (annihilate_bounded(antihydra, BLANK, nmax, construction)
                == annihilate_reference(antihydra, BLANK, nmax, construction))
    # a configuration that reaches the halt pair (5, 0) after 12 steps
    c = TMConfig((1, 1), 4, 1, (0, 0))
    assert tm_run(antihydra, c, 20) == tm_run(antihydra, c, 12) and tm_run(antihydra, c, 12).halted
    for nmax in (11, 12, 40):
        outcome = annihilate_bounded(antihydra, c, nmax, construction)
        assert outcome == annihilate_reference(antihydra, c, nmax, construction)
        assert outcome == (DecisionOutcome.found(12) if nmax >= 12 else DecisionOutcome.unknown(nmax))


@pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
def test_lockstep_from_blank(antihydra, construction):
    report = lockstep(antihydra, BLANK, 2000, construction)
    assert report.ok and not report.halted and len(report.records) == 2000


def test_constructions_agree_power_by_power(antihydra):
    # without tm_run: NF(t^n encode_N(blank)) = u t^n and NF(t^n encode_Z(blank)) = v s^n,
    # where u and v differ only in the left edge letter
    p = {construction: make_presentation(antihydra, construction) for construction in (NILPOTENCY, ZERO_DIVISOR)}
    step = {NILPOTENCY: "t", ZERO_DIVISOR: "s"}
    for n in (*range(1, 65), 2000):
        cores = []
        for construction in (NILPOTENCY, ZERO_DIVISOR):
            w = ("t",) * n + encode_config(BLANK, construction)
            (nf,) = normalize(Polynomial.from_word(w), p[construction])[0].terms
            assert nf[len(nf) - n:] == (step[construction],) * n, (construction, n)
            assert nf[0] == EDGE[construction], (construction, n)
            cores.append(nf[1:len(nf) - n])
        assert cores[0] == cores[1], n
