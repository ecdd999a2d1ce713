"""The reduction loop stops reading at a tail that its caller knows is normal.

``_reduce_word(pending, p, budget, len(y))``, with ``pending`` the word u y
reversed in a list and y normal, must give exactly what reading the whole
word gives: the normal form (the prefix read, then the rest of ``pending``
reversed) and the step count, or the ``BudgetExhausted`` partial word,
steps and remaining redexes.  ``_first_zero_power``, which stops a chain of
powers at the first power that rewrites nothing when its letter is a fixed
point of the automaton, must give what every power read to the bound gives.
"""

import functools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncrewrite import (
    NILPOTENCY,
    ZERO_DIVISOR,
    BudgetExhausted,
    Polynomial,
    Presentation,
    Rule,
    TMConfig,
    encode_config,
    make_presentation,
    minsky_utm,
    normalize,
)
from ncrewrite import rewrite
from ncrewrite.orders import DEGLEX, ReductionOrder
from ncrewrite.rewrite import _first_zero_power, _reduce_word
from oracles import config_word, first_zero_power_reference, tiny_halting_machine


def full_read(w, p, budget):
    try:
        return normalize(Polynomial.from_word(w), p, budget)
    except BudgetExhausted as exc:
        return exc.partial, exc.steps, exc.remaining_redexes


def tail_read(w, p, budget, normal):
    pending = list(reversed(w))
    try:
        letters, steps = _reduce_word(pending, p, budget, normal)
    except BudgetExhausted as exc:
        return exc.partial, exc.steps, exc.remaining_redexes
    if letters is None:
        return Polynomial.zero(), steps
    # the normal form is the prefix read, then the unread rest of the list
    return Polynomial.from_word(tuple(letters + pending[::-1])), steps


def normal_word(w, p, budget=10**4):
    """The normal form of w as a word; None when it is zero or not reached."""
    try:
        nf, _ = normalize(Polynomial.from_word(w), p, budget)
    except BudgetExhausted:
        return None
    return next(iter(nf.terms), None)


def assert_tail_agrees(u, y, p, budget):
    w = u + y
    assert tail_read(w, p, budget, len(y)) == full_read(w, p, budget), (u, y, budget)


def test_configuration_words(p_nilp, p_zd):
    rng = random.Random(31)
    checked = 0
    for construction, p in ((NILPOTENCY, p_nilp), (ZERO_DIVISOR, p_zd)):
        for _ in range(150):
            y = normal_word(config_word(rng, construction, cells=rng.choice((2, 6, 20))), p)
            if y is None:
                continue
            # t^k, as the deciders multiply, or a few letters of anything
            u = ("t",) * rng.randint(1, 3) if rng.random() < 0.5 else \
                tuple(rng.choice(p.alphabet) for _ in range(rng.randint(0, 4)))
            _, steps = normalize(Polynomial.from_word(u + y), p)
            for budget in {steps, rng.randint(0, steps), 10**6}:
                assert_tail_agrees(u, y, p, budget)
                checked += 1
    assert checked >= 400


LETTERS = ("Q0", "a0", "a1", "R")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_synthetic_presentations(data):
    word = st.lists(st.sampled_from(LETTERS), max_size=8).map(tuple)
    rules = []
    if data.draw(st.booleans()):
        # Q0 moves right across a0 and a1: a sweep family unless a distractor breaks it
        rules += [Rule(("Q0", x), (x, "Q0")) for x in ("a0", "a1")]
    for lhs in data.draw(st.lists(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3).map(tuple),
                                  min_size=1, max_size=5)):
        # rhs shorter than lhs, so the rule set terminates
        rhs = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(LETTERS), max_size=len(lhs) - 1).map(tuple)))
        rules.append(Rule(lhs, rhs))
    p = Presentation(tuple(rules), ReductionOrder(DEGLEX, LETTERS))
    y = normal_word(data.draw(word), p)
    assume(y is not None)
    assert_tail_agrees(data.draw(word), y, p, data.draw(st.integers(0, 40)))


@functools.cache
def power_cases():
    """(machine name, construction, presentation) for both constructions of
    Minsky's machine and of the tiny halting machine."""
    machines = (("minsky", minsky_utm()), ("tiny", tiny_halting_machine()))
    return tuple((name, construction, make_presentation(spec, construction))
                 for name, spec in machines for construction in (NILPOTENCY, ZERO_DIVISOR))


def power_reference(w, x, p, nmax):
    """The smallest n <= nmax with x^n w normalizing to zero, read whole; 0 if none."""
    for n in range(1, nmax + 1):
        if normalize(Polynomial.from_word((x,) * n + w), p)[0].is_zero():
            return n
    return 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_zero_power(data):
    name, construction, p = data.draw(st.sampled_from(power_cases()))
    x = data.draw(st.sampled_from([x for x in ("t", "s") if x in p.letters]))
    nmax = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(("configuration", "letters")))
    if kind == "letters":
        w = tuple(rng.choice(p.alphabet) for _ in range(rng.randint(0, 10)))
    elif name == "minsky":
        w = config_word(rng, construction, cells=rng.choice((2, 6)))
    else:
        c = TMConfig(tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))), rng.randrange(2),
                     rng.randrange(2), tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))))
        w = ("t",) * rng.randint(0, 2) + encode_config(c, construction)
    assert _first_zero_power(w, x, p, nmax, 0) == power_reference(w, x, p, nmax), (w, x, nmax)
    # on a normal word, vouching for all of it changes nothing
    y = normal_word(w, p)
    if y is not None:
        expected = power_reference(y, x, p, nmax)
        assert _first_zero_power(y, x, p, nmax, len(y)) == _first_zero_power(y, x, p, nmax, 0) == expected


POWER_LETTERS = ("a0", "a1", "t", "s")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_zero_power_stop_is_exact(data):
    # any small rule set, confluent or not, where the chain letter x may or
    # may not be a fixed point of the automaton: the answer is that of every
    # power read to the bound
    x = data.draw(st.sampled_from(("t", "s")))
    letters = st.lists(st.sampled_from(POWER_LETTERS), min_size=1, max_size=3).map(tuple)
    x_x = st.lists(st.sampled_from(POWER_LETTERS), max_size=1).map(lambda u: (x, x, *u))
    rules = []
    for lhs in data.draw(st.lists(st.one_of(letters, x_x), min_size=1, max_size=6)):
        # rhs shorter than lhs, or zero, so every reduction ends
        rhs = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(POWER_LETTERS),
                                                        max_size=len(lhs) - 1).map(tuple)))
        rules.append(Rule(lhs, rhs))
    p = Presentation(tuple(rules), ReductionOrder(DEGLEX, POWER_LETTERS))
    nmax = data.draw(st.integers(1, 5))
    w = tuple(data.draw(st.lists(st.sampled_from(POWER_LETTERS), max_size=6)))
    assert _first_zero_power(w, x, p, nmax, 0) == first_zero_power_reference(w, x, p, nmax), (w, x, nmax)
    y = normal_word(w, p)
    if y is not None:
        assert _first_zero_power(y, x, p, nmax, len(y)) == first_zero_power_reference(y, x, p, nmax), (y, x)


@pytest.mark.parametrize("extra, y, answer, calls", [
    # on Minsky's zero-divisor rules s is a fixed point of the automaton
    (None, ("L", "Q2", "P0", "R"), 0, 1),  # s L Q2 P0 R is normal, so s^n L Q2 P0 R is for every n
    (None, ("a1", "Q2", "P0", "R"), 0, 3),  # each s crosses the cell: every power rewrites
    # with s s L -> 0 it is not: s L Q2 P0 R is normal, but the second power is zero
    (("s", "s", "L"), ("L", "Q2", "P0", "R"), 2, 2),
])
def test_first_zero_power_reduction_count(extra, y, answer, calls, p_zd, monkeypatch):
    p = p_zd if extra is None else Presentation(p_zd.rules + (Rule(extra, None),), p_zd.order)
    counted = []
    reduce_word = rewrite._reduce_word

    def counting(pending, p, *args):
        counted.append(tuple(reversed(pending)))  # the word this call reads
        return reduce_word(pending, p, *args)

    monkeypatch.setattr(rewrite, "_reduce_word", counting)
    assert _first_zero_power(y, "s", p, 3, len(y)) == answer
    assert len(counted) == calls and counted[0] == ("s",) + y
