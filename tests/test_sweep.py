"""Sweeps: the normalizer moves a mover across a run of commuting letters in one go.

The families are found from the rules and the automaton alone, and a
sweep must leave normal forms, step counts and every ``BudgetExhausted``
field exactly as the elementary leftmost-redex path has them, here as
``LeftmostOracle`` computes them by slicing.
"""

import random

import pytest
from hypothesis import given, settings
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
    find_ambiguities,
    normalize,
)
from ncrewrite.orders import DEGLEX, ReductionOrder
from oracles import LeftmostOracle, config_word


def tag_ids(p, *schemata):
    return {rid for rid, r in enumerate(p.rules) if r.tag.split("[")[0] in schemata}


def commutes(rule):
    """c x y -> x c y or c x -> x c: one crossing of a sweep."""
    return rule.rhs is not None and len(rule.lhs) > 1 and rule.rhs == (rule.lhs[1], rule.lhs[0]) + rule.lhs[2:]


def count_redexes(rules, w):
    """Occurrences of every rule's lhs in w, by slicing: ``remaining_redexes``."""
    per_lhs = {}
    for r in rules:
        per_lhs[r.lhs] = per_lhs.get(r.lhs, 0) + 1
    lengths = {len(lhs) for lhs in per_lhs}
    return sum(per_lhs.get(w[pos:pos + n], 0) for pos in range(len(w)) for n in lengths if pos + n <= len(w))


def derivation(oracle, w):
    """The oracle's leftmost derivation of w: (position, rule) of each step."""
    steps = []
    while (hit := oracle.redex(w)) is not None:
        pos, rule = hit
        steps.append(hit)
        if rule.rhs is None:
            break
        w = w[:pos] + rule.rhs + w[pos + len(rule.lhs):]
    return steps


def mid_sweep_budgets(steps):
    """Budgets that run out inside, or just before, a run of commuting steps
    that each move the mover one letter on."""
    budgets = set()
    start = 0
    for i in range(1, len(steps) + 1):
        if i < len(steps) and commutes(steps[i][1]) and commutes(steps[i - 1][1]) \
                and steps[i][0] == steps[i - 1][0] + 1:
            continue
        if commutes(steps[start][1]) and i - start >= 3:  # steps start..i-1
            budgets.update((start, start + 1, (start + i) // 2, i - 1))
        start = i
    return sorted(budgets)


def assert_budget_agrees(p, oracle, w, budget):
    with pytest.raises(BudgetExhausted) as exc:
        normalize(Polynomial.from_word(w), p, budget=budget)
    partial, steps = oracle.normalize(w, max_steps=budget)
    assert (Polynomial.from_word(exc.value.partial), exc.value.steps) == (partial, steps), (w, budget)
    assert exc.value.remaining_redexes == count_redexes(p.rules, exc.value.partial), (w, budget)


def family_presentation(arity, before=(), after=(), span=("a0", "a1")):
    """The mover Q0 over ``span`` (rules c x y -> x c y, or c x -> x c, with
    c = Q0), with extra rules listed before (lower ids) and after the family."""
    alphabet = ("Q0", "a0", "a1", "a2", "t", "R")
    if arity == 3:
        family = [Rule(("Q0", x, y), (x, "Q0", y)) for x in span for y in span]
    else:
        family = [Rule(("Q0", x), (x, "Q0")) for x in span]
    rules = (*before, *family, *after)
    return Presentation(rules, ReductionOrder(DEGLEX, alphabet)), len(before), len(family)


class TestDetection:
    def test_minsky_families(self, p_nilp, p_zd):
        assert set(p_nilp.sweeps) == tag_ids(p_nilp, "tt2")
        assert len(p_nilp.sweeps) == 16
        assert set(p_zd.sweeps) == tag_ids(p_zd, "td2", "td8", "td9")
        assert len(tag_ids(p_zd, "td2")) == 16 and len(tag_ids(p_zd, "td8", "td9")) == 5
        cells = frozenset(f"a{k}" for k in range(4))
        assert set(p_nilp.sweeps.values()) == {cells}
        assert {p_zd.sweeps[rid] for rid in tag_ids(p_zd, "td2")} == {cells}
        assert {p_zd.sweeps[rid] for rid in tag_ids(p_zd, "td8", "td9")} == {cells | {"R"}}

    def test_not_by_name(self, p_nilp, p_zd):
        for p in (p_nilp, p_zd):
            blank = Presentation(tuple(Rule(r.lhs, r.rhs) for r in p.rules), ReductionOrder(DEGLEX, p.alphabet))
            assert blank.construction == "custom"
            assert blank.sweeps == p.sweeps

    def test_table_built_by_the_first_reduction(self, p_nilp):
        # the matcher alone, or an overlap search, leaves the table unbuilt
        p = Presentation(p_nilp.rules, p_nilp.order)
        p.matcher
        assert "sweeps" not in vars(p)
        assert find_ambiguities(p) == [] and "sweeps" not in vars(p)
        assert not hasattr(p, "_compiled")
        x = Polynomial.from_word(("t",) + encode_config(TMConfig((1, 2), 0, 3, ()), NILPOTENCY))
        assert normalize(x, p)[1] > 0
        assert "sweeps" in vars(p) and p.sweeps == p_nilp.sweeps

    @pytest.mark.parametrize("arity", [2, 3])
    def test_clean_family(self, arity):
        p, first, size = family_presentation(arity, after=[Rule(("t", "R"), ("t",))])
        assert p.sweeps == {rid: frozenset({"a0", "a1"}) for rid in range(first, first + size)}

    @pytest.mark.parametrize("arity, before, after", [
        # a lower-id rule with the same lhs fires instead
        (3, [Rule(("Q0", "a0", "a1"), None)], []),
        (2, [Rule(("Q0", "a1"), ("t",))], []),
        # an lhs that extends c x y (c x): the redex is not sure when read
        (3, [], [Rule(("Q0", "a1", "a0", "R"), ("R",))]),
        (2, [], [Rule(("Q0", "a0", "t"), ("t",))]),
        # an lhs that starts with a letter of S: a crossed letter is not at state 0
        (3, [], [Rule(("a1", "t"), ("t",))]),
        (2, [], [Rule(("a0",), ("R",))]),
        # an lhs c or c x: output before the last letter
        (3, [], [Rule(("Q0",), ("t",))]),
        (3, [], [Rule(("Q0", "a0"), ("t",))]),
        (2, [], [Rule(("Q0",), None)]),
    ])
    def test_distractor_rejects_family(self, arity, before, after):
        p, _, _ = family_presentation(arity, before, after)
        assert p.sweeps == {}
        oracle = LeftmostOracle(p.rules)
        for w in (("Q0", "a0", "a1", "a0", "a1", "t"), ("R", "Q0", "a1", "a1", "a0", "a0", "a1")):
            assert normalize(Polynomial.from_word(w), p) == oracle.normalize(w)


class TestAgainstOracle:
    @pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
    def test_long_configuration_words(self, construction, p_nilp, p_zd):
        p = p_nilp if construction == NILPOTENCY else p_zd
        oracle = LeftmostOracle(p.rules)
        rng = random.Random(12)
        checked = 0
        for cells in (30, 60, 110, 200):
            w = config_word(rng, construction, cells)
            while not 50 <= sum(x.startswith("a") for x in w) <= 400:
                w = config_word(rng, construction, cells)
            nf, steps = oracle.normalize(w)
            assert normalize(Polynomial.from_word(w), p) == (nf, steps), w
            budgets = mid_sweep_budgets(derivation(oracle, w))
            assert budgets, w  # every such word has a sweep to cut
            for budget in budgets:
                assert_budget_agrees(p, oracle, w, budget)
                checked += 1
        assert checked >= 16

    def test_sweep_rule_with_no_run_behind(self, p_nilp):
        # Eight crossings in (t encode(c))^2 have a letter outside the family's
        # span right behind the lhs: two end a sweep, and six are single rule
        # applications, four of them at automaton state 0, where a sweep
        # would be tried if a run followed.
        w = ("t",) + encode_config(TMConfig((1, 2, 0), 2, 1, (3, 0, 1)), NILPOTENCY)
        w += w
        oracle = LeftmostOracle(p_nilp.rules)
        no_run = 0
        u = w
        while (hit := oracle.redex(u)) is not None:
            pos, rule = hit
            rid, end = oracle.by_lhs[rule.lhs][0], pos + len(rule.lhs)
            no_run += rid in p_nilp.sweeps and end < len(u) and u[end] not in p_nilp.sweeps[rid]
            u = u[:pos] + rule.rhs + u[end:]
        assert no_run == 8
        nf, steps = oracle.normalize(w)
        assert normalize(Polynomial.from_word(w), p_nilp) == (nf, steps)
        assert steps == 20
        for budget in range(steps):
            assert_budget_agrees(p_nilp, oracle, w, budget)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_synthetic_families(self, data):
        arity = data.draw(st.sampled_from((2, 3)))
        span = tuple(sorted(data.draw(st.sets(st.sampled_from(("a0", "a1", "a2")), min_size=1))))
        letters = ("Q0", "a0", "a1", "a2", "t", "R")
        short_word = st.lists(st.sampled_from(letters), max_size=2).map(tuple)

        def shrinking(lhs):
            # rhs shorter than lhs, so with the family every rule set terminates
            return st.one_of(st.none(), st.lists(st.sampled_from(letters), max_size=len(lhs) - 1).map(tuple))

        x = st.sampled_from(span)
        lhs_kinds = st.one_of(
            st.tuples(st.just("Q0"), x, x) if arity == 3 else st.tuples(st.just("Q0"), x),  # same lhs
            st.tuples(st.just("Q0"), x, x, st.sampled_from(letters)),  # extends c x y
            st.builds(lambda head, tail: (head, *tail), x, short_word),  # starts in S
            st.sampled_from((("Q0",), ("Q0", "a0"))),  # c or c x
            st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple),  # anything
        )
        distractors = [Rule(lhs, data.draw(shrinking(lhs)))
                       for lhs in data.draw(st.lists(lhs_kinds, max_size=3))]
        cut = data.draw(st.integers(0, len(distractors)))
        p, _, _ = family_presentation(arity, distractors[:cut], distractors[cut:], span)
        if not distractors:
            assert p.sweeps
        oracle = LeftmostOracle(p.rules)
        # runs of span letters behind movers, with a few other letters
        pieces = st.one_of(st.just(("Q0",)), st.lists(x, max_size=12).map(tuple),
                           st.sampled_from(letters).map(lambda y: (y,)))
        w = sum(data.draw(st.lists(pieces, max_size=8)), ())
        nf, steps = oracle.normalize(w)
        assert normalize(Polynomial.from_word(w), p) == (nf, steps)
        if steps:
            assert_budget_agrees(p, oracle, w, data.draw(st.integers(0, steps - 1)))
