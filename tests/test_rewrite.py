import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncrewrite import (
    NILPOTENCY,
    ZERO_DIVISOR,
    AlphabetError,
    BudgetExhausted,
    Matcher,
    Polynomial,
    Presentation,
    Rule,
    TMConfig,
    concat,
    encode_config,
    format_polynomial,
    make_presentation,
    minsky_utm,
    nilpotency_order,
    normalize,
    parse_presentation,
    parse_word,
    zerodivisor_order,
)
from ncrewrite import rewrite
from ncrewrite.orders import DEGLEX, ReductionOrder
from oracles import LeftmostOracle, RightmostOracle, config_word, matcher_tables, one_step_rewrites


def draw_patterns(data, alphabet, min_size=1):
    """Random patterns, then duplicates, proper prefixes and factors of them,
    in a random order."""
    pats = data.draw(st.lists(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=5).map(tuple), min_size=min_size, max_size=5))
    for _ in range(data.draw(st.integers(0, 3)) if pats else 0):
        src = data.draw(st.sampled_from(pats))
        start = data.draw(st.integers(0, len(src) - 1))
        pats.append(src[start:data.draw(st.integers(start + 1, len(src)))])
    return data.draw(st.permutations(pats))


def naive_scan(patterns, word):
    hits = []
    for pid, pat in enumerate(patterns):
        for pos in range(len(word) - len(pat) + 1):
            if word[pos:pos + len(pat)] == pat:
                hits.append((pos, pid))
    return sorted(hits, key=lambda hit: (hit[0], len(patterns[hit[1]]), hit[1]))


def naive_scan_by_length(patterns, word):
    """``naive_scan`` with the patterns grouped by length: one slice per
    position and length, which keeps long words over many patterns cheap."""
    ids = {}
    for pid, pat in enumerate(patterns):
        ids.setdefault(pat, []).append(pid)
    hits = []
    for n in {len(pat) for pat in patterns}:
        for pos in range(len(word) - n + 1):
            hits += [(pos, pid) for pid in ids.get(word[pos:pos + n], ())]
    return sorted(hits, key=lambda hit: (hit[0], len(patterns[hit[1]]), hit[1]))


class TestPolynomial:
    def test_zero(self):
        assert Polynomial.zero().is_zero()
        assert (Polynomial.from_word(("t",)) + Polynomial({("t",): -1})).is_zero()

    def test_concat_distributes(self):
        x = Polynomial.from_word(("a0",)) + Polynomial.from_word(("a1",))
        y = Polynomial.from_word(("R",))
        assert concat(x, y) == Polynomial.from_word(("a0", "R")) + Polynomial.from_word(("a1", "R"))

    def test_concat_zero(self):
        assert concat(Polynomial.zero(), Polynomial.from_word(("t",))).is_zero()
        assert concat(Polynomial.from_word(("t",)), Polynomial.from_word(("R",))) == \
            Polynomial.from_word(("t", "R"))

    def test_concat_cancels_or_adds_a_term(self):
        # (a0 -+ a0 a1)(a1 + eps): the two products a0 a1 cancel, or add up to 2 a0 a1
        y = Polynomial.from_word(("a1",)) + Polynomial.from_word(())
        for sign in (-1, 1):
            x = Polynomial.from_word(("a0",)) + Polynomial({("a0", "a1"): sign})
            expected = {("a0",): Fraction(1), ("a0", "a1", "a1"): Fraction(sign)}
            if sign == 1:
                expected[("a0", "a1")] = Fraction(2)
            assert concat(x, y).terms == expected

    def test_equality_with_another_type(self):
        x = Polynomial.from_word(("t",))
        assert x.__eq__(("t",)) is NotImplemented
        assert x != ("t",) and x != {("t",): 1} and Polynomial.zero() != 0

    def test_unhashable(self):
        # it defines __eq__ and no __hash__, so Python makes it unhashable
        with pytest.raises(TypeError):
            hash(Polynomial.zero())

    def test_format_parse_roundtrip(self):
        x = Polynomial({("t", "R"): Fraction(1, 2)}) + Polynomial({("a0",): -3})
        y = Polynomial({parse_word("a0"): Fraction(-3), parse_word("t R"): Fraction(1, 2)})
        assert format_polynomial(x) == "-3 * a0 + 1/2 * t R"
        # equal polynomials, built apart, format to one interned string
        assert format_polynomial(y) is format_polynomial(x)
        assert format_polynomial(Polynomial.zero()) == "0"

    def test_repr(self):
        assert repr(Polynomial.from_word(("t", "R"))) == "Polynomial('1 * t R')"
        assert repr(Polynomial.zero()) == "Polynomial('0')"

    def test_from_word_zero_coefficient(self):
        # a zero coefficient keeps no term, so from_word's one term can only cancel
        w = ("t", "R")
        assert Polynomial({w: 0}).is_zero()
        assert Polynomial({w: Fraction(0)}) == Polynomial.zero()
        assert (Polynomial.from_word(w) + Polynomial({w: Fraction(-1)})).terms == {}

    def test_from_word_keys_by_tuple(self):
        (w,) = Polynomial.from_word(["t", "R"]).terms
        assert type(w) is tuple and w == ("t", "R")

    def test_from_word_equals_constructor(self):
        w = ("t", "a0", "R")
        assert Polynomial.from_word(w) == Polynomial({w: 1})
        assert Polynomial.from_word(list(w)) == Polynomial({w: Fraction(1)})
        assert Polynomial({w: -2}) == Polynomial({w: Fraction(-2)})
        ((v, c),) = Polynomial.from_word(w).terms.items()
        assert (v, c) == (w, Fraction(1)) and type(c) is int

    def test_normal_form_is_fresh(self, p_nilp):
        w = parse_word("R a0 a1 R")  # already normal
        x = Polynomial.from_word(w)
        nf, steps = normalize(x, p_nilp)
        assert (nf, steps) == (x, 0) and nf is not x
        terms = nf.terms
        terms[("t",)] = Fraction(5)
        del terms[w]
        x.terms.clear()
        assert nf == Polynomial.from_word(w) and x == Polynomial.from_word(w)


class TestMatcher:
    def test_overlapping_patterns(self):
        pats = [("a0", "a1"), ("a1", "a0"), ("a0",)]
        word = ("a0", "a1", "a0")
        assert Matcher(pats).redexes(word) == naive_scan(pats, word)

    def test_empty_pattern_refused(self):
        with pytest.raises(ValueError, match="^empty pattern$"):
            Matcher([("a0",), ()])

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_naive_scan(self, data):
        alphabet = ["a0", "a1", "t"]
        pats = data.draw(st.lists(
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=4).map(tuple),
            min_size=1, max_size=6, unique=True))
        word = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=60)))
        m = Matcher(pats)
        assert m.redexes(word) == naive_scan(pats, word)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.sampled_from(["a0", "a1", "t"]), min_size=1, max_size=4).map(tuple),
                    min_size=1, max_size=6))
    def test_first_letters_and_inclusion_free(self, pats):
        m = Matcher(pats)
        assert set(m.first_letters()) == {pat[0] for pat in pats}
        # no pattern occurs inside another one, nor twice
        free = all(naive_scan(pats, pat) == [(0, pid)] for pid, pat in enumerate(pats))
        assert m.inclusion_free() == free

    @settings(max_examples=300)
    @given(st.data())
    def test_scan_from_first_letters(self, data):
        # and a word letter (Q0) that no pattern contains
        alphabet = ["a0", "a1", "t"]
        pats = draw_patterns(data, alphabet)
        word = data.draw(st.lists(st.sampled_from(alphabet + ["Q0"]), max_size=40))
        m = Matcher(pats)
        expected = naive_scan(pats, tuple(word))
        assert m.redexes(tuple(word)) == expected
        assert m.redexes(word) == expected  # a list works as well
        rest = [x for x in word if x not in m.first_letters()]
        assert m.redexes(rest) == m.redexes(tuple(rest)) == []

    @staticmethod
    def assert_tables_match_oracle(pats):
        m = Matcher(pats)
        goto, out, depth, horizon = matcher_tables(pats)
        assert [dict(g) for g in m._goto] == goto
        assert m._out == out
        assert m._depth == depth
        assert m._horizon == horizon

    @settings(max_examples=300)
    @given(st.data())
    def test_build_matches_oracle(self, data):
        self.assert_tables_match_oracle(draw_patterns(data, ["a0", "a1", "t"], min_size=0))

    def test_minsky_build_matches_oracle(self):
        spec = minsky_utm()
        for construction in (NILPOTENCY, ZERO_DIVISOR):
            self.assert_tables_match_oracle([r.lhs for r in make_presentation(spec, construction).rules])

    def test_minsky_long_configuration_words(self, p_nilp, p_zd):
        rng = random.Random(16)
        for p in (p_nilp, p_zd):
            pats = [r.lhs for r in p.rules]
            word = config_word(rng, p.construction)
            assert naive_scan_by_length(pats, word) == naive_scan(pats, word)
            for cells in (50, 200, 800):
                for _ in range(4):
                    word = config_word(rng, p.construction, cells=cells)
                    assert p.matcher.redexes(word) == naive_scan_by_length(pats, word), (cells, word)

    def test_minsky_lhs_set(self, p_nilp, p_zd):
        # configuration words with stray t/s letters walk the deep states of
        # the automaton, which uniform words rarely reach
        rng = random.Random(7)
        for p in (p_nilp, p_zd):
            letters = list(p.alphabet)
            pats = [r.lhs for r in p.rules]
            uniform = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 60))) for _ in range(50)]
            configs = [config_word(rng, p.construction) for _ in range(50)]
            longest = 0
            for word in uniform + configs:
                hits = p.matcher.redexes(word)
                assert hits == naive_scan(pats, word), word
                longest = max([longest] + [len(pats[rid]) for _, rid in hits])
            assert longest >= 4, p.construction


class TestReduceOnce:
    """Single rewrite steps: normalize with budget 1 stops after one."""

    def test_zero_rule(self, p_nilp):
        nf, steps = normalize(Polynomial.from_word(parse_word("R a0 Q4 P3 a1 R")), p_nilp, budget=1)
        assert nf.is_zero() and steps == 1

    def test_no_redex(self, p_nilp):
        w = parse_word("R a0 a1 R")
        assert normalize(Polynomial.from_word(w), p_nilp, budget=0) == (Polynomial.from_word(w), 0)
        assert RightmostOracle(p_nilp.rules).redex(w) is None

    def test_tt1(self, p_nilp):
        with pytest.raises(BudgetExhausted) as exc:
            normalize(Polynomial.from_word(parse_word("t R a1 Q2 P3 a0 R")), p_nilp, budget=1)
        assert exc.value.steps == 1
        assert exc.value.partial == parse_word("R t a1 Q2 P3 a0 R")

    def test_strict_descent(self, p_nilp):
        # every rewrite at every redex, not only the leftmost
        rng = random.Random(3)
        letters = list(p_nilp.alphabet)
        descents = 0
        for _ in range(200):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 20)))
            _, outs = one_step_rewrites(w, p_nilp.rules)
            for w2 in outs:
                assert p_nilp.order.greater(w, w2)
                descents += 1
        assert descents > 0


class TestNormalize:
    def test_main_word_chain(self, p_nilp):
        nf, steps = normalize(Polynomial.from_word(parse_word("t R a1 Q2 P3 a0 R")), p_nilp)
        assert nf == Polynomial.from_word(parse_word("R Q4 P1 a1 a0 R t"))
        assert steps == 4

    def test_zero_poly(self, p_nilp):
        nf, steps = normalize(Polynomial.zero(), p_nilp)
        assert nf.is_zero() and steps == 0

    def test_zd_chain(self, p_zd):
        nf, _ = normalize(Polynomial.from_word(parse_word("t L Q0 P2 a1 R")), p_zd)
        assert nf == Polynomial.from_word(parse_word("L a0 Q0 P1 R s"))

    def test_budget_exhausted(self, p_nilp):
        with pytest.raises(BudgetExhausted) as exc:
            normalize(Polynomial.from_word(parse_word("t t t R a1 Q2 P3 a0 R")), p_nilp, budget=2)
        assert exc.value.steps == 2
        assert exc.value.remaining_redexes >= 1

    def test_budget_must_not_be_negative(self, p_nilp):
        with pytest.raises(ValueError, match="budget"):
            normalize(Polynomial.from_word(("t",)), p_nilp, budget=-1)

    def test_leftmost_equals_rightmost(self, p_nilp, p_zd):
        rng = random.Random(11)
        for p in (p_nilp, p_zd):
            oracle = RightmostOracle(p.rules)
            letters = list(p.alphabet)
            for _ in range(60):
                w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 25)))
                left, _ = normalize(Polynomial.from_word(w), p)
                assert left == oracle.normal_form(w)


class TestRedexChoice:
    """normalize rewrites the leftmost redex, lowest rule id first: same steps as the oracle.

    Criterion 4 compares the two on both Minsky presentations.
    """

    def test_lhs_factor_of_another(self):
        # the redex Q0 ends first, but a0 Q0 P0 starts further left
        p = parse_presentation(
            "alphabet: t a0 Q0 P0 P1 R\norder: deglex\n"
            "rule: a0 Q0 P0 -> R\nrule: Q0 -> P1\n"
        )
        w = parse_word("a0 Q0 P0")
        assert normalize(Polynomial.from_word(w), p) == (Polynomial.from_word(("R",)), 1)
        assert LeftmostOracle(p.rules).normalize(w) == (Polynomial.from_word(("R",)), 1)

    @pytest.mark.parametrize("text, normal_form", [
        ("a0 a1 a2 a0", "a0 a3 a0"),
        ("a0 a1 a2 a0 a1 a2 a0", "a0 a3 a0 a3 a0"),
    ])
    def test_letters_read_past_the_redex_go_back(self, text, normal_form):
        # a1 a2 (rule 1) ends at position 2, but a0 a1 a2 may still grow into
        # rule 0, so the next a0 is read before rule 1 fires and then goes
        # back in front of its rhs
        rules = (Rule(("a0", "a1", "a2", "a3"), ("a3",)), Rule(("a1", "a2"), ("a3",)))
        p = Presentation(rules, ReductionOrder(DEGLEX, ("a0", "a1", "a2", "a3")))
        w = parse_word(text)
        oracle = LeftmostOracle(rules)
        nf, steps = normalize(Polynomial.from_word(w), p)
        assert (nf, steps) == oracle.normalize(w) == (Polynomial.from_word(parse_word(normal_form)), w.count("a1"))
        for k in range(steps):
            with pytest.raises(BudgetExhausted) as exc:
                normalize(Polynomial.from_word(w), p, budget=k)
            assert (Polynomial.from_word(exc.value.partial), exc.value.steps) == oracle.normalize(w, max_steps=k)
            assert exc.value.remaining_redexes == len(naive_scan([r.lhs for r in rules], exc.value.partial))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_shrinking_rules(self, data):
        # any rule set whose rhs are shorter than their lhs terminates; lhs may
        # overlap, repeat or be factors of each other
        alphabet = ("a0", "a1", "a2")
        word = st.lists(st.sampled_from(alphabet), min_size=1, max_size=4).map(tuple)
        lhss = data.draw(st.lists(word, min_size=1, max_size=6))
        rules = []
        for lhs in lhss:
            rhs = data.draw(st.one_of(
                st.none(), st.lists(st.sampled_from(alphabet), max_size=len(lhs) - 1).map(tuple)))
            rules.append(Rule(lhs, rhs))
        p = Presentation(tuple(rules), ReductionOrder(DEGLEX, alphabet))
        w = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=30)))
        oracle = LeftmostOracle(rules)
        nf, steps = normalize(Polynomial.from_word(w), p)
        assert (nf, steps) == oracle.normalize(w)
        if steps:
            k = data.draw(st.integers(0, steps - 1))
            with pytest.raises(BudgetExhausted) as exc:
                normalize(Polynomial.from_word(w), p, budget=k)
            partial = exc.value.partial
            assert exc.value.steps == k
            assert (Polynomial.from_word(partial), k) == oracle.normalize(w, max_steps=k)
            assert exc.value.remaining_redexes == len(naive_scan([r.lhs for r in rules], partial))



class TestRhsWalks:
    """After a rewrite the loop takes the rhs letters readable before a
    pattern ends from ``Presentation.walks`` and reads only the rest."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pattern_inside_an_rhs(self, data):
        # a rule whose rhs holds another lhs with letters after it, so a
        # pattern ends part-way through the rhs walk; every rhs is shorter
        # than its lhs, so the rule set terminates
        alphabet = ("a0", "a1", "a2", "a3")
        letters = st.sampled_from(alphabet)
        short = data.draw(st.lists(st.lists(letters, min_size=1, max_size=2).map(tuple), min_size=1, max_size=3))
        rules = [Rule(lhs, data.draw(st.one_of(st.none(), st.lists(letters, max_size=len(lhs) - 1).map(tuple))))
                 for lhs in short]
        inner = data.draw(st.sampled_from(short))
        before, after = (data.draw(st.lists(letters, min_size=k, max_size=1).map(tuple)) for k in (0, 1))
        rhs = before + inner + after
        lhs = data.draw(st.lists(letters, min_size=len(rhs) + 1, max_size=len(rhs) + 2).map(tuple))
        rules.insert(data.draw(st.integers(0, len(rules))), Rule(lhs, rhs))
        p = Presentation(tuple(rules), ReductionOrder(DEGLEX, alphabet))
        w = data.draw(st.lists(letters, max_size=4).map(tuple)) + lhs + data.draw(
            st.lists(letters, max_size=4).map(tuple))
        oracle = LeftmostOracle(rules)
        nf, steps = normalize(Polynomial.from_word(w), p)
        assert (nf, steps) == oracle.normalize(w)
        assume(any(rest for _, _, rest in p.walks.values()))
        for k in range(steps):
            with pytest.raises(BudgetExhausted) as exc:
                normalize(Polynomial.from_word(w), p, budget=k)
            partial = exc.value.partial
            assert (Polynomial.from_word(partial), exc.value.steps) == oracle.normalize(w, max_steps=k)
            assert exc.value.remaining_redexes == len(naive_scan([r.lhs for r in rules], partial))

    @pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
    def test_walks_are_the_automaton_read(self, construction):
        # each entry is rhs read from its state up to the first pattern end
        p = make_presentation(minsky_utm(), construction)
        rng = random.Random(7)
        for _ in range(100):
            normalize(Polynomial.from_word(config_word(rng, construction, cells=6)), p)
        goto, out = p.matcher._goto, p.matcher._out
        assert len(p.walks) > 50
        for (q, rid), (prefix, entered, rest) in p.walks.items():
            rhs = p.rules[rid].rhs
            assert prefix + rest[::-1] == rhs
            s, path = q, []
            for x in prefix:
                s = goto[s].get(x, 0)
                path.append(s)
            assert tuple(path) == entered and not any(out[s] for s in path)
            assert not rest or out[goto[s].get(rest[-1], 0)]

    def test_each_walk_computed_once_per_presentation(self, monkeypatch):
        calls = []
        walk = rewrite._rhs_walk

        def counting(matcher, q, rhs):
            calls.append(q)
            return walk(matcher, q, rhs)

        monkeypatch.setattr(rewrite, "_rhs_walk", counting)
        rng = random.Random(3)
        words = [("t",) * rng.randint(1, 2) + config_word(rng, NILPOTENCY, cells=4) for _ in range(60)]
        first = make_presentation(minsky_utm(), NILPOTENCY)
        forms = [normalize(Polynomial.from_word(w), first) for w in words]
        # one entry per (state, rule id) and one call per entry: none computed twice
        assert len(calls) == len(first.walks) > 10
        # the same words again read every walk from the table
        assert [normalize(Polynomial.from_word(w), first) for w in words] == forms
        assert len(calls) == len(first.walks)
        # another presentation of the same machine fills its own table
        second = make_presentation(minsky_utm(), NILPOTENCY)
        assert [normalize(Polynomial.from_word(w), second) for w in words] == forms
        assert len(calls) == 2 * len(first.walks) and second.walks == first.walks


COEFFS = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 6))
TAPE = st.lists(st.integers(0, 3), max_size=3).map(tuple)
CONFIGS = st.builds(TMConfig, TAPE, st.integers(0, 6), st.integers(0, 3), TAPE)  # Minsky: 7 states, 4 colors


@functools.cache
def uniform_words(alphabet):
    return st.lists(st.sampled_from(alphabet), max_size=12).map(tuple)


@functools.cache
def leftmost(p):
    return LeftmostOracle(p.rules)


def draw_word(data, p, min_t=0):
    """A uniform word over p's alphabet, or t^k times a configuration word."""
    if min_t == 0 and data.draw(st.booleans()):
        return data.draw(uniform_words(p.alphabet))
    return ("t",) * data.draw(st.integers(min_t, 2)) + encode_config(data.draw(CONFIGS), p.construction)


class TestPolynomialNormalize:
    """normalize of a sum of terms equals the sum of each term's normal form.

    The reference normalizes each term with LeftmostOracle and adds the
    results with Polynomial.__add__, so coefficients of terms that meet in
    one normal form, and their cancellation, go through an independent path.
    """

    def reference(self, terms, p):
        oracle = leftmost(p)
        total, steps = Polynomial.zero(), 0
        for w, c in terms.items():
            nf, n = oracle.normalize(w)
            steps += n
            for v, d in nf.terms.items():
                total = total + Polynomial({v: c * d})
        return total, steps

    def test_cancelling_pair(self, p_nilp):
        w = parse_word("t R a1 Q2 P3 a0 R")
        w2 = parse_word("R t a1 Q2 P3 a0 R")  # its one-step rewrite
        x = Polynomial({w: Fraction(2, 3), w2: Fraction(-2, 3)})
        assert normalize(x, p_nilp) == (Polynomial.zero(), 4 + 3)
        assert self.reference(x.terms, p_nilp) == (Polynomial.zero(), 7)
        y = Polynomial({w: 1, w2: 2})
        assert normalize(y, p_nilp) == (Polynomial({parse_word("R Q4 P1 a1 a0 R t"): 3}), 7)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_termwise_oracle(self, p_nilp, p_zd, data):
        p = data.draw(st.sampled_from((p_nilp, p_zd)))
        oracle = leftmost(p)
        size = data.draw(st.integers(1, 5))
        terms = {}
        for _ in range(size):
            if len(terms) == size:
                break
            w = draw_word(data, p)
            c = data.draw(COEFFS)
            terms[w] = c
            _, steps = oracle.normalize(w)
            if len(terms) < size and steps and data.draw(st.booleans()):
                # a word on w's derivation has w's normal form; its coefficient
                # cancels c there or not
                reached, _ = oracle.normalize(w, max_steps=data.draw(st.integers(1, steps)))
                for w2 in reached.terms:  # none if the derivation reached zero
                    terms[w2] = -c if data.draw(st.booleans()) else data.draw(COEFFS)
        assert normalize(Polynomial(terms), p) == self.reference(terms, p)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_budget_spans_terms(self, p_nilp, p_zd, data):
        p = data.draw(st.sampled_from((p_nilp, p_zd)))
        oracle = leftmost(p)
        w1 = draw_word(data, p)
        w2 = draw_word(data, p, min_t=1)
        assume(w1 != w2)
        _, s1 = oracle.normalize(w1)
        _, s2 = oracle.normalize(w2)
        k = data.draw(st.integers(0, s2 - 1))
        x = Polynomial({w1: data.draw(COEFFS), w2: data.draw(COEFFS)})
        with pytest.raises(BudgetExhausted) as exc:
            normalize(x, p, budget=s1 + k)
        assert exc.value.steps == s1 + k
        assert Polynomial.from_word(exc.value.partial) == oracle.normalize(w2, max_steps=k)[0]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_normalize_is_idempotent(p_nilp, p_zd, data):
    p = data.draw(st.sampled_from((p_nilp, p_zd)))
    nf = normalize(Polynomial.from_word(draw_word(data, p)), p)[0]
    assert normalize(nf, p) == (nf, 0)


class TestEqualInAlgebra:
    """x = y in the algebra exactly when their normal forms agree."""

    def nf(self, text, p):
        return normalize(Polynomial.from_word(parse_word(text)), p)[0]

    def test_wordend_lemma(self, p_nilp):
        # t U R = U R t for cell words U
        assert self.nf("t a1 a2 R", p_nilp) == self.nf("a1 a2 R t", p_nilp)

    def test_identity(self, p_nilp):
        assert self.nf("R a1 Q2 P3 R", p_nilp) == self.nf("R a1 Q2 P3 R", p_nilp)

    def test_distinct_normal_forms(self, p_nilp):
        assert self.nf("R a0 R", p_nilp) != self.nf("R a1 R", p_nilp)


class TestPowerNormalize:
    """Powers of a word normalize as the concatenated word."""

    def power(self, w, n, p):
        nf, _ = normalize(Polynomial.from_word(w * n), p)
        return nf

    def test_halt_word_is_zero(self, p_nilp):
        assert self.power(parse_word("R a0 Q4 P3 R"), 1, p_nilp).is_zero()

    def test_cells_unreduced(self, p_nilp):
        assert self.power(("a0",), 3, p_nilp) == Polynomial.from_word(("a0", "a0", "a0"))

    def test_one_step_from_halt(self, p_nilp):
        # (2,3) -> (L,4,1) creates Q4 P3
        assert self.power(parse_word("t R a3 Q2 P3 R"), 1, p_nilp).is_zero()


def test_synthetic_presentation_descent_required():
    order = ReductionOrder(DEGLEX, ("a0", "a1"))
    with pytest.raises(ValueError, match="^rule lhs must be nonempty$"):
        Presentation((Rule((), ("a0",)),), order)
    p = Presentation((Rule(("a0", "a1"), ("a1", "a0")),), order)
    nf, _ = normalize(Polynomial.from_word(("a0", "a1", "a1")), p)
    assert nf == Polynomial.from_word(("a1", "a1", "a0"))


class TestRule:
    def test_immutable(self):
        rule = Rule(("t", "a0"), ("a0", "t"), "x")
        for field, value in (("lhs", ("t",)), ("rhs", None), ("tag", "y")):
            with pytest.raises(AttributeError):
                setattr(rule, field, value)
        assert rule == Rule(("t", "a0"), ("a0", "t"), "x")

    def test_equal_fields_compare_equal(self):
        assert Rule(("t", "a0"), None) == Rule(("t", "a0"), None, "")
        assert hash(Rule(("t",), ("a0",), "x")) == hash(Rule(("t",), ("a0",), "x"))
        assert Rule(("t",), ("a0",), "x") != Rule(("t",), ("a0",), "y")
        assert Rule(("t",), None) != Rule(("t",), ())

    def test_fields(self):
        rule = Rule(lhs=("t",), rhs=None)
        assert (rule.lhs, rule.rhs, rule.tag) == (("t",), None, "")


class TestPresentationLhs:
    """A rule is a plain record; the presentation that holds it refuses an
    empty lhs, however the rule was built."""

    ORDER = ReductionOrder(DEGLEX, ("t", "a0"))

    def refused(self, *rules):
        with pytest.raises(ValueError, match="^rule lhs must be nonempty$") as exc:
            Presentation(rules, self.ORDER)
        assert type(exc.value) is ValueError

    def test_empty_lhs(self):
        self.refused(Rule((), ("a0",)))
        self.refused(Rule(lhs=(), rhs=None, tag="x"))
        self.refused(Rule(("t",), None), Rule(("a0", "t"), ("t", "a0")), Rule((), ()))

    def test_make_and_replace_checked(self):
        made, replaced = Rule._make(((), None, "")), Rule(("t",), None)._replace(lhs=())
        assert type(made) is type(replaced) is Rule and made == replaced == Rule((), None)
        self.refused(made)
        self.refused(Rule(("a0",), None), replaced)
        rule = Rule(("t",), None)._replace(tag="x")
        assert type(rule) is Rule and rule == Rule(("t",), None, "x")
        assert Rule._make([("t",), ("a0",), ""]) == Rule(("t",), ("a0",))
        with pytest.raises(TypeError):  # a plain named tuple's _make takes every field
            Rule._make([("t",), ("a0",)])

    def test_reported_before_a_letter_outside_the_alphabet(self):
        self.refused(Rule(("t", "Q1"), None), Rule((), ("s",)))
        self.refused(Rule((), ("R",)))


class TestPresentationLetters:
    def test_rhs_letter_outside_alphabet(self):
        letters = ("t", "a0")
        with pytest.raises(AlphabetError, match=r"^letter 'R' outside alphabet in rule 0: t a0 -> R$"):
            Presentation((Rule(("t", "a0"), ("R",)),), ReductionOrder(DEGLEX, letters))

    def test_first_bad_letter_named(self):
        letters = ("t", "a0")
        rules = (Rule(("t",), None), Rule(("a0", "t"), ("t", "a0")), Rule(("a0", "Q1"), ("s",)), Rule(("s",), None))
        with pytest.raises(AlphabetError, match=r"^letter 'Q1' outside alphabet in rule 2: a0 Q1 -> s$"):
            Presentation(rules, ReductionOrder(DEGLEX, letters))
        with pytest.raises(AlphabetError, match=r"^letter 's' outside alphabet in rule 0: s -> 0$"):
            Presentation(rules[3:], ReductionOrder(DEGLEX, letters))

    def test_letters_inside_alphabet(self):
        letters = ("t", "a0")
        p = Presentation((Rule(("t", "a0"), ("a0", "t")), Rule(("a0", "a0"), None)),
                         ReductionOrder(DEGLEX, letters))
        assert normalize(Polynomial.from_word(("t", "a0")), p)[0] == Polynomial.from_word(("a0", "t"))


class TestPresentationConstruction:
    """The order names the construction; a presentation has no field that could contradict it."""

    RULES = (Rule(("t", "a0"), ("a0", "t")),)

    @pytest.mark.parametrize("order,construction", [
        (nilpotency_order(), NILPOTENCY),
        (zerodivisor_order(), ZERO_DIVISOR),
        (ReductionOrder(DEGLEX, ("t", "a0")), "custom"),
        (ReductionOrder(NILPOTENCY, ("a0", "t")), NILPOTENCY),
    ])
    def test_read_off_the_order(self, order, construction):
        assert Presentation(self.RULES, order).construction == construction

    def test_not_settable(self):
        assert [f.name for f in dataclasses.fields(Presentation)] == ["rules", "order"]
        with pytest.raises(TypeError):
            Presentation(self.RULES, nilpotency_order(), "custom")
        p = Presentation(self.RULES, nilpotency_order())
        with pytest.raises(AttributeError):
            p.construction = "custom"


class TestPresentationFrozen:
    """A presentation's automaton and tables are built from its rules and
    order once, so neither field can be reassigned after it is built."""

    def test_fields_not_assignable(self, p_nilp):
        p = Presentation(p_nilp.rules, p_nilp.order)
        assert p.matcher is p.matcher and p.sweeps is p.sweeps  # built once, kept
        for field, value in (("rules", p.rules[:3]), ("order", ReductionOrder(DEGLEX, ("t",)))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field, value)
        assert (p.rules, p.order) == (p_nilp.rules, p_nilp.order)
        w = parse_word("t R Q2 P0 R")
        assert normalize(Polynomial.from_word(w), p) == normalize(Polynomial.from_word(w), p_nilp)
