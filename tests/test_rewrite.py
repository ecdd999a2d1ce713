import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrewrite import (
    BudgetExhausted,
    Matcher,
    Polynomial,
    Presentation,
    Rule,
    concat,
    equal_in_algebra,
    format_polynomial,
    normalize,
    parse_polynomial,
    parse_presentation,
    parse_word,
)
from ncrewrite.orders import DEGLEX, ReductionOrder
from oracles import LeftmostOracle, RightmostOracle, one_step_rewrites


def naive_scan(patterns, word):
    hits = []
    for pid, pat in enumerate(patterns):
        for pos in range(len(word) - len(pat) + 1):
            if word[pos:pos + len(pat)] == pat:
                hits.append((pos, pid))
    return sorted(hits)


class TestPolynomial:
    def test_zero(self):
        assert Polynomial.zero().is_zero()
        assert (Polynomial.from_word(("t",)) - Polynomial.from_word(("t",))).is_zero()

    def test_concat_distributes(self):
        x = Polynomial.from_word(("a0",)) + Polynomial.from_word(("a1",))
        y = Polynomial.from_word(("R",))
        assert concat(x, y) == Polynomial.from_word(("a0", "R")) + Polynomial.from_word(("a1", "R"))

    def test_concat_zero(self):
        assert concat(Polynomial.zero(), Polynomial.from_word(("t",))).is_zero()
        assert concat(Polynomial.from_word(("t",)), Polynomial.from_word(("R",))) == \
            Polynomial.from_word(("t", "R"))

    def test_format_parse_roundtrip(self):
        x = Polynomial.from_word(("t", "R"), Fraction(1, 2)) + Polynomial.from_word(("a0",), -3)
        assert parse_polynomial(format_polynomial(x)) == x
        assert format_polynomial(parse_polynomial(format_polynomial(x))) is format_polynomial(x)
        assert parse_polynomial("0").is_zero()
        assert format_polynomial(Polynomial.zero()) == "0"


class TestMatcher:
    def test_overlapping_patterns(self):
        m = Matcher([("a0", "a1"), ("a1", "a0"), ("a0",)])
        word = ("a0", "a1", "a0")
        assert m.redexes(word) == naive_scan(m.patterns, word)

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

    def test_minsky_lhs_set(self, p_nilp):
        rng = random.Random(7)
        letters = list(p_nilp.alphabet)
        pats = [r.lhs for r in p_nilp.rules]
        for _ in range(50):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 60)))
            assert p_nilp.matcher.redexes(word) == naive_scan(pats, word)


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
        assert exc.value.partial == Polynomial.from_word(parse_word("R t a1 Q2 P3 a0 R"))

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
        p = Presentation(alphabet, tuple(rules), ReductionOrder(DEGLEX, alphabet))
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
            assert (partial, k) == oracle.normalize(w, max_steps=k)
            (pw,) = partial.terms
            assert exc.value.remaining_redexes == len(naive_scan([r.lhs for r in rules], pw))


class TestEqualInAlgebra:
    def test_wordend_lemma(self, p_nilp):
        # t U R = U R t for cell words U
        x = Polynomial.from_word(parse_word("t a1 a2 R"))
        y = Polynomial.from_word(parse_word("a1 a2 R t"))
        assert equal_in_algebra(x, y, p_nilp)

    def test_identity(self, p_nilp):
        w = Polynomial.from_word(parse_word("R a1 Q2 P3 R"))
        assert equal_in_algebra(w, w, p_nilp)

    def test_distinct_normal_forms(self, p_nilp):
        x = Polynomial.from_word(parse_word("R a0 R"))
        y = Polynomial.from_word(parse_word("R a1 R"))
        assert not equal_in_algebra(x, y, p_nilp)


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
    with pytest.raises(ValueError):
        Rule((), ("a0",))
    p = Presentation(("a0", "a1"), (Rule(("a0", "a1"), ("a1", "a0")),), order)
    nf, _ = normalize(Polynomial.from_word(("a0", "a1", "a1")), p)
    assert nf == Polynomial.from_word(("a1", "a1", "a0"))
