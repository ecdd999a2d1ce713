import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrewrite import (
    AlphabetError,
    Presentation,
    Rule,
    audit_order,
    audit_orientation,
    find_ambiguities,
    nilpotency_order,
    zerodivisor_order,
)
from ncrewrite.encodings import nilpotency_presentation, zerodivisor_presentation
from ncrewrite.groebner import INCLUSION, OVERLAP, Ambiguity, OrderAuditReport
from ncrewrite.orders import DEGLEX, ReductionOrder
from oracles import resolve_ambiguity


def as_tuple(a):
    return (a.kind, a.rule1, a.rule2, a.witness, a.offset2)


def as_set(ambiguities):
    return set(map(as_tuple, ambiguities))


def naive_ambiguity_scan(p):
    """Quadratic pairwise scan; test oracle for find_ambiguities."""
    lhss = [r.lhs for r in p.rules]
    out = []
    for r1, lhs1 in enumerate(lhss):
        for r2, lhs2 in enumerate(lhss):
            for k in range(1, len(lhs1)):
                suffix = lhs1[k:]
                if len(suffix) < len(lhs2) and lhs2[:len(suffix)] == suffix:
                    out.append(Ambiguity(OVERLAP, r1, r2, lhs1 + lhs2[len(suffix):], k))
            for i in range(len(lhs1) - len(lhs2) + 1):
                if lhs1[i:i + len(lhs2)] == lhs2:
                    if r1 == r2 and len(lhs1) == len(lhs2):
                        continue
                    out.append(Ambiguity(INCLUSION, r1, r2, lhs1, i))
    return out


def synthetic(rules):
    order = ReductionOrder(DEGLEX, ("a0", "a1", "a2", "a3"))
    return Presentation(tuple(rules), order)


lhs_words = st.lists(st.sampled_from(("a0", "a1", "a2")), min_size=1, max_size=5).map(tuple)


@st.composite
def lhs_lists(draw):
    """Short lhs words over three letters, so they often overlap, plus factors
    (prefixes among them) and repeats of the words drawn."""
    words = draw(st.lists(lhs_words, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.sampled_from(words))
        i = draw(st.integers(0, len(w) - 1))
        j = draw(st.integers(i + 1, len(w)))
        words.insert(draw(st.integers(0, len(words))), w[i:j])
    return words


@st.composite
def headed_lhs_lists(draw):
    """Lhs words that each start with a head letter and go on in tail letters
    only, so no proper suffix of an lhs begins with a letter that begins one.
    The head letters vary with the draw."""
    heads = draw(st.sampled_from((("a0",), ("a0", "a1"), ("a3",))))
    tails = [x for x in ("a0", "a1", "a2", "a3") if x not in heads]
    word = st.builds(lambda head, tail: (head, *tail), st.sampled_from(heads),
                     st.lists(st.sampled_from(tails), max_size=4))
    return draw(st.lists(word, min_size=1, max_size=6))


def documented_order(ambiguities, p):
    """Overlaps by (rule1, offset, rule2), then inclusions by
    (rule1, position, length of lhs(rule2), rule2)."""
    overlaps = [a for a in ambiguities if a.kind == OVERLAP]
    inclusions = [a for a in ambiguities if a.kind == INCLUSION]
    return (sorted(overlaps, key=lambda a: (a.rule1, a.offset2, a.rule2))
            + sorted(inclusions, key=lambda a: (a.rule1, a.offset2, len(p.rules[a.rule2].lhs), a.rule2)))


def suffix_starts_an_lhs(lhss):
    starts = {w[0] for w in lhss}
    return any(x in starts for w in lhss for x in w[1:])


class TestFindAmbiguities:
    def test_paper_presentations_clean(self, p_nilp, p_zd):
        assert find_ambiguities(p_nilp) == []
        assert find_ambiguities(p_zd) == []

    def test_two_rule_overlap(self):
        p = synthetic([Rule(("a0", "a1"), ("a2",)), Rule(("a1", "a0"), ("a3",))])
        found = find_ambiguities(p)
        overlaps = [a for a in found if a.kind == OVERLAP]
        assert len(overlaps) == 2
        assert {a.witness for a in overlaps} == {("a0", "a1", "a0"), ("a1", "a0", "a1")}

    def test_two_letter_word_no_self_overlap(self):
        p = synthetic([Rule(("a0", "a1"), None)])
        assert find_ambiguities(p) == []

    def test_self_overlap(self):
        p = synthetic([Rule(("a0", "a1", "a0"), ("a2",))])
        found = find_ambiguities(p)
        assert len(found) == 1
        assert found[0].kind == OVERLAP and found[0].witness == ("a0", "a1", "a0", "a1", "a0")

    def test_inclusion(self):
        p = synthetic([Rule(("a0", "a1", "a2"), ("a3",)), Rule(("a1",), ("a3",))])
        found = [a for a in find_ambiguities(p) if a.kind == INCLUSION]
        assert len(found) == 1
        assert found[0].rule1 == 0 and found[0].rule2 == 1 and found[0].offset2 == 1

    def test_agrees_with_naive_scan(self, tiny_halt):
        for p in (nilpotency_presentation(tiny_halt), zerodivisor_presentation(tiny_halt)):
            assert as_set(find_ambiguities(p)) == as_set(naive_ambiguity_scan(p))

    def test_agrees_with_naive_scan_synthetic(self):
        p = synthetic([
            Rule(("a0", "a1"), ("a2",)),
            Rule(("a1", "a0", "a1"), ("a3",)),
            Rule(("a0",), None),
            Rule(("a1", "a0"), ("a2", "a2")),
        ])
        assert as_set(find_ambiguities(p)) == as_set(naive_ambiguity_scan(p))

    @settings(max_examples=300, deadline=None)
    @given(lhs_lists())
    def test_agrees_with_naive_scan_as_multisets(self, lhss):
        p = synthetic([Rule(w, None) for w in lhss])
        assert sorted(map(as_tuple, find_ambiguities(p))) == sorted(map(as_tuple, naive_ambiguity_scan(p)))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(lhs_lists(), headed_lhs_lists()))
    def test_exact_list_in_documented_order(self, lhss):
        # lhs_lists nearly always has a suffix starting an lhs, headed ones never
        p = synthetic([Rule(w, None) for w in lhss])
        assert find_ambiguities(p) == documented_order(naive_ambiguity_scan(p), p)

    @settings(max_examples=100, deadline=None)
    @given(headed_lhs_lists())
    def test_no_suffix_starts_an_lhs(self, lhss):
        assert not suffix_starts_an_lhs(lhss)
        p = synthetic([Rule(w, None) for w in lhss])
        found = find_ambiguities(p)
        assert all(a.kind == INCLUSION for a in found)
        assert found == documented_order(naive_ambiguity_scan(p), p)

    @pytest.mark.parametrize("lhss", [
        [("a0", "a1"), ("a2", "a3")],  # none
        [("a0", "a1"), ("a0", "a1")],  # equal lhs words
        [("a0", "a1", "a2"), ("a0", "a1")],  # a proper prefix
        [("a0", "a1", "a2"), ("a1", "a2")],  # a proper suffix
        [("a3", "a0", "a1", "a2"), ("a0", "a1")],  # strictly inside
        [("a0",), ("a1", "a2")],  # single letters are leaves too
    ])
    def test_inclusions_found_or_ruled_out(self, lhss):
        p = synthetic([Rule(w, None) for w in lhss])
        assert find_ambiguities(p) == documented_order(naive_ambiguity_scan(p), p)

    @pytest.mark.parametrize("machine", ["tiny_halt", "tiny_loop"])
    def test_tiny_machines_exact_order(self, machine, request):
        spec = request.getfixturevalue(machine)
        for p in (nilpotency_presentation(spec), zerodivisor_presentation(spec)):
            found = find_ambiguities(p)
            assert found == documented_order(naive_ambiguity_scan(p), p)


class TestResolveAmbiguity:
    def test_unresolvable(self):
        p = synthetic([Rule(("a0", "a1"), ("a2",)), Rule(("a1", "a0"), ("a3",))])
        found = find_ambiguities(p)
        assert all(not resolve_ambiguity(a, p) for a in found)

    def test_resolvable(self):
        # both reductions of the witness kill the term
        p = synthetic([Rule(("a0", "a1"), None), Rule(("a1", "a0"), None)])
        found = find_ambiguities(p)
        assert found and all(resolve_ambiguity(a, p) for a in found)


class TestAuditOrder:
    def test_nilp_subalphabet(self):
        report = audit_order(nilpotency_order(), ("t", "a0", "R"), 3)
        assert report.ok
        assert report.checks > 0

    def test_zd_subalphabet(self):
        report = audit_order(zerodivisor_order(), ("t", "s", "L", "R"), 3)
        assert report.ok

    def test_broken_order_reported(self):
        # reversed-degree "order": longer words smaller; not monotone and
        # not total on same-length distinct words
        class Bogus:
            def sort_key(self, w):
                return (-len(w),)

        report = audit_order(Bogus(), ("a0", "a1"), 2)
        assert not report.ok
        kinds = {v[0] for v in report.violations}
        assert "minimality" in kinds
        assert "totality" in kinds

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="max_len"):
            audit_order(nilpotency_order(), ("t", "a0", "R"), -1)

    @pytest.mark.parametrize("max_len", [0, 1, 2])
    def test_letter_outside_the_order_refused(self, max_len):
        # at length 0 the only word is empty, but x * eps is keyed for each letter x
        with pytest.raises(AlphabetError, match="^letter 'zz' outside alphabet$"):
            audit_order(nilpotency_order(), ("zz",), max_len)


def all_pairs_audit(order, alphabet, max_len):
    """All-pairs order audit; test oracle for audit_order."""
    report = OrderAuditReport(alphabet=tuple(alphabet), max_len=max_len)
    words = [()]
    for n in range(1, max_len + 1):
        words.extend(itertools.product(alphabet, repeat=n))

    keys = {w: order.sort_key(w) for w in words}
    key_cache = dict(keys)

    def key_of(w):
        k = key_cache.get(w)
        if k is None:
            k = order.sort_key(w)
            key_cache[w] = k
        return k

    empty_key = keys[()]
    for w in words:
        if w:
            report.checks += 1
            if not empty_key < keys[w]:
                report.violations.append(("minimality", w))

    ranked = sorted(words, key=keys.__getitem__)
    for a, b in zip(ranked, ranked[1:]):
        report.checks += 1
        if keys[a] == keys[b]:
            report.violations.append(("totality", a, b))

    for i, s1 in enumerate(ranked):
        for s2 in ranked[i + 1:]:
            for x in alphabet:
                report.checks += 2
                if not key_of((x,) + s1) < key_of((x,) + s2):
                    report.violations.append(("left", x, s1, s2))
                if not key_of(s1 + (x,)) < key_of(s2 + (x,)):
                    report.violations.append(("right", x, s1, s2))
    return report


class KeyOrder:
    """A candidate order given only by a key function."""

    def __init__(self, key):
        self.sort_key = key


class RandomRanks:
    """Every word gets a random rank: total, but neither monotone nor minimal."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.ranks = {}

    def sort_key(self, w):
        if w not in self.ranks:
            self.ranks[w] = (self.rng.random(),)
        return self.ranks[w]


MINSKY_CASES = [
    pytest.param(nilpotency_order(), ("t", "a0", "R"), n, id=f"nilpotency-len{n}") for n in range(4)
] + [
    pytest.param(zerodivisor_order(), ("t", "s", "a0", "L", "R"), n, id=f"zerodivisor-len{n}") for n in range(4)
]
BAD_CASES = [
    # parity of a1 flips under multiplication by a1: left and right violations
    pytest.param(KeyOrder(lambda w: (len(w), w.count("a1") % 2, w)), ("a0", "a1", "a2"), 3,
                 id="parity-not-monotone"),
    # commutative key: permutations tie, so totality and both sides fail
    pytest.param(KeyOrder(lambda w: (len(w), tuple(sorted(w)))), ("a0", "a1", "a2"), 3, id="sorted-ties"),
    pytest.param(KeyOrder(lambda w: (-len(w),)), ("a0", "a1"), 2, id="reversed-degree"),
    pytest.param(RandomRanks(7), ("a0", "a1", "a2"), 3, id="random-ranks"),
    pytest.param(ReductionOrder(DEGLEX, ("a0", "a1")), ("a0", "a1", "a0"), 2, id="repeated-letter"),
]




class TestAuditOrderOracle:
    @pytest.mark.parametrize("order,alphabet,max_len", MINSKY_CASES + BAD_CASES)
    def test_matches_all_pairs(self, order, alphabet, max_len):
        fast = audit_order(order, alphabet, max_len)
        slow = all_pairs_audit(order, alphabet, max_len)
        assert fast.checks == slow.checks
        assert fast.violations == slow.violations

    def test_bad_orders_have_violations_of_every_side(self):
        kinds = {
            v[0]
            for case in BAD_CASES
            for v in audit_order(*case.values).violations
        }
        assert kinds == {"minimality", "totality", "left", "right"}


class TestAuditOrientation:
    def test_paper_presentations(self, p_nilp, p_zd):
        assert audit_orientation(p_nilp) == []
        assert audit_orientation(p_zd) == []

    def test_misoriented_rule(self):
        p = synthetic([Rule(("a0",), ("a0", "a1"))])
        assert audit_orientation(p) == [0]

    def test_zero_rules_always_oriented(self):
        p = synthetic([Rule(("a0",), None)])
        assert audit_orientation(p) == []
