import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncrewrite import (
    AlphabetError,
    nilpotency_order,
    parse_presentation,
    parse_word,
    zerodivisor_order,
)
from ncrewrite.orders import DEGLEX, NILPOTENCY, ZERO_DIVISOR, ReductionOrder
from ncrewrite.words import phi_alphabet, psi_alphabet
from oracles import deg_t

key_nilp = nilpotency_order().sort_key
key_zd = zerodivisor_order().sort_key


def height(w):
    """The height component of the nilpotency key."""
    return key_nilp(w)[1]


def weighted_degree(w):
    """The weighted-degree component of the zero-divisor key."""
    return key_zd(w)[0]


def sign(order, w1, w2):
    """-1, 0 or 1 as w1 precedes, equals or follows w2 in the order."""
    k1, k2 = order.sort_key(w1), order.sort_key(w2)
    return (k1 > k2) - (k1 < k2)


def brute_height(w):
    # independent oracle: split on t, then sum 2^i * block length
    blocks = "|".join(w).split("t")
    blocks = [[x for x in b.split("|") if x] for b in blocks]
    return sum(2**i * len(b) for i, b in enumerate(blocks))


class TestHeight:
    @pytest.mark.parametrize("text,expected", [
        ("t t", 0),
        ("R a0", 2),
        ("t R a0", 4),
        ("eps", 0),
        ("t", 0),
    ])
    def test_examples(self, text, expected):
        assert height(parse_word(text)) == expected

    def test_rejects_psi_letters(self):
        # the nilpotency alphabet has no s or L, so the key refuses them as outside it
        for letter in ("s", "L"):
            with pytest.raises(AlphabetError, match=f"^letter '{letter}' outside alphabet$"):
                height(("t", letter))

    @given(st.lists(st.sampled_from(["t", "a0", "a1", "Q2", "P3", "R"]), max_size=10))
    def test_matches_brute_force(self, letters):
        w = tuple(letters)
        assert height(w) == brute_height(w)

    @given(st.lists(st.sampled_from(["t", "a0", "Q1", "R"]), max_size=8))
    def test_t_multiplication_laws(self, letters):
        w = tuple(letters)
        assert height(("t",) + w) == 2 * height(w)
        assert height(w + ("t",)) == height(w)


class TestWeightedDegree:
    def test_paper_example(self):
        assert weighted_degree(parse_word("t R L")) == 4

    def test_empty(self):
        assert weighted_degree(()) == 0

    def test_mixed(self):
        assert weighted_degree(parse_word("t a0 Q1 P2")) == 5


class TestCompareNilp:
    def test_height_tiebreak(self):
        assert key_nilp(parse_word("t R a1")) > key_nilp(parse_word("R t a1"))

    def test_reflexive(self):
        w = parse_word("t R a1 Q2 P3 R")
        assert key_nilp(w) == key_nilp(parse_word("t R a1 Q2 P3 R"))
        assert not nilpotency_order().greater(w, w)

    def test_deg_t_dominates_length(self):
        assert key_nilp(parse_word("t")) > key_nilp(parse_word("R R R R R"))

    def test_rejects_s(self):
        with pytest.raises(AlphabetError):
            key_nilp(("s",))


class TestCompareZd:
    def test_lex_tiebreak(self):
        assert key_zd(parse_word("t L a2")) > key_zd(parse_word("L t a2"))

    def test_reflexive(self):
        w = parse_word("t L Q0 P2 R s")
        assert key_zd(w) == key_zd(parse_word("t L Q0 P2 R s"))
        assert not zerodivisor_order().greater(w, w)

    def test_weight_dominates(self):
        # td3 lhs vs rhs: weights 5 vs 4
        assert key_zd(parse_word("t a0 Q0 P0")) > key_zd(parse_word("Q0 P0 a0 s"))


@pytest.mark.parametrize("order,letters", [
    (nilpotency_order(), ("t", "a0", "R")),
    (zerodivisor_order(), ("t", "s", "L")),
])
def test_totality_and_minimality_small(order, letters):
    words = [()]
    for n in (1, 2, 3):
        words.extend(itertools.product(letters, repeat=n))
    for w1 in words:
        for w2 in words:
            c = sign(order, w1, w2)
            assert (c == 0) == (w1 == w2)
            assert sign(order, w2, w1) == -c
            assert order.greater(w1, w2) == (c == 1)
    for w in words:
        if w:
            assert sign(order, (), w) == -1


@given(
    st.lists(st.sampled_from(["t", "s", "a0", "a1", "L", "R"]), max_size=7),
    st.lists(st.sampled_from(["t", "s", "a0", "a1", "L", "R"]), max_size=7),
    st.sampled_from(["t", "s", "a0", "a1", "L", "R"]),
)
def test_zd_compatibility_random(l1, l2, x):
    order = zerodivisor_order()
    w1, w2 = tuple(l1), tuple(l2)
    c = sign(order, w1, w2)
    assert sign(order, (x,) + w1, (x,) + w2) == c
    assert sign(order, w1 + (x,), w2 + (x,)) == c


@given(
    st.lists(st.sampled_from(["t", "a0", "a1", "Q0", "R"]), max_size=7),
    st.lists(st.sampled_from(["t", "a0", "a1", "Q0", "R"]), max_size=7),
    st.sampled_from(["t", "a0", "a1", "Q0", "R"]),
)
def test_nilp_compatibility_random(l1, l2, x):
    order = nilpotency_order()
    w1, w2 = tuple(l1), tuple(l2)
    c = sign(order, w1, w2)
    assert sign(order, (x,) + w1, (x,) + w2) == c
    assert sign(order, w1 + (x,), w2 + (x,)) == c


def reference_key(order, w):
    """The sort key composed from its measures, each computed on its own."""
    lex = tuple(-order.precedence.index(x) for x in w)
    if order.kind == NILPOTENCY:
        return (deg_t(w), brute_height(w), len(w), lex)
    if order.kind == ZERO_DIVISOR:
        return (len(w) + deg_t(w), lex)
    return (len(w), lex)


ORDERS_AND_LETTERS = [
    (nilpotency_order(), phi_alphabet()),
    (zerodivisor_order(), psi_alphabet()),
    (ReductionOrder(DEGLEX, psi_alphabet()), psi_alphabet()),
    (ReductionOrder(DEGLEX, ("R", "a1", "t", "Q0")), ("R", "a1", "t", "Q0")),
    (ReductionOrder(NILPOTENCY, ("R", "a1", "t", "Q0")), ("R", "a1", "t", "Q0")),
]


class TestSortKey:
    @given(st.data())
    def test_equals_composed_reference(self, data):
        order, letters = data.draw(st.sampled_from(ORDERS_AND_LETTERS))
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=12)))
        assert order.sort_key(w) == reference_key(order, w)

    @pytest.mark.parametrize("order,w,message", [
        (nilpotency_order(), ("t", "a9"), "letter 'a9' outside alphabet"),
        (nilpotency_order(), ("s",), "letter 's' outside alphabet"),
        (zerodivisor_order(), ("R", "x1", "t"), "letter 'x1' outside alphabet"),
        (ReductionOrder(DEGLEX, ("a0", "a1")), ("a0", "t"), "letter 't' outside alphabet"),
    ])
    def test_error_messages(self, order, w, message):
        with pytest.raises(AlphabetError) as exc:
            order.sort_key(w)
        assert str(exc.value) == message

    @given(st.lists(st.sampled_from(["t", "a0", "a3", "Q6", "P1", "R"]), max_size=10))
    def test_nilp_key_matches_public_measures(self, letters):
        w = tuple(letters)
        assert key_nilp(w)[:3] == (deg_t(w), brute_height(w), len(w))

    @given(st.lists(st.sampled_from(["t", "s", "a2", "Q0", "P3", "L", "R"]), max_size=10))
    def test_zd_key_matches_weighted_degree(self, letters):
        w = tuple(letters)
        assert key_zd(w)[0] == len(w) + w.count("t")

    def test_nilp_key_rejects_psi_letters_in_precedence(self):
        # refused when the order is built, so sort_key never meets s or L
        for precedence, letter in ((psi_alphabet(), "s"), (phi_alphabet()[:-1] + ("L", "R"), "L"),
                                   (("t", "a0", "R", "s"), "s")):
            with pytest.raises(AlphabetError) as exc:
                ReductionOrder(NILPOTENCY, precedence)
            assert str(exc.value) == f"letter {letter!r} not allowed in a nilpotency order"
            for kind in (ZERO_DIVISOR, DEGLEX):  # the other kinds take them
                assert ReductionOrder(kind, precedence).precedence == precedence

    def test_precedence_letters_validated(self):
        for kind in (NILPOTENCY, ZERO_DIVISOR, DEGLEX):
            for precedence in (("a0", "x1"), ("t", "a01")):
                with pytest.raises(AlphabetError, match="not a letter"):
                    ReductionOrder(kind, precedence)

    def test_precedence_repeating_a_letter_rejected(self):
        # the rank of t would be ambiguous: first place, or last
        with pytest.raises(ValueError, match="repeats a letter"):
            ReductionOrder(DEGLEX, ("t", "a0", "t"))
        with pytest.raises(ValueError, match="repeats a letter"):
            parse_presentation("alphabet: t a0 t\norder: deglex\nrule: t -> a0\n")
