import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncrewrite import (
    AlphabetError,
    Presentation,
    Rule,
    TMConfig,
    encode_config,
    format_presentation,
    make_presentation,
    parse_presentation,
    parse_word,
    phi_alphabet,
    psi_alphabet,
    word_to_str,
)
from ncrewrite.orders import DEGLEX, ReductionOrder
from ncrewrite.words import cell, check_alphabet, color_mark, letter_kind, state_mark


def test_parse_roundtrip():
    w = parse_word("t R a1 Q2 P3 a0 R")
    assert w == ("t", "R", "a1", "Q2", "P3", "a0", "R")
    assert word_to_str(w) == "t R a1 Q2 P3 a0 R"


def test_eps():
    assert parse_word("eps") == ()
    assert parse_word("") == ()
    assert word_to_str(()) == "eps"


# an index is ASCII digits with no leading zero: "a01", "Q00" and the
# Arabic-Indic "a\u0661" would otherwise read as a1, Q0 and a1 by int()
@pytest.mark.parametrize("bad", ["x", "a", "Q", "a1b", "t1", "a01", "Q00", "P007", "a\u0661", "a\u0660"])
def test_parse_rejects_junk(bad):
    with pytest.raises(AlphabetError):
        parse_word(bad)


def test_parsed_rule_letters_are_the_alphabets(minsky):
    # a parsed rule hands out the alphabet's own string for each letter
    for construction in ("nilpotency", "zerodivisor"):
        q = parse_presentation(format_presentation(make_presentation(minsky, construction)))
        own = {x: x for x in q.alphabet}
        for rule in q.rules:
            for x in rule.lhs + (rule.rhs or ()):
                assert x is own[x], (rule, x)


def test_letter_kind():
    assert letter_kind("a2") == "cell"
    assert letter_kind("Q6") == "state"
    assert letter_kind("P0") == "color"
    assert letter_kind("t") == "t"
    assert letter_kind("a10") == "cell"
    for bad in ("Q", "a01", "Q00", "P\u0663", "a1\u0660"):
        with pytest.raises(AlphabetError, match="not a letter"):
            letter_kind(bad)


@pytest.mark.parametrize("bad", ["a0\n", "t\n"])
def test_letter_kind_rejects_a_line_break(bad):
    # the whole token must be a letter, not just the part before a newline
    with pytest.raises(AlphabetError, match="not a letter"):
        letter_kind(bad)


def test_presentation_refuses_a_letter_with_a_line_break():
    # formatted, such an alphabet would read back as other letters and rules
    with pytest.raises(AlphabetError, match="not a letter"):
        Presentation((Rule(("t",), ("a0\n",)),), ReductionOrder(DEGLEX, ("t", "a0\n")))


def test_alphabets():
    phi = phi_alphabet()
    psi = psi_alphabet()
    assert len(phi) == 1 + 4 + 7 + 4 + 1
    assert len(psi) == len(phi) + 2
    assert "s" not in phi and "L" not in phi
    assert phi[0] == "t" and phi[-1] == "R"
    assert psi[:2] == ("t", "s") and psi[-2:] == ("L", "R")
    # no duplicates
    assert len(set(psi)) == len(psi)


@pytest.mark.parametrize("k", [0, 3, 4, 17])
def test_cell_letters_are_interned(k):
    # past Minsky's 4 colors too: the table makes a letter on first use
    assert cell(k) is cell(k)
    assert cell(k) == f"a{k}"
    assert cell(k) is sys.intern(f"a{k}")
    assert state_mark(k) is sys.intern(f"Q{k}") and color_mark(k) is sys.intern(f"P{k}")


def test_letters_are_shared(minsky):
    # one string object per letter keeps the words a run retains small
    for construction, alphabet in (("nilpotency", phi_alphabet()), ("zerodivisor", psi_alphabet())):
        shared = {id(x) for x in alphabet}
        words = [
            encode_config(TMConfig((0, 1, 2, 3), 6, 3, (3, 2, 1, 0)), construction),
            parse_word(" ".join(alphabet)),
        ]
        p = make_presentation(minsky, construction)
        q = parse_presentation(format_presentation(p))
        words.append(q.alphabet)
        for rule in p.rules + q.rules:
            words += [rule.lhs, rule.rhs or ()]
        for w in words:
            assert {id(x) for x in w} <= shared, w


def test_check_alphabet():
    for alphabet in (set(phi_alphabet()), frozenset(phi_alphabet())):
        check_alphabet(("t", "a0"), alphabet)
        check_alphabet((), alphabet)
        with pytest.raises(AlphabetError, match="^letter 's' outside alphabet$"):
            check_alphabet(("t", "s", "L"), alphabet)


@given(st.lists(st.sampled_from(psi_alphabet()), max_size=12))
def test_format_parse_inverse(letters):
    w = tuple(letters)
    assert parse_word(word_to_str(w)) == w
