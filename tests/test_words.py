import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncrewrite import (
    AlphabetError,
    TMConfig,
    encode_config,
    make_presentation,
    parse_word,
    phi_alphabet,
    psi_alphabet,
    word_to_str,
)
from ncrewrite.words import check_alphabet, letter_kind


def test_parse_roundtrip():
    w = parse_word("t R a1 Q2 P3 a0 R")
    assert w == ("t", "R", "a1", "Q2", "P3", "a0", "R")
    assert word_to_str(w) == "t R a1 Q2 P3 a0 R"


def test_eps():
    assert parse_word("eps") == ()
    assert parse_word("") == ()
    assert word_to_str(()) == "eps"


@pytest.mark.parametrize("bad", ["x", "a", "Q", "a1b", "t1"])
def test_parse_rejects_junk(bad):
    with pytest.raises(AlphabetError):
        parse_word(bad)


def test_letter_kind():
    assert letter_kind("a2") == "cell"
    assert letter_kind("Q6") == "state"
    assert letter_kind("P0") == "color"
    assert letter_kind("t") == "t"
    with pytest.raises(AlphabetError):
        letter_kind("Q")


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


def test_letters_are_shared(minsky):
    # one string object per letter keeps the words a run retains small
    for construction, alphabet in (("nilpotency", phi_alphabet()), ("zerodivisor", psi_alphabet())):
        shared = {id(x) for x in alphabet}
        words = [
            encode_config(TMConfig((0, 1, 2, 3), 6, 3, (3, 2, 1, 0)), construction),
            parse_word(" ".join(alphabet)),
        ]
        for rule in make_presentation(minsky, construction).rules:
            words += [rule.lhs, rule.rhs or ()]
        for w in words:
            assert {id(x) for x in w} <= shared, w


def test_check_alphabet():
    check_alphabet(("t", "a0"), phi_alphabet())
    with pytest.raises(AlphabetError):
        check_alphabet(("t", "s"), phi_alphabet())


@given(st.lists(st.sampled_from(psi_alphabet()), max_size=12))
def test_format_parse_inverse(letters):
    w = tuple(letters)
    assert parse_word(word_to_str(w)) == w
