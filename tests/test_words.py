import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncrewrite import AlphabetError, parse_word, phi_alphabet, psi_alphabet, word_to_str
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


def test_check_alphabet():
    check_alphabet(("t", "a0"), phi_alphabet())
    with pytest.raises(AlphabetError):
        check_alphabet(("t", "s"), phi_alphabet())


@given(st.lists(st.sampled_from(psi_alphabet()), max_size=12))
def test_format_parse_inverse(letters):
    w = tuple(letters)
    assert parse_word(word_to_str(w)) == w
