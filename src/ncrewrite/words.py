"""Letters and words of the free monoid shared by both rewriting systems.

A word is a tuple of letter tokens.  Tokens are ``t``, ``s``, ``L``, ``R``,
``a<k>`` (tape cell of color k), ``Q<i>`` (machine state i) and ``P<j>``
(color of the current cell).  The empty word is spelled ``eps`` in text.

Letters are interned: the constructors and ``parse_word`` hand out one
shared string per letter, so a word costs one pointer per letter however
many words are kept.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import AbstractSet, Iterable, Optional

Word = tuple[str, ...]

EPS: Word = ()

_LETTER_RE = re.compile(r"^(t|s|L|R|a\d+|Q\d+|P\d+)$")


class AlphabetError(ValueError):
    """A word uses a letter outside the expected alphabet."""


@functools.cache
def cell(k: int) -> str:
    return sys.intern(f"a{k}")


@functools.cache
def state_mark(i: int) -> str:
    return sys.intern(f"Q{i}")


@functools.cache
def color_mark(j: int) -> str:
    return sys.intern(f"P{j}")


def letter_kind(letter: str) -> str:
    """Classify a token: 't', 's', 'L', 'R', 'cell', 'state' or 'color'."""
    if letter in ("t", "s", "L", "R"):
        return letter
    if not _LETTER_RE.match(letter):
        raise AlphabetError(f"not a letter: {letter!r}")
    return {"a": "cell", "Q": "state", "P": "color"}[letter[0]]


def phi_alphabet(states: int = 7, colors: int = 4) -> tuple[str, ...]:
    """Alphabet of the nilpotency system, in precedence order (greatest first)."""
    return (
        "t",
        *(cell(k) for k in range(colors)),
        *(state_mark(i) for i in range(states)),
        *(color_mark(j) for j in range(colors)),
        "R",
    )


def psi_alphabet(states: int = 7, colors: int = 4) -> tuple[str, ...]:
    """Alphabet of the zero-divisor system, in precedence order (greatest first)."""
    return (
        "t",
        "s",
        *(cell(k) for k in range(colors)),
        *(state_mark(i) for i in range(states)),
        *(color_mark(j) for j in range(colors)),
        "L",
        "R",
    )


def parse_word(text: str, alphabet: Optional[AbstractSet[str]] = None) -> Word:
    """Parse whitespace-separated letter tokens; ``eps`` is the empty word.

    Without ``alphabet`` every token must have the shape of a letter; with
    it, every token must be a member of it.
    """
    text = text.strip()
    if not text or text == "eps":
        return EPS
    letters = tuple(map(sys.intern, text.split()))
    if alphabet is None:
        for letter in letters:
            if not _LETTER_RE.match(letter):
                raise AlphabetError(f"not a letter: {letter!r}")
    else:
        for letter in letters:
            if letter not in alphabet:
                raise AlphabetError(f"letter {letter!r} outside alphabet")
    return letters


def word_to_str(w: Word) -> str:
    return " ".join(w) if w else "eps"


def check_alphabet(w: Iterable[str], alphabet: Iterable[str]) -> None:
    """Raise AlphabetError if any letter of w is not in alphabet."""
    allowed = set(alphabet)
    for letter in w:
        if letter not in allowed:
            raise AlphabetError(f"letter {letter!r} outside alphabet")
