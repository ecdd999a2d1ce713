"""Letters and words of the free monoid shared by both rewriting systems.

A word is a tuple of letter tokens.  Tokens are ``t``, ``s``, ``L``, ``R``,
``a<k>`` (tape cell of color k), ``Q<i>`` (machine state i) and ``P<j>``
(color of the current cell), each index in ASCII digits with no leading
zero.  The empty word is spelled ``eps`` in text.

Letters are interned: the constructors and ``parse_word`` hand out one
shared string per letter, so a word costs one pointer per letter however
many words are kept.
"""

from __future__ import annotations

import re
import sys
from typing import Sequence

Word = tuple[str, ...]

EPS: Word = ()

_LETTER_RE = re.compile(r"t|s|L|R|[aQP](?:0|[1-9][0-9]*)")


class AlphabetError(ValueError):
    """A word uses a letter outside the expected alphabet."""


class _Letters(dict):
    """Index -> interned letter ``<prefix><index>``, made on first lookup.

    Callers look letters up through the bound ``__getitem__``, so mapping
    it over a tape costs one dict lookup per cell.
    """

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, k: int) -> str:
        letter = self[k] = sys.intern(f"{self.prefix}{k}")
        return letter


cell = _Letters("a").__getitem__
state_mark = _Letters("Q").__getitem__
color_mark = _Letters("P").__getitem__


def letter_kind(letter: str) -> str:
    """Classify a token: 't', 's', 'L', 'R', 'cell', 'state' or 'color'."""
    if letter in ("t", "s", "L", "R"):
        return letter
    if not _LETTER_RE.fullmatch(letter):
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
    """Zero-divisor alphabet, greatest first: phi's, with ``s`` after ``t`` and ``L`` before ``R``."""
    return ("t", "s", *phi_alphabet(states, colors)[1:-1], "L", "R")


def parse_word(text: str) -> Word:
    """Parse whitespace-separated letter tokens; ``eps`` is the empty word."""
    text = text.strip()
    if not text or text == "eps":
        return EPS
    word = tuple(map(sys.intern, text.split()))
    for letter in word:
        if not _LETTER_RE.fullmatch(letter):
            raise AlphabetError(f"not a letter: {letter!r}")
    return word


def word_to_str(w: Word) -> str:
    return " ".join(w) if w else "eps"


def check_alphabet(w: Sequence[str], alphabet: set[str] | frozenset[str]) -> None:
    """Raise AlphabetError if any letter of w is not in the set alphabet."""
    if not alphabet.issuperset(w):
        letter = next(x for x in w if x not in alphabet)
        raise AlphabetError(f"letter {letter!r} outside alphabet")
