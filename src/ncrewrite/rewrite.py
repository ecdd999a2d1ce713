"""Rule application and normal forms in the free algebra.

All rules here are monic monomial -> monomial (or zero), so rewriting a
word either yields another word or kills the term.  Polynomials (formal
rational combinations of words) exist for subtraction-based equality
tests and for the products the bounded deciders build.

Redex search uses an Aho-Corasick automaton over all rule left-hand
sides; after a rewrite, matching restarts just far enough to the left to
catch every redex touching the changed region.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional

from .orders import ReductionOrder
from .words import Word, check_alphabet, parse_word, word_to_str

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Rule:
    """Rewrite rule: leading monomial lhs -> rhs word, or to zero (rhs None)."""

    lhs: Word
    rhs: Optional[Word]
    tag: str = ""

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule lhs must be nonempty")


class Polynomial:
    """Formal linear combination of words with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        self._terms: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    self._terms[tuple(w)] = c

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def from_word(cls, w: Word, coeff: Fraction | int = 1) -> "Polynomial":
        return cls({tuple(w): Fraction(coeff)})

    @property
    def terms(self) -> dict[Word, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        result = Polynomial()
        result._terms = out
        return result

    def __neg__(self) -> "Polynomial":
        result = Polynomial()
        result._terms = {w: -c for w, c in self._terms.items()}
        return result

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def concat(x: Polynomial, y: Polynomial) -> Polynomial:
    """Bilinear concatenation product; the result is not normalized."""
    out: dict[Word, Fraction] = {}
    for wx, cx in x._terms.items():
        for wy, cy in y._terms.items():
            w = wx + wy
            s = out.get(w, 0) + cx * cy
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    result = Polynomial()
    result._terms = out
    return result


def format_polynomial(x: Polynomial) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for w in sorted(x._terms):
        parts.append(f"{x._terms[w]} * {word_to_str(w)}")
    return " + ".join(parts)


def parse_polynomial(text: str) -> Polynomial:
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    out = Polynomial.zero()
    for part in text.split("+"):
        coeff_text, _, word_text = part.partition("*")
        out = out + Polynomial.from_word(parse_word(word_text), Fraction(coeff_text.strip()))
    return out


class Matcher:
    """Aho-Corasick automaton reporting all pattern occurrences in a word."""

    def __init__(self, patterns: list[Word]):
        self.patterns = [tuple(p) for p in patterns]
        goto: list[dict[str, int]] = [{}]
        out: list[list[int]] = [[]]
        for pid, pat in enumerate(self.patterns):
            if not pat:
                raise ValueError("empty pattern")
            s = 0
            for x in pat:
                nxt = goto[s].get(x)
                if nxt is None:
                    nxt = len(goto)
                    goto[s][x] = nxt
                    goto.append({})
                    out.append([])
                s = nxt
            out[s].append(pid)
        fail = [0] * len(goto)
        queue = deque()
        for s in goto[0].values():
            queue.append(s)
        while queue:
            r = queue.popleft()
            for x, u in goto[r].items():
                queue.append(u)
                f = fail[r]
                while f and x not in goto[f]:
                    f = fail[f]
                fr = goto[f].get(x, 0)
                fail[u] = fr if fr != u else 0
                out[u] = out[u] + out[fail[u]]
        self._goto = goto
        self._fail = fail
        self._out = out
        self.max_len = max((len(p) for p in self.patterns), default=0)

    def finditer(self, word: Word, start: int = 0) -> Iterator[tuple[int, int]]:
        """Yield (position, pattern id) pairs, in order of match end."""
        goto, fail, out = self._goto, self._fail, self._out
        patterns = self.patterns
        s = 0
        for i in range(start, len(word)):
            x = word[i]
            while s and x not in goto[s]:
                s = fail[s]
            s = goto[s].get(x, 0)
            for pid in out[s]:
                yield (i - len(patterns[pid]) + 1, pid)

    def redexes(self, word: Word, start: int = 0) -> list[tuple[int, int]]:
        """All (position, pattern id) occurrences, sorted by position then id."""
        return sorted(self.finditer(word, start))


@dataclass(eq=False)
class Presentation:
    """A finitely presented algebra: alphabet, oriented rules, reduction order."""

    alphabet: tuple[str, ...]
    rules: tuple[Rule, ...]
    order: ReductionOrder
    construction: str = "custom"
    name: str = field(default="", compare=False)

    @functools.cached_property
    def matcher(self) -> Matcher:
        return Matcher([r.lhs for r in self.rules])


class BudgetExhausted(RuntimeError):
    """Normalization ran out of rewrite steps; signals a broken rule set."""

    def __init__(self, partial: Polynomial, steps: int, remaining_redexes: int):
        super().__init__(
            f"rewrite budget exhausted after {steps} steps "
            f"({remaining_redexes} redexes remaining)"
        )
        self.partial = partial
        self.steps = steps
        self.remaining_redexes = remaining_redexes


def _apply(w: Word, p: Presentation, hit: tuple[int, int]) -> Polynomial:
    pos, rid = hit
    rule = p.rules[rid]
    if rule.rhs is None:
        return Polynomial.zero()
    return Polynomial.from_word(w[:pos] + rule.rhs + w[pos + len(rule.lhs):])


def _normalize_word(w: Word, p: Presentation, budget: int) -> tuple[Optional[Word], int]:
    """Normal form of a single word (None when it reduces to zero).

    Rewrites the leftmost redex each time; by confluence any other choice
    reaches the same normal form.
    """
    matcher = p.matcher
    steps = 0
    start = 0
    while True:
        matches = matcher.redexes(w, start)
        if not matches:
            return w, steps
        if steps >= budget:
            raise BudgetExhausted(
                Polynomial.from_word(w), steps, len(matcher.redexes(w))
            )
        pos, rid = matches[0]
        rule = p.rules[rid]
        steps += 1
        if rule.rhs is None:
            return None, steps
        w = w[:pos] + rule.rhs + w[pos + len(rule.lhs):]
        # no redex starts left of the changed region; rescan from there
        start = max(0, pos - matcher.max_len + 1)


def normalize(
    x: Polynomial, p: Presentation, budget: int = DEFAULT_BUDGET
) -> tuple[Polynomial, int]:
    """Unique normal form of x together with the rewrite steps used."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    total = 0
    result = Polynomial.zero()
    for w, c in x.terms.items():
        check_alphabet(w, p.alphabet)
        try:
            nf, steps = _normalize_word(w, p, budget - total)
        except BudgetExhausted as exc:
            raise BudgetExhausted(exc.partial, total + exc.steps, exc.remaining_redexes)
        total += steps
        if nf is not None:
            result = result + Polynomial.from_word(nf, c)
    return result, total


def equal_in_algebra(x: Polynomial, y: Polynomial, p: Presentation) -> bool:
    nf, _ = normalize(x - y, p)
    return nf.is_zero()
