"""Rule application and normal forms in the free algebra.

All rules here are monic monomial -> monomial (or zero), so rewriting a
word either yields another word or kills the term.  Polynomials (formal
rational combinations of words) exist for subtraction-based equality
tests and for the products the bounded deciders build.

Normalization reads a word once through an Aho-Corasick automaton over all
rule left-hand sides.  The reduced prefix is kept as a stack of letters and
automaton states; a rewrite pops the left-hand side, puts the right-hand
side back in front of the unread input and resumes from the state on top of
the stack, so each rewrite step costs constant work, whatever the length of
the word.
"""

from __future__ import annotations

import functools
import sys
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
    """Text of x, interned like the letters: a caller that keeps the text of
    many equal normal forms keeps one string."""
    if x.is_zero():
        return "0"
    parts = []
    for w in sorted(x._terms):
        parts.append(f"{x._terms[w]} * {word_to_str(w)}")
    return sys.intern(" + ".join(parts))


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
        depth = [0]
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
                    depth.append(depth[s] + 1)
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
                # own patterns first, so out[u][0] is the longest, lowest-id one
                out[u] = out[u] + out[fail[u]]
        self._goto = goto
        self._fail = fail
        self._out = out
        self._depth = depth
        self.lengths = [len(p) for p in self.patterns]

    def finditer(self, word: Word) -> Iterator[tuple[int, int]]:
        """Yield (position, pattern id) pairs, in order of match end."""
        goto, fail, out, lengths = self._goto, self._fail, self._out, self.lengths
        s = 0
        for i, x in enumerate(word):
            while s and x not in goto[s]:
                s = fail[s]
            s = goto[s].get(x, 0)
            for pid in out[s]:
                yield (i - lengths[pid] + 1, pid)

    def redexes(self, word: Word) -> list[tuple[int, int]]:
        """All (position, pattern id) occurrences, sorted by position then id."""
        return sorted(self.finditer(word))


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

    Rewrites the leftmost redex each time, the lowest rule id among those
    at the same position; by confluence any other choice reaches the same
    normal form, and this one fixes the step count.
    """
    matcher = p.matcher
    # Entry scan: a word without a redex comes back after it unchanged.  It
    # also keeps Matcher.redexes on the path of every call, which the
    # benchmark's traced mode requires until it names its layers by what
    # they do rather than by implementation spans.
    if not matcher.redexes(w):
        return w, 0
    goto, fail, out, depth = matcher._goto, matcher._fail, matcher._out, matcher._depth
    rules, lhs_len = p.rules, matcher.lengths
    letters: list[str] = []  # the prefix read so far
    states = [0]  # states[k]: automaton state after letters[:k]
    pending = list(reversed(w))  # input still to read, next letter last
    steps = 0
    pos = -1  # best redex seen since the last rewrite, at (pos, rid); -1: none
    rid = 0
    while True:
        if pending:
            x = pending.pop()
            s = states[-1]
            while s and x not in goto[s]:
                s = fail[s]
            s = goto[s].get(x, 0)
            letters.append(x)
            states.append(s)
            if out[s]:
                r = out[s][0]
                q = len(letters) - lhs_len[r]
                if pos < 0 or q < pos or (q == pos and r < rid):
                    pos, rid = q, r
            if pos < 0:
                continue
            # A pattern prefix still being read that starts before pos, or at
            # pos and can grow, may complete into a better redex: read on.
            reach = len(letters) - pos
            if depth[s] > reach or (depth[s] == reach and goto[s]):
                continue
        elif pos < 0:
            return tuple(letters), steps
        if steps >= budget:
            partial = tuple(letters) + tuple(reversed(pending))
            raise BudgetExhausted(
                Polynomial.from_word(partial), steps, len(matcher.redexes(partial))
            )
        steps += 1
        rule = rules[rid]
        if rule.rhs is None:
            return None, steps
        pending.extend(reversed(letters[pos + lhs_len[rid]:]))
        pending.extend(reversed(rule.rhs))
        del letters[pos:]
        del states[pos + 1:]
        pos = -1


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
