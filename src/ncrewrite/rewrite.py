"""Rule application and normal forms in the free algebra.

All rules here are monic monomial -> monomial (or zero), so rewriting a
word either yields another word or kills the term: normalization works on
words.  ``Polynomial`` (a formal rational combination of words) is a thin
wrapper around a dict from word to coefficient, kept for polynomial text
and the products the bounded deciders build; ``normalize`` runs the word
normalizer on each of its terms and adds up the coefficients of equal
normal forms.

Normalization reads a word once through a deterministic Aho-Corasick
automaton over all rule left-hand sides, one lookup per letter.  The
reduced prefix is kept as a stack of letters and automaton states; a
rewrite pops the left-hand side, puts the right-hand side back in front of
the unread input and resumes from the state on top of the stack, so each
rewrite step costs constant work, whatever the length of the word.

Sweeps.  A machine step is one letter (``t``, or the ``s`` it turns into)
crossing the tape one cell per commutation rule.  Building the automaton
also finds, from the rules alone, the commuting families ``c x y -> x c y``
and ``c x -> x c`` over a letter set S (see ``_sweep_table``); when one of
their rules is about to fire at state 0, the normalizer carries c across
the whole run of S letters ahead in one operation and counts one step per
crossing, so normal forms, step counts and ``BudgetExhausted`` are those of
the elementary loop.  Per machine step, ``normalize(t * encode(c))`` on
Minsky's machine at 100 / 800 / 6400 letters costs about 49 / 206 / 1350 µs
(nilpotency) and 38 / 238 / 1700 µs (zero-divisor), against 204 / 1980 /
13980 and 257 / 2050 / 10280 µs with one rule per crossing, and 2-3 / 4-5 /
19-24 µs for ``tm_step`` (best of 10, 2-vCPU shared host, Python 3.11.7).
What is left is mostly the entry ``Matcher.redexes`` scan.

Normal tails.  The bounded deciders multiply a word the engine has just
normalized by one letter, so ``_reduce_word``, the reduction loop behind
``normalize``'s entry scan, takes the length of a tail of its word that the
caller knows is normal.  Once the automaton has read, from that tail, at
least as many letters as the depth of its state (``horizon`` bounds the
depth) with no redex pending, no pattern can end in the rest of the tail
(Aho & Corasick, CACM 1975), and the loop returns it unread.  No step is
skipped, so normal forms, step counts and ``BudgetExhausted`` stay as a
full read gives them, for any rule set.  ``annihilate_bounded`` and
``cancellation_probe`` call the loop directly, which skips ``normalize``'s
``Polynomial`` wrapper, alphabet check and entry scan as well; in a traced
benchmark run, the rewriting they do shows as their own time.  ``lockstep``
and ``nilpotent_bounded`` still go through ``normalize`` and ``concat``, and
every ``normalize`` call through the entry scan, because the benchmark's
traced mode requires calls on those spans.
"""

from __future__ import annotations

import functools
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Mapping, Optional

from .orders import ReductionOrder
from .words import Word, check_alphabet, word_to_str

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


_ONE = Fraction(1)


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
    def _of(cls, terms: dict[Word, Fraction]) -> "Polynomial":
        """Wrap terms without copying or checking them: tuple keys, nonzero
        Fraction values, and no other owner of the dict."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of({})

    @classmethod
    def from_word(cls, w: Word, coeff: Fraction | int = _ONE) -> "Polynomial":
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        return cls._of({tuple(w): coeff} if coeff else {})

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
        return Polynomial._of(out)

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
    return Polynomial._of(out)


def format_polynomial(x: Polynomial) -> str:
    """Text of x, interned like the letters: a caller that keeps the text of
    many equal normal forms keeps one string."""
    if x.is_zero():
        return "0"
    parts = []
    for w in sorted(x._terms):
        parts.append(f"{x._terms[w]} * {word_to_str(w)}")
    return sys.intern(" + ".join(parts))


class Matcher:
    """Deterministic Aho-Corasick automaton: the failure links are folded
    into ``_goto`` at build time, so a walk reads a letter with one lookup.
    ``_out[s]``: the patterns ending at state s, longest (lowest id) first.
    ``_horizon[s]``: the trie depth of s, plus one if a pattern extends it;
    it is > k iff the pattern prefix being read began over k letters back,
    or k back and can still grow."""

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
        self._horizon = [d + (1 if g else 0) for d, g in zip(depth, goto)]
        # Breadth first, so a state's failure state (shallower) is folded
        # already; a leaf has no transitions of its own and shares that dict.
        queue = deque((u, 0) for u in goto[0].values())
        while queue:
            u, f = queue.popleft()
            for x, v in goto[u].items():
                queue.append((v, goto[f].get(x, 0)))
            # own patterns first, so out[u][0] is the longest, lowest-id one
            out[u] = out[u] + out[f]
            goto[u] = {**goto[f], **goto[u]} if goto[u] else goto[f]
        self._goto = goto
        self._out = out
        self.lengths = [len(p) for p in self.patterns]

    def redexes(self, word: Word) -> list[tuple[int, int]]:
        """All (position, pattern id) occurrences, sorted by position then id."""
        goto, out, lengths = self._goto, self._out, self.lengths
        found = []
        s = 0
        for i, x in enumerate(word):
            s = goto[s].get(x, 0)
            for pid in out[s]:
                found.append((i - lengths[pid] + 1, pid))
        found.sort()  # found in order of match end
        return found


def _sweep_table(rules: tuple[Rule, ...], matcher: Matcher) -> dict[int, frozenset[str]]:
    """Rule id -> letter set S, over the rules of the commuting families.

    A family is a mover c with the rules ``c x y -> x c y`` for all x, y in
    S, or ``c x -> x c`` for all x in S; S is the set of letters x with a
    rule ``c x x -> x c x`` (``c x -> x c``).  It counts only if no pattern
    starts with a letter of S and each ``c x y`` (``c x``), read from the
    root, gives no output before its last letter, then fires that rule as
    ``out[s][0]`` with nothing more to read (``horizon[s] == len(lhs)``).
    Then, from state 0, the leftmost-redex loop moves c across a run of S
    letters one rule per step and leaves each crossed letter at state 0.
    """
    goto, out, horizon = matcher._goto, matcher._out, matcher._horizon

    def fires(word: Word) -> Optional[int]:
        s = 0
        for x in word:
            if out[s]:
                return None
            s = goto[s].get(x, 0)
        if not out[s] or horizon[s] != len(word):
            return None
        rid = out[s][0]
        rule = rules[rid]
        return rid if rule.lhs == word and rule.rhs == (word[1], word[0]) + word[2:] else None

    candidates: dict[tuple[str, int], set[str]] = {}  # (c, lhs length): S
    for rule in rules:
        lhs = rule.lhs
        if len(lhs) == 2 or (len(lhs) == 3 and lhs[1] == lhs[2]):
            if rule.rhs == (lhs[1], lhs[0]) + lhs[2:]:
                candidates.setdefault((lhs[0], len(lhs)), set()).add(lhs[1])
    table: dict[int, frozenset[str]] = {}
    for (c, n), span in candidates.items():
        if not span.isdisjoint(goto[0]):
            continue
        words = [(c, x, y) for x in span for y in span] if n == 3 else [(c, x) for x in span]
        rids = [fires(word) for word in words]
        if None not in rids:
            table.update(dict.fromkeys(rids, frozenset(span)))
    return table


@dataclass(eq=False)
class Presentation:
    """A finitely presented algebra: alphabet, oriented rules, reduction order."""

    alphabet: tuple[str, ...]
    rules: tuple[Rule, ...]
    order: ReductionOrder
    construction: str = "custom"

    @functools.cached_property
    def matcher(self) -> Matcher:
        return self._compiled[0]

    @functools.cached_property
    def sweeps(self) -> dict[int, frozenset[str]]:
        """Rule id -> letter set, for the rules of the commuting families
        (see ``_sweep_table``)."""
        return self._compiled[1]

    @functools.cached_property
    def _compiled(self) -> tuple[Matcher, dict[int, frozenset[str]]]:
        # one build for both, so asking for the matcher pays for the table too
        matcher = Matcher([r.lhs for r in self.rules])
        return matcher, _sweep_table(self.rules, matcher)

    @functools.cached_property
    def letters(self) -> frozenset[str]:
        """The alphabet as a set, for membership tests."""
        return frozenset(self.alphabet)


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


def _normalize_word(w: Word, p: Presentation, budget: int) -> tuple[Optional[Word], int]:
    """Normal form of a single word (None when it reduces to zero)."""
    # Entry scan: a word without a redex comes back after it unchanged.  It
    # also keeps Matcher.redexes on the path of every call, which the
    # benchmark's traced mode requires until it names its layers by what
    # they do rather than by implementation spans.
    if not p.matcher.redexes(w):
        return w, 0
    return _reduce_word(w, p, budget)


def _reduce_word(w: Word, p: Presentation, budget: int, normal: int = 0) -> tuple[Optional[Word], int]:
    """Normal form of w and the rewrite steps used, as ``_normalize_word``;
    the caller vouches that the last ``normal`` letters of w hold no redex.

    Rewrites the leftmost redex each time, the lowest rule id among those
    at the same position; by confluence any other choice reaches the same
    normal form, and this one fixes the step count.

    The bottom ``mark`` letters of ``pending`` are unread letters of that
    normal tail.  Once the last ``mark - len(pending)`` letters read all
    came from it, at least ``horizon[s]`` of them, and no redex is pending,
    every pattern the rest of the tail could complete would lie inside the
    tail: the rest is read without a match, so it is returned unread.
    """
    matcher = p.matcher
    goto, out, horizon = matcher._goto, matcher._out, matcher._horizon
    rules, lhs_len, sweeps = p.rules, matcher.lengths, p.sweeps
    letters: list[str] = []  # the prefix read so far
    states = [0]  # states[k]: automaton state after letters[:k]
    pending = list(reversed(w))  # input still to read, next letter last
    mark = normal  # lowered to len(pending) before anything is pushed on it
    steps = 0
    pos = -1  # best redex seen since the last rewrite, at (pos, rid); -1: none
    rid = 0
    while True:
        if pending:
            x = pending.pop()
            s = goto[states[-1]].get(x, 0)
            letters.append(x)
            states.append(s)
            if out[s]:
                r = out[s][0]
                q = len(letters) - lhs_len[r]
                if pos < 0 or q < pos or (q == pos and r < rid):
                    pos, rid = q, r
            if pos < 0:
                if mark and mark - len(pending) >= horizon[s]:
                    return tuple(letters + pending[::-1]), steps
                continue
            # A pattern prefix still being read that starts before pos, or at
            # pos and can grow, may complete into a better redex: read on.
            if horizon[s] > len(letters) - pos:
                continue
        elif pos < 0:
            return tuple(letters), steps
        if steps >= budget:
            partial = tuple(letters) + tuple(reversed(pending))
            raise BudgetExhausted(
                Polynomial.from_word(partial), steps, len(matcher.redexes(partial))
            )
        span = sweeps.get(rid)
        if span is not None and states[pos] == 0:
            # This rule is one crossing, and each span letter pending behind
            # the lhs allows one more (with c x y the run's last letter stays
            # ahead of the mover): k steps in one go, within the budget.
            run = list(takewhile(span.__contains__, reversed(pending)))
            k = min(len(run) + 1, budget - steps)
            if k > 1:
                mover = letters.pop(pos)
                m = k - (len(letters) - pos)  # crossed letters still pending
                letters += run[:m]
                del pending[len(pending) - m:]
                mark = min(mark, len(pending))
                pending.append(mover)
                del states[pos + 1:]
                states += [0] * k  # no pattern starts with a span letter
                steps += k
                pos = -1
                continue
        steps += 1
        rule = rules[rid]
        if rule.rhs is None:
            return None, steps
        mark = min(mark, len(pending))
        pending.extend(reversed(letters[pos + lhs_len[rid]:]))
        pending.extend(reversed(rule.rhs))
        del letters[pos:]
        del states[pos + 1:]
        pos = -1


def _normal_powers(w: Word, p: Presentation, letter: str, n: int) -> int:
    """The largest k <= n with w + (letter,) * k normal, for a normal word w:
    a redex of w + (letter,) * k ends in the letters appended."""
    goto, out = p.matcher._goto, p.matcher._out
    s = 0
    for x in w:
        s = goto[s].get(x, 0)
    for k in range(n):
        s = goto[s].get(letter, 0)
        if out[s]:
            return k
    return n


def normalize(
    x: Polynomial, p: Presentation, budget: int = DEFAULT_BUDGET
) -> tuple[Polynomial, int]:
    """Unique normal form of x together with the rewrite steps used."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    total = 0
    out: dict[Word, Fraction] = {}
    for w, c in x._terms.items():
        check_alphabet(w, p.letters)
        try:
            nf, steps = _normalize_word(w, p, budget - total)
        except BudgetExhausted as exc:
            raise BudgetExhausted(exc.partial, total + exc.steps, exc.remaining_redexes)
        total += steps
        if nf is None:
            continue
        prev = out.get(nf)
        if prev is not None:
            c += prev
        if c:
            out[nf] = c
        else:
            del out[nf]
    return Polynomial._of(out), total
