"""Rule application and normal forms in the free algebra.

All rules here are monic monomial -> monomial (or zero), so rewriting a
word either yields another word or kills the term: normalization works on
words.  ``Polynomial`` (a formal linear combination of words, with the
coefficients it is given: the engine itself only makes the integer 1, and
never divides) is a thin wrapper around a dict from word to coefficient,
kept for polynomial text and the products the bounded deciders build;
``normalize`` runs the word normalizer on each of its terms and adds up the
coefficients of equal normal forms; ``BudgetExhausted.partial`` is the word
a reduction stopped at.

Normalization reads a word once through a deterministic Aho-Corasick
automaton over all rule left-hand sides, one lookup per letter: up to the
first pattern end, then on while a better redex may still complete.  The
reduced prefix is kept as a stack of letters and automaton states; a
rewrite pops the left-hand side, puts the letters read past it back in
front of the unread input, and the right-hand side on the stack up to its
first pattern end and the rest in front of the input (see Right-hand
sides): constant work per step.

Sweeps.  A machine step is one letter (``t``, or the ``s`` it turns into)
crossing the tape one cell per commutation rule.  Building the automaton
also finds, from the rules alone, the commuting families ``c x y -> x c y``
and ``c x -> x c`` over a letter set S (see ``_sweep_table``); when one of
their rules is about to fire at state 0, the normalizer carries c across
the whole run of S letters ahead in one operation and counts one step per
crossing, so normal forms, step counts and ``BudgetExhausted`` are those of
the elementary loop.  Per machine step, ``normalize(t * encode(c))`` on
Minsky's machine costs 11-15 times ``tm_step`` at 100 letters, 28-34 times
at 800 and 41-53 times at 6400, under either construction (six runs, best
of 30 calls each, 2-vCPU shared host, Python 3.11.7; the absolute times in
``BENCH_powerstop.json`` moved up to 2x from run to run).  At 800 letters
about a third of that is the entry ``Matcher.redexes`` scan, which walks
the trie only from the letters that begin an lhs and reports the hits in
the order it finds them (position, then lhs length, then rule id), and
about half the reduction loop; each reads every letter once.

Normal tails.  The bounded deciders multiply a word the engine has just
normalized by one letter, so ``_reduce_word``, the reduction loop behind
``normalize``'s entry scan, reads from a list its caller owns: the unread
input reversed, next letter last, whose bottom ``normal`` letters the
caller knows to be a normal tail.  Once the automaton has read, from that
tail, at least as many letters as the depth of its state (``horizon``
bounds the depth) with no redex pending, no pattern can end in the rest of
the tail (Aho & Corasick, CACM 1975), and the loop leaves it unread in the
list and returns the normal prefix it read.  No step is skipped, so normal
forms, step counts and ``BudgetExhausted`` stay as a full read gives them,
for any rule set.  ``_first_zero_power`` is the one owner of such a list:
it keeps x^n w in it across all powers n, pushes the prefix back after
each power and appends the next x, so a power costs the letters it reads,
and the x^n that earlier powers left at the end of the word is never read
or copied.  ``annihilate_bounded`` is one call of it with x = t, and
``cancellation_probe``'s s^n Y, n = 1..3, one call per sample with x = s
on the normal form Y of the sample.  The chain also stops at the first
power that rewrites nothing when x is a fixed point of the automaton (x
read from the root enters a state that x leads back to): x v was normal,
and x x v enters the same states over v, so no later power can reach zero.
That answer is exact for every rule set, like the tail stop.
On Minsky's zero-divisor rules s is such a letter, and a sample Y that
begins with L takes one reduction instead of three; t never stops early,
as every t encode(c) rewrites.  On Antihydra from the blank tape, 10^4
powers of t take about 0.12 s and 3*10^4 about 0.43 s; a power costs time
linear in the tape that its t crosses (138 cells at 10^4 steps, 435 at
10^5), not in the number of powers (``BENCH_longrun.json``).  In a traced
benchmark run, the rewriting they do shows as their own time.  ``lockstep``
calls ``normalize``, and ``nilpotent_bounded`` calls ``normalize`` and
``concat``; every ``normalize`` call goes through the entry scan, because
the benchmark's traced mode requires calls on those spans.

Right-hand sides.  After a rewrite the loop goes on from the state q its
stack holds at the redex, and the rhs letters it reads from q until a
pattern ends depend on q and the rule alone.  ``Presentation.walks`` keeps
them per (q, rule id), with their states (``_rhs_walk``), filled by the
loop the first time it meets the pair, as ``sweeps`` is built by the first
reduction.  The loop puts those letters and states straight on its stack
and pushes back on the input only the rest of the rhs, from the letter
where a pattern ends.  Read one at a time they would enter the same states,
and they lie above the normal tail, so the tail stop cannot fire among
them: normal forms, step counts and ``BudgetExhausted`` do not change.
The table pays for itself: a copy of the loop without it, which pushes the
whole rhs back on the input, read decide ``wall_s`` 12.6% and simulate
9.8% slower, worse in 5 of 5 paired 25 s runs each, and probe 1.4% faster
(4 of 5; ``BENCH_readside.json``, ``ablations``).

Compile cost.  Compiling Minsky's machine, the 1560 nilpotency and 441
zero-divisor rules with both automata and sweep tables, costs 3.3-7.2 ms
over the same six runs, which also timed the automaton, the letter check
and the sweep table below.  A ``Rule`` is a plain named tuple, 0.33-0.42 µs
to build; the ``Presentation`` that holds it refuses an empty lhs in one pass
over the rules, 43-51 µs on the 1560 nilpotency rules (three processes on the
same host, ``BENCH_rulepath.json``).  Reading a field of a rule costs about
20 ns more than reading a dataclass attribute, so the reduction loop reads
``rhs`` once per step.  ``Matcher`` files each pattern id at the state
that spells it as it inserts the pattern, its output lists growing with
the trie, and folds the failure links over one breadth-first list of
states that grows as the loop reads it: 1.5-2.6 ms on the nilpotency rules
(1953 states; best of 200 builds, eight processes on the same host,
``BENCH_onepass.json``).  A ``Presentation``
checks every rule letter against its alphabet when it is built, one
``issuperset`` pass per side of the rules, 0.24-0.5 ms of the 1.4-2.9 ms
that ``nilpotency_presentation`` takes.  The automaton is built on first
use, once per presentation, and the sweep table from it by the first
reduction that reads it, so a caller that only scans, as
``find_ambiguities`` does, never builds the table (0.09-0.15 ms on the
nilpotency rules and 0.04-0.07 ms on the zero-divisor rules); nothing is
cached across presentations.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from itertools import chain, takewhile
from operator import attrgetter
from typing import KeysView, Mapping, NamedTuple, Optional

from .orders import DEGLEX, ReductionOrder
from .words import AlphabetError, Word, check_alphabet, word_to_str

DEFAULT_BUDGET = 10**6


class Rule(NamedTuple):
    """Rewrite rule: leading monomial lhs -> rhs word, or to zero (rhs None).

    A plain immutable named tuple, so building one costs a tuple; a compiled
    presentation builds a rule per schema instance.  The ``Presentation``
    that holds a rule refuses an empty lhs, however the rule was built."""

    lhs: Word
    rhs: Optional[Word]
    tag: str = ""


_lhs_of, _rhs_of = attrgetter("lhs"), attrgetter("rhs")


def _add_term(terms: dict[Word, int], w: Word, c: int) -> None:
    """Add c * w, c nonzero, into terms, dropping the term when its coefficient becomes zero."""
    c += terms.get(w, 0)
    if c:
        terms[w] = c
    else:
        del terms[w]


class Polynomial:
    """Formal linear combination of words, with the nonzero coefficients it
    is given.  Sums and products only add and multiply them, so integers
    stay integers and a caller's exact rationals stay exact."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, int] | None = None):
        self._terms: dict[Word, int] = {tuple(w): c for w, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, terms: dict[Word, int]) -> "Polynomial":
        """Wrap terms without copying or checking them: tuple keys, nonzero
        values, and no other owner of the dict."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of({})

    @classmethod
    def from_word(cls, w: Word) -> "Polynomial":
        return cls._of({tuple(w): 1})

    @property
    def terms(self) -> dict[Word, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for w, c in other._terms.items():
            _add_term(out, w, c)
        return Polynomial._of(out)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def concat(x: Polynomial, y: Polynomial) -> Polynomial:
    """Bilinear concatenation product; the result is not normalized."""
    out: dict[Word, int] = {}
    for wx, cx in x._terms.items():
        for wy, cy in y._terms.items():
            _add_term(out, wx + wy, cx * cy)
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
        out: list[list[int]] = [[]]  # grows with goto; each pattern id is filed at the state that spells it
        n = 1  # len(goto): the id of the next new state
        for pid, pat in enumerate(patterns):
            if not pat:
                raise ValueError("empty pattern")
            s = 0
            for x in pat:
                s = goto[s].setdefault(x, n)
                if s == n:
                    goto.append({})
                    out.append([])
                    n += 1
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


@dataclass(frozen=True, eq=False)
class Presentation:
    """A finitely presented algebra: oriented rules, and the reduction order over its alphabet.

    The order names the construction: ``construction`` is the order's kind
    (``nilpotency`` or ``zerodivisor``), or ``custom`` under deglex.  Both
    fields are frozen, so the automaton and tables built from them on first
    use stay theirs.  A rule with an empty lhs is refused first, then any
    rule letter outside the alphabet."""

    rules: tuple[Rule, ...]
    order: ReductionOrder

    def __post_init__(self):
        # An empty lhs first, then one pass over all rule letters; the walk
        # only names the first bad letter.
        letters, rules = self.letters, self.rules
        if not all(map(_lhs_of, rules)):
            raise ValueError("rule lhs must be nonempty")
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
        return Matcher(list(map(_lhs_of, self.rules)))

    @functools.cached_property
    def sweeps(self) -> dict[int, frozenset[str]]:
        """Rule id -> letter set, for the rules of the commuting families
        (see ``_sweep_table``); built by the first reduction that reads it."""
        return _sweep_table(self.rules, self.matcher)

    @functools.cached_property
    def walks(self) -> dict[tuple[int, int], tuple[Word, tuple[int, ...], Word]]:
        """(state at a redex, rule id) -> the walk of the rule's rhs from that
        state (see ``_rhs_walk``); the reduction loop fills it on first use."""
        return {}

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


def _rhs_walk(matcher: Matcher, q: int, rhs: Word) -> tuple[Word, tuple[int, ...], Word]:
    """The walk of rhs from state q: the letters read before a pattern
    ends, their states, and the rest of rhs reversed, from the letter where
    a pattern ends on."""
    goto, out = matcher._goto, matcher._out
    states = []
    s = q
    for k, x in enumerate(rhs):
        s = goto[s].get(x, 0)
        if out[s]:
            return rhs[:k], tuple(states), rhs[k:][::-1]
        states.append(s)
    return rhs, tuple(states), ()


def _reduce_word(pending: list[str], p: Presentation, budget: int,
                 normal: int = 0) -> tuple[Optional[list[str]], int]:
    """Reduce the word that ``pending`` holds reversed (next letter last):
    the normal prefix read (None for zero) and the rewrite steps used.  The
    caller vouches that the bottom ``normal`` letters of ``pending`` hold no
    redex; the normal form is the prefix followed by what is left in
    ``pending``, reversed.

    Rewrites the leftmost redex each time, the lowest rule id among those
    at the same position; by confluence any other choice reaches the same
    normal form, and this one fixes the step count.  It reads in two phases:
    with no redex pending, until a pattern ends; then on, while a better
    redex (further left, or lower-id at the same position) may complete.

    The bottom ``mark`` letters of ``pending`` are unread letters of that
    normal tail.  Once the last ``mark - len(pending)`` letters read all
    came from it, at least ``horizon[s]`` of them, and no redex is pending,
    every pattern the rest of the tail could complete would lie inside the
    tail: the rest is read without a match, so it is left unread.
    """
    matcher = p.matcher
    goto, out, horizon = matcher._goto, matcher._out, matcher._horizon
    rules, lhs_len, sweeps, walks = p.rules, matcher.lengths, p.sweeps, p.walks
    letters: list[str] = []  # the prefix read so far
    states = [0]  # states[k]: automaton state after letters[:k]
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
                return letters, steps
        else:
            return letters, steps
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
        q = states[pos]
        walk = walks.get((q, rid))
        if walk is None:
            rhs = rules[rid].rhs
            if rhs is None:
                return None, steps
            walk = walks[q, rid] = _rhs_walk(matcher, q, rhs)
        if mark > len(pending):
            mark = len(pending)
        end = pos + lhs_len[rid]
        if len(letters) > end:  # letters read past the lhs go back, next one last
            pending += letters[:end - 1:-1]
        # the rhs letters read from q before a pattern ends go straight on
        # the stack; the rest goes back in front of the unread input
        prefix, entered, rest = walk
        pending += rest
        letters[pos:] = prefix
        states[pos + 1:] = entered
        s = states[-1]


def _first_zero_power(w: Word, x: str, p: Presentation, nmax: int, normal: int) -> int:
    """The smallest n <= nmax with x^n w reducing to zero, or 0 if none.

    The caller has checked the letters of w and x against the alphabet, and
    vouches that the last ``normal`` letters of w hold no redex.  The word is
    kept reversed in one list across all powers: the letters a reduction
    read go back on it, then the next x, so the reduction of x v, with v the
    previous normal form, may stop reading once it is inside v.  The first
    power reads x w as it is, up to its normal tail.  For a Gröbner basis
    (both constructions, criterion 1) every word has one normal form,
    NF(x v) = NF(x NF(v)), so the answer is that of the raw powers x^n w.
    For other rule sets an answer n is still a reduction of x^n w to zero,
    but the smallest such n can depend on where the normal forms are taken.

    The chain stops at the first power that rewrites nothing when x is a
    fixed point of the automaton: x read from the root enters a state q,
    and x leads from q back to q (so no lhs begins with x x).  That power's
    word x v is normal, so no pattern ends while it is read, and x x v
    enters q, q and then the same states over v: it is normal too, and by
    induction no later power reaches zero.  The answer is exact for every
    rule set and every ``normal``.
    """
    goto = p.matcher._goto
    q = goto[0].get(x, 0)
    fixed = goto[q].get(x, 0) == q
    pending = list(reversed(w))  # the word, next letter last
    for n in range(1, nmax + 1):
        pending.append(x)
        letters, steps = _reduce_word(pending, p, DEFAULT_BUDGET, normal)
        if letters is None:
            return n
        if fixed and not steps:
            return 0
        pending += reversed(letters)
        normal = len(pending)
    return 0


def normalize(
    x: Polynomial, p: Presentation, budget: int = DEFAULT_BUDGET
) -> tuple[Polynomial, int]:
    """Unique normal form of x together with the rewrite steps used."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    total = 0
    out: dict[Word, int] = {}
    for w, c in x._terms.items():
        check_alphabet(w, p.letters)
        # Entry scan: a word without a redex is its own normal form.  It also
        # keeps Matcher.redexes on the path of every call, which the
        # benchmark's traced mode requires until it names its layers by what
        # they do rather than by implementation spans.
        nf = w
        if p.matcher.redexes(w):
            try:
                letters, steps = _reduce_word(list(reversed(w)), p, budget - total)
            except BudgetExhausted as exc:
                raise BudgetExhausted(exc.partial, total + exc.steps, exc.remaining_redexes)
            total += steps
            if letters is None:
                continue
            nf = tuple(letters)  # with no normal tail the loop reads the whole word
        _add_term(out, nf, c)
    return Polynomial._of(out), total
