"""Reference implementations and fixtures that only the tests use.

The reduction oracles share no code with the library's normalizer: they
read the raw rule list and find redexes by plain slicing, without the
Aho-Corasick automaton, so agreement with ``normalize`` is evidence from a
second, independent path.  ``config_word`` draws the words that reach the
long left-hand sides of the compute rules.  ``resolve_ambiguity`` is the
diamond-lemma check on one ambiguity, ``deg_t`` and ``htilde`` the
invariants the nilpotency and zero-divisor rules conserve, and the two tiny
machines are small enough for brute force.  ``matcher_tables`` is the
Aho-Corasick build as it was before ``Matcher`` folded its failure links
over one breadth-first list: per-node lists kept during insertion and a
deque of (state, failure state) pairs.  ``annihilate_reference`` and
``cancellation_probe_reference`` are the deciders' loops as they were before
they ran on the word normalizer: each power or derived word goes through the
public ``normalize``.
"""

import random
from collections import deque

from ncrewrite import NILPOTENCY, ZERO_DIVISOR, DecisionOutcome, Move, Polynomial, TMConfig, TMSpec, encode_config
from ncrewrite.harness import _presentation, _random_structured_word, _random_word
from ncrewrite.rewrite import concat, normalize
from ncrewrite.turing import STOP, minsky_utm
from ncrewrite.words import letter_kind, psi_alphabet


def tiny_halting_machine():
    """2-state 2-color machine with one halt pair; small enough for brute force."""
    return TMSpec(2, 2, {
        (0, 0): Move("R", 0, 0),
        (0, 1): Move("L", 1, 1),
        (1, 0): Move("L", 1, 0),
        (1, 1): STOP,
    })


def tiny_looping_machine():
    """2-state 2-color machine with no halt pair at all; never stops."""
    return TMSpec(2, 2, {
        (0, 0): Move("R", 1, 0),
        (0, 1): Move("R", 1, 1),
        (1, 0): Move("R", 0, 0),
        (1, 1): Move("R", 0, 1),
    })


def deg_t(w):
    """Count of t letters."""
    return w.count("t")


def htilde(w):
    """Count of t letters plus count of s letters."""
    for letter in w:
        letter_kind(letter)  # validates token shape
    return w.count("t") + w.count("s")


def rewrite_at(w, pos, rule):
    """w with rule's lhs at pos replaced by its rhs; None when the rule kills w."""
    if rule.rhs is None:
        return None
    return w[:pos] + rule.rhs + w[pos + len(rule.lhs):]


def matcher_tables(patterns):
    """(goto, out, depth, horizon) of the deterministic automaton over
    patterns, the tables ``Matcher`` keeps as ``_goto``, ``_out``, ``_depth``
    and ``_horizon``."""
    goto = [{}]
    out = [[]]
    depth = [0]
    for pid, pat in enumerate(patterns):
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
    horizon = [d + (1 if g else 0) for d, g in zip(depth, goto)]
    queue = deque((u, 0) for u in goto[0].values())
    while queue:
        u, f = queue.popleft()
        for x, v in goto[u].items():
            queue.append((v, goto[f].get(x, 0)))
        out[u] = out[u] + out[f]
        goto[u] = {**goto[f], **goto[u]} if goto[u] else goto[f]
    return goto, out, depth, horizon


def config_word(rng, construction, cells=6):
    """t times a random Minsky configuration word with up to ``cells`` cells on
    each side of the head, with up to three more t/s letters inserted."""
    c = TMConfig(
        tuple(rng.randrange(4) for _ in range(rng.randint(0, cells))),
        rng.randrange(7),
        rng.randrange(4),
        tuple(rng.randrange(4) for _ in range(rng.randint(0, cells))),
    )
    w = ["t", *encode_config(c, construction)]
    extra = ("t",) if construction == NILPOTENCY else ("t", "s")
    for _ in range(rng.randint(0, 3)):
        w.insert(rng.randint(0, len(w)), rng.choice(extra))
    return tuple(w)


class RightmostOracle:
    """Normal forms by rewriting the rightmost redex, found by slicing."""

    def __init__(self, rules):
        self.by_lhs = {r.lhs: r for r in rules}
        self.lengths = sorted({len(lhs) for lhs in self.by_lhs})

    def redex(self, w):
        """(position, rule) of the rightmost redex of w, or None."""
        for pos in range(len(w) - 1, -1, -1):
            for n in self.lengths:
                if pos + n > len(w):
                    break
                rule = self.by_lhs.get(w[pos:pos + n])
                if rule is not None:
                    return pos, rule
        return None

    def normal_form(self, w):
        """Normal form of w as a polynomial, comparable with ``normalize``."""
        while (hit := self.redex(w)) is not None:
            w = rewrite_at(w, *hit)
            if w is None:
                return Polynomial.zero()
        return Polynomial.from_word(w)


class LeftmostOracle:
    """Normal forms and step counts by rewriting the leftmost redex, found by slicing.

    Among redexes at the same position the lowest rule id wins, the choice
    ``normalize`` makes, so the step counts must agree as well.
    """

    def __init__(self, rules):
        self.by_lhs = {}
        for rid, rule in enumerate(rules):
            self.by_lhs.setdefault(rule.lhs, (rid, rule))
        self.lengths = sorted({len(lhs) for lhs in self.by_lhs})

    def redex(self, w):
        """(position, rule) of the leftmost, lowest-id redex of w, or None."""
        for pos in range(len(w)):
            hits = [self.by_lhs[w[pos:pos + n]] for n in self.lengths
                    if pos + n <= len(w) and w[pos:pos + n] in self.by_lhs]
            if hits:
                return pos, min(hits, key=lambda hit: hit[0])[1]
        return None

    def normalize(self, w, max_steps=None):
        """(normal form as a polynomial, rewrite steps), comparable with ``normalize``.

        With ``max_steps`` it stops after that many steps and returns the
        word reached, as ``BudgetExhausted.partial`` holds it.
        """
        steps = 0
        while steps != max_steps and (hit := self.redex(w)) is not None:
            steps += 1
            w = rewrite_at(w, *hit)
            if w is None:
                return Polynomial.zero(), steps
        return Polynomial.from_word(w), steps


def one_step_rewrites(w, rules):
    """Every single rewrite of w, by naive scanning: (reaches zero, words)."""
    zero = False
    outs = set()
    for rule in rules:
        span = len(rule.lhs)
        for pos in range(len(w) - span + 1):
            if w[pos:pos + span] == rule.lhs:
                out = rewrite_at(w, pos, rule)
                if out is None:
                    zero = True
                else:
                    outs.add(out)
    return zero, outs


def resolve_ambiguity(a, p):
    """True iff both one-step reductions of the ambiguity's witness reach
    the same normal form (Bergman's diamond lemma, for one ambiguity)."""
    oracle = LeftmostOracle(p.rules)
    forms = []
    for pos, rid in ((a.offset1, a.rule1), (a.offset2, a.rule2)):
        w = rewrite_at(a.witness, pos, p.rules[rid])
        forms.append(Polynomial.zero() if w is None else oracle.normalize(w)[0])
    return forms[0] == forms[1]


def annihilate_reference(spec, c0, nmax, construction=NILPOTENCY, presentation=None):
    """``annihilate_bounded``, one ``normalize(concat(t, x))`` per power."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    c0.validate(spec)
    p = _presentation(spec, construction, presentation)
    t = Polynomial.from_word(("t",))
    x, _ = normalize(Polynomial.from_word(encode_config(c0, construction)), p)
    for n in range(1, nmax + 1):
        x, _ = normalize(concat(t, x), p)
        if x.is_zero():
            return DecisionOutcome.found(n)
    return DecisionOutcome.unknown(nmax)


def cancellation_probe_reference(samples, max_len, seed=0, presentation=None):
    """``cancellation_probe``, one ``normalize`` per derived word; it never
    returns when too few sampled words have a nonzero normal form."""
    rng = random.Random(seed)
    p = _presentation(minsky_utm(), ZERO_DIVISOR, presentation)
    states = sum(x.startswith("Q") for x in p.alphabet)
    colors = sum(x.startswith("a") for x in p.alphabet)
    structured = states and colors and p.letters.issuperset(psi_alphabet(states, colors))
    violations = []
    produced = 0
    while produced < samples:
        if structured and rng.random() < 0.5:
            x = _random_structured_word(rng, states, colors, max_len)
        else:
            x = _random_word(rng, p.alphabet, max_len)
        nf, _ = normalize(Polynomial.from_word(x), p)
        if nf.is_zero():
            continue
        produced += 1
        for n in (1, 2, 3):
            right, _ = normalize(Polynomial.from_word(x + ("t",) * n), p)
            if right.is_zero():
                violations.append((x, "right-t", n))
            left, _ = normalize(Polynomial.from_word(("s",) * n + x), p)
            if left.is_zero():
                violations.append((x, "left-s", n))
    return violations
