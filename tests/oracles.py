"""Reduction oracles that share no code with the library's normalizer.

They read the raw rule list and find redexes by plain slicing, without
the Aho-Corasick automaton, so agreement with ``normalize`` is evidence
from a second, independent path.
"""

from ncrewrite import Polynomial


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
            pos, rule = hit
            if rule.rhs is None:
                return Polynomial.zero()
            w = w[:pos] + rule.rhs + w[pos + len(rule.lhs):]
        return Polynomial.from_word(w)


def one_step_rewrites(w, rules):
    """Every single rewrite of w, by naive scanning: (reaches zero, words)."""
    zero = False
    outs = set()
    for rule in rules:
        span = len(rule.lhs)
        for pos in range(len(w) - span + 1):
            if w[pos:pos + span] == rule.lhs:
                if rule.rhs is None:
                    zero = True
                else:
                    outs.add(w[:pos] + rule.rhs + w[pos + span:])
    return zero, outs
