"""Reduction orders that orient the two rule systems.

The nilpotency system is ordered by t-degree, then by the height
h(w) = sum 2^i * |X_i| where w = X_0 t X_1 t ... t X_n with t-free X_i,
then by deglex.  The zero-divisor system uses a weighted deglex where t
weighs 2 and every other letter 1, with lex ties broken by alphabet
precedence (earlier in the precedence list = greater letter).

Each order exposes a sort key that is monotone in the order, so bulk
comparisons reduce to tuple comparisons.  The letter policy is settled
when an order is built: every precedence letter must be a letter, and a
nilpotency order has no place for ``s`` or ``L``, so its precedence may
not hold them.  A word is then checked only against the precedence.
"""

from __future__ import annotations

from .words import AlphabetError, Word, letter_kind, phi_alphabet, psi_alphabet

NILPOTENCY = "nilpotency"
ZERO_DIVISOR = "zerodivisor"
DEGLEX = "deglex"


class ReductionOrder:
    """A total order on words over a fixed alphabet, given by a sort key."""

    def __init__(self, kind: str, precedence: tuple[str, ...]):
        if kind not in (NILPOTENCY, ZERO_DIVISOR, DEGLEX):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.precedence = tuple(precedence)
        self._neg_rank = {x: -i for i, x in enumerate(self.precedence)}
        if len(self._neg_rank) < len(self.precedence):
            raise ValueError(f"order precedence repeats a letter: {' '.join(self.precedence)}")
        # classify (and so validate) each letter here, once, so sort_key
        # checks a word against the precedence alone
        for x in self.precedence:
            if letter_kind(x) in ("s", "L") and kind == NILPOTENCY:
                raise AlphabetError(f"letter {x!r} not allowed in a nilpotency order")

    def sort_key(self, w: Word):
        """Key such that key(w1) < key(w2) iff w1 precedes w2.

        Nilpotency: (t-degree, height, length, lex); zero-divisor: (length
        plus t-degree, lex); deglex: (length, lex).  lex holds the negated
        precedence ranks, so an earlier letter is the greater one.
        """
        try:
            lex = tuple(map(self._neg_rank.__getitem__, w))
        except KeyError as exc:
            raise AlphabetError(f"letter {exc.args[0]!r} outside alphabet") from None
        kind = self.kind
        if kind == NILPOTENCY:
            # each t doubles the weight of every letter to its right
            height = 0
            weight = 1
            for letter in w:
                if letter == "t":
                    weight *= 2
                else:
                    height += weight
            return (w.count("t"), height, len(w), lex)
        if kind == ZERO_DIVISOR:
            return (len(w) + w.count("t"), lex)
        return (len(w), lex)

    def greater(self, w1: Word, w2: Word) -> bool:
        return self.sort_key(w1) > self.sort_key(w2)

    def __repr__(self):
        return f"ReductionOrder({self.kind!r}, {len(self.precedence)} letters)"


def nilpotency_order(states: int = 7, colors: int = 4) -> ReductionOrder:
    return ReductionOrder(NILPOTENCY, phi_alphabet(states, colors))


def zerodivisor_order(states: int = 7, colors: int = 4) -> ReductionOrder:
    return ReductionOrder(ZERO_DIVISOR, psi_alphabet(states, colors))
