"""Certificates that a rule set is a Gröbner basis under its order.

Three independent checks: no overlap or inclusion ambiguities among the
leading monomials, every rule oriented (lhs strictly above rhs), and an
exhaustive bounded audit of the order axioms (totality, minimality of
the empty word, two-sided monotonicity).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .orders import ReductionOrder
from .rewrite import Presentation
from .words import Word

OVERLAP = "overlap"
INCLUSION = "inclusion"


@dataclass(frozen=True)
class Ambiguity:
    """Two leading monomials sharing a superposition word.

    Overlap: a proper suffix of lhs(rule1) equals a proper prefix of
    lhs(rule2); witness glues the two.  Inclusion: lhs(rule2) occurs
    inside lhs(rule1) (witness is lhs(rule1) itself).
    """

    kind: str
    rule1: int
    rule2: int
    witness: Word
    offset1: int
    offset2: int


def find_ambiguities(p: Presentation) -> list[Ambiguity]:
    """All overlap and inclusion ambiguities among rule lhs pairs.

    Overlaps come first, by rule1, offset, then rule2: each proper suffix of
    lhs(rule1) is looked up among the proper prefixes of the lhs words.  A
    suffix whose first letter begins no lhs is skipped before it is sliced,
    and the prefix index is built only if some suffix passes that check, and
    only over the lhs words that begin with the first letter of such a
    suffix.  Inclusions follow, by rule1, position, length of lhs(rule2),
    then rule2: the presentation's own matcher finds them in lhs(rule1),
    unless its automaton shows that there are none (see
    ``Matcher.inclusion_free``).  The rules are a Gröbner basis when
    every ambiguity resolves (Bergman's diamond lemma).
    """
    lhss = [r.lhs for r in p.rules]
    starts = p.matcher.first_letters()
    out: list[Ambiguity] = []

    candidates = [(r1, k) for r1, lhs1 in enumerate(lhss) if not starts.isdisjoint(lhs1[1:])
                  for k in range(1, len(lhs1)) if lhs1[k] in starts]
    if candidates:
        firsts = {lhss[r1][k] for r1, k in candidates}
        prefix_index: dict[Word, list[int]] = {}
        for rid, lhs in enumerate(lhss):
            if lhs[0] in firsts:
                for k in range(1, len(lhs)):  # proper nonempty prefixes
                    prefix_index.setdefault(lhs[:k], []).append(rid)
        for r1, k in candidates:
            lhs1 = lhss[r1]
            suffix = lhs1[k:]
            for r2 in prefix_index.get(suffix, ()):
                out.append(Ambiguity(
                    kind=OVERLAP,
                    rule1=r1,
                    rule2=r2,
                    witness=lhs1 + lhss[r2][len(suffix):],
                    offset1=0,
                    offset2=k,
                ))

    if p.matcher.inclusion_free():
        return out
    lengths = p.matcher.lengths
    for r1, lhs1 in enumerate(lhss):
        hits = p.matcher.redexes(lhs1)  # by position, then rule id
        hits.remove((0, r1))  # lhs1 itself
        hits.sort(key=lambda hit: (hit[0], lengths[hit[1]]))  # stable: ids stay ascending
        for pos, r2 in hits:
            out.append(Ambiguity(INCLUSION, r1, r2, witness=lhs1, offset1=0, offset2=pos))
    return out


@dataclass
class OrderAuditReport:
    alphabet: tuple[str, ...]
    max_len: int
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_order(order: ReductionOrder, alphabet: tuple[str, ...], max_len: int) -> OrderAuditReport:
    """Exhaustively check the order axioms on all words up to max_len.

    Checks: empty word minimal; distinct words never compare Equal; and
    for every pair s1 < s2 and every letter x, x*s1 < x*s2 and
    s1*x < s2*x.  Exponential in max_len; callers keep it small.

    The words are sorted once.  For each letter and side, the keys of the
    extended words form a column down the sorted list, and the column
    holds for every pair i < j exactly when it holds for every adjacent
    pair, because ``<`` is transitive: the keys must be totally ordered by
    ``<``, as tuples of ints are.  Only the columns that fail are walked
    pair by pair, which lists the violations in (s1, s2, x, side) order.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    report = OrderAuditReport(alphabet=tuple(alphabet), max_len=max_len)
    words: list[Word] = [()]
    for n in range(1, max_len + 1):
        words.extend(itertools.product(alphabet, repeat=n))

    keys = {w: order.sort_key(w) for w in words}

    empty_key = keys[()]
    for w in words:
        if w:
            report.checks += 1
            if not empty_key < keys[w]:
                report.violations.append(("minimality", w))

    ranked = sorted(words, key=keys.__getitem__)
    for a, b in zip(ranked, ranked[1:]):
        report.checks += 1
        if keys[a] == keys[b]:
            report.violations.append(("totality", a, b))

    n = len(ranked)
    report.checks += len(alphabet) * n * (n - 1)
    if n < 2:  # no pairs, so no extended word is keyed
        return report

    def key_of(w: Word):
        k = keys.get(w)
        return order.sort_key(w) if k is None else k

    broken = []
    for x in alphabet:
        left = [key_of((x,) + s) for s in ranked]
        right = [key_of(s + (x,)) for s in ranked]
        for side, column in (("left", left), ("right", right)):
            if not all(map(operator.lt, column, column[1:])):
                broken.append((side, x, column))

    if broken:
        for i, j in itertools.combinations(range(n), 2):
            for side, x, column in broken:
                if not column[i] < column[j]:
                    report.violations.append((side, x, ranked[i], ranked[j]))
    return report


def audit_orientation(p: Presentation) -> list[int]:
    """Ids of rules whose lhs is not strictly above their rhs."""
    bad = []
    for rid, (lhs, rhs, _) in enumerate(p.rules):
        if rhs is not None and not p.order.greater(lhs, rhs):
            bad.append(rid)
    return bad
