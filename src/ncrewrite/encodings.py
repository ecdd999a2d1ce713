"""Compiling a Turing machine into the two algebra presentations.

The nilpotency system encodes a configuration as R U Q_i P_j V R and a
machine step as multiplication by t on the left (the t re-emerges on the
right).  The zero-divisor system uses L U Q_i P_j V R and turns each
consumed t into an s that drifts out to the right past R.

Each system is a table of rule schemata, one row per schema of the paper:
its tag, the machine pairs it ranges over (none, the left-moving pairs,
the right-moving pairs or the halt pairs), its free color variables and a
function that builds one instance.  ``_compile`` is the only code that
reads the tables.  It fixes the order of the rules (schema, then machine
pair ascending, then free colors ascending with the last fastest), so rule
ids are stable, and the tags (``tt4[i=0,j=2,l=1,k=0,n=3]``).

The construction table ``_CONSTRUCTIONS`` holds one row per construction:
its schemata, its order factory, the letter at the left edge of a
configuration word (R or L) and the letter a machine step leaves at the
right end (t or s).  Every reader takes its fact from a row, and
``_construction`` is the one place an unknown construction is refused.
"""

from __future__ import annotations

import sys
from itertools import product
from typing import Callable, NamedTuple

from .orders import NILPOTENCY, ZERO_DIVISOR, ReductionOrder, nilpotency_order, zerodivisor_order
from .rewrite import Presentation, Rule
from .turing import STOP, TMConfig, TMSpec
from .words import EPS, Word, cell, color_mark, state_mark, word_to_str

_EPS_TOKENS, _ZERO_TOKENS = ["eps"], ["0"]  # the whole of a rule side: the empty word, zero

# Rows (tag, pairs, free color names, instance), made for the letter tables
# of one machine: a[k], Q[i] and P[j] are the letters a<k>, Q<i> and P<j>, so
# an instance indexes a tuple where a letter constructor would be a call.
# ``instance`` gets the pair's values, then one color per free variable:
# (i, j, q, p, ...) for a move from state i on color j to state q writing
# color p, (i, j, ...) for a halt pair, the colors alone for a schema without
# a pair.  It returns (lhs, rhs), with rhs None for a rule to zero.
def _nilpotency_schemata(a: Word, Q: Word, P: Word) -> tuple:
    return (
        ("tt1", "none", "l", lambda l: (("t", "R", a[l]), ("R", "t", a[l]))),
        ("tt1b", "none", "l", lambda l: (("t", a[l], "R"), (a[l], "R", "t"))),
        ("tt2", "none", "kj", lambda k, j: (("t", a[k], a[j]), (a[k], "t", a[j]))),
        ("tt3", "left", "k", lambda i, j, q, p, k: (("t", a[k], Q[i], P[j]), (Q[q], P[k], "t", a[p]))),
        ("tt5", "left", "", lambda i, j, q, p: (("t", "R", Q[i], P[j]), ("R", Q[q], P[0], "t", a[p]))),
        ("tt4", "right", "lkn", lambda i, j, q, p, l, k, n: (
            ("t", a[l], Q[i], P[j], a[k], a[n]), (a[l], a[p], Q[q], P[k], "t", a[n]))),
        ("tt4r", "right", "lk", lambda i, j, q, p, l, k: (
            ("t", a[l], Q[i], P[j], a[k], "R"), (a[l], a[p], Q[q], P[k], "R", "t"))),
        ("tt4b", "right", "kn", lambda i, j, q, p, k, n: (
            ("t", "R", Q[i], P[j], a[k], a[n]), ("R", a[p], Q[q], P[k], "t", a[n]))),
        ("tt4ar", "right", "k", lambda i, j, q, p, k: (
            ("t", "R", Q[i], P[j], a[k], "R"), ("R", a[p], Q[q], P[k], "R", "t"))),
        ("tt6", "right", "l", lambda i, j, q, p, l: (
            ("t", a[l], Q[i], P[j], "R"), (a[l], a[p], Q[q], P[0], "R", "t"))),
        ("tt6b", "right", "", lambda i, j, q, p: (("t", "R", Q[i], P[j], "R"), ("R", a[p], Q[q], P[0], "R", "t"))),
        ("tt7", "stop", "", lambda i, j: ((Q[i], P[j]), None)),
    )


def _zerodivisor_schemata(a: Word, Q: Word, P: Word) -> tuple:
    return (
        ("td1", "none", "k", lambda k: (("t", "L", a[k]), ("L", "t", a[k]))),
        ("td2", "none", "kl", lambda k, l: (("t", a[k], a[l]), (a[k], "t", a[l]))),
        ("td9", "none", "", lambda: (("s", "R"), ("R", "s"))),
        ("td8", "none", "k", lambda k: (("s", a[k]), (a[k], "s"))),
        ("td3", "left", "k", lambda i, j, q, p, k: (("t", a[k], Q[i], P[j]), (Q[q], P[k], a[p], "s"))),
        ("td5", "left", "", lambda i, j, q, p: (("t", "L", Q[i], P[j]), ("L", Q[q], P[0], a[p], "s"))),
        ("td4", "right", "lk", lambda i, j, q, p, l, k: (
            ("t", a[l], Q[i], P[j], a[k]), (a[l], a[p], Q[q], P[k], "s"))),
        ("td4b", "right", "k", lambda i, j, q, p, k: (("t", "L", Q[i], P[j], a[k]), ("L", a[p], Q[q], P[k], "s"))),
        ("td6", "right", "l", lambda i, j, q, p, l: (
            ("t", a[l], Q[i], P[j], "R"), (a[l], a[p], Q[q], P[0], "R", "s"))),
        ("td6b", "right", "", lambda i, j, q, p: (("t", "L", Q[i], P[j], "R"), ("L", a[p], Q[q], P[0], "R", "s"))),
        ("td7", "stop", "", lambda i, j: ((Q[i], P[j]), None)),
    )


class _Construction(NamedTuple):
    schemata: Callable[..., tuple]
    order: Callable[[int, int], ReductionOrder]  # (states, colors) -> the order
    edge: str  # left edge of a configuration word
    step: str  # the letter one machine step leaves at the right end


_CONSTRUCTIONS = {
    NILPOTENCY: _Construction(_nilpotency_schemata, nilpotency_order, "R", "t"),
    ZERO_DIVISOR: _Construction(_zerodivisor_schemata, zerodivisor_order, "L", "s"),
}


def _construction(name: str) -> _Construction:
    try:
        return _CONSTRUCTIONS[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key, such as a list
        raise ValueError(f"unknown construction {name!r}") from None


def _compile(spec: TMSpec, construction: str) -> Presentation:
    schemata, order, _, _ = _construction(construction)
    colors, states = range(spec.colors), range(spec.states)
    table = schemata(tuple(map(cell, colors)), tuple(map(state_mark, states)), tuple(map(color_mark, colors)))
    pairs: dict[str, list[tuple[int, ...]]] = {"none": [()], "left": [], "right": [], "stop": []}
    for (i, j), move in sorted(spec.table.items()):
        if move is STOP:
            pairs["stop"].append((i, j))
        else:
            pairs["left" if move.direction == "L" else "right"].append((i, j, move.state, move.color))
    rules: list[Rule] = []
    add = rules.append
    for tag, kind, free, instance in table:
        colorings = list(product(colors, repeat=len(free)))
        # tag[i=..,j=..,<colors>]; a schema with neither keeps its bare tag
        labels = [",".join(f"{v}={k}" for v, k in zip(free, c)) + "]" for c in colorings] if free else [""]
        for pair in pairs[kind]:
            if pair:
                head = f"{tag}[i={pair[0]},j={pair[1]}" + ("," if free else "]")
            else:
                head = f"{tag}[" if free else tag
            for coloring, label in zip(colorings, labels):
                lhs, rhs = instance(*pair, *coloring)
                add(Rule(lhs, rhs, head + label))
    return Presentation(rules=tuple(rules), order=order(spec.states, spec.colors))


def nilpotency_presentation(spec: TMSpec) -> Presentation:
    return _compile(spec, NILPOTENCY)


def zerodivisor_presentation(spec: TMSpec) -> Presentation:
    return _compile(spec, ZERO_DIVISOR)


def make_presentation(spec: TMSpec, construction: str) -> Presentation:
    _construction(construction)  # refuse an unknown name before choosing a compiler
    # the compilers are called by name, so a wrapper that replaces one in this
    # module (as bench/tracing.py does) is the one that runs
    return nilpotency_presentation(spec) if construction == NILPOTENCY else zerodivisor_presentation(spec)


def encode_config(c: TMConfig, construction: str) -> Word:
    """Configuration word: edge marker, left tape, Q_i P_j, right tape, R."""
    return (
        _construction(construction).edge,
        *map(cell, c.left),
        state_mark(c.state),
        color_mark(c.current),
        *map(cell, c.right),
        "R",
    )


def format_presentation(p: Presentation) -> str:
    lines = [
        f"alphabet: {' '.join(p.alphabet)}",
        f"order: {p.order.kind}",
    ]
    for rid, (lhs, rhs, tag) in enumerate(p.rules):
        if tag != tag.strip() or len(tag.splitlines()) > 1:  # it would not read back as it is
            raise ValueError(f"rule {rid}: tag {tag!r} is not one line without surrounding whitespace")
        comment = f"  # {tag}" if tag else ""
        lines.append(f"rule: {word_to_str(lhs)} -> {'0' if rhs is None else word_to_str(rhs)}{comment}")
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    header: dict[str, str] = {}
    rules: list[Rule] = []
    add = rules.append
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("rule:"):
            body, _, comment = raw.split(":", 1)[1].partition("#")
            lhs_text, _, rhs_text = body.partition("->")
            lhs_tokens, rhs_tokens = lhs_text.split(), rhs_text.split()
            if not rhs_tokens:  # no arrow, or nothing after it
                raise ValueError(f"bad rule line: {raw!r}")
            lhs = EPS if lhs_tokens == _EPS_TOKENS else tuple(map(sys.intern, lhs_tokens))
            rhs = (None if rhs_tokens == _ZERO_TOKENS else EPS if rhs_tokens == _EPS_TOKENS
                   else tuple(map(sys.intern, rhs_tokens)))
            add(Rule(lhs, rhs, comment.strip()))
        elif not line or line.startswith("#"):
            continue
        elif line.startswith(("alphabet:", "order:")):
            key, _, value = line.partition(":")
            if key in header:
                raise ValueError(f"bad line: {raw!r} (second {key} header)")
            header[key] = value
        else:
            raise ValueError(f"bad line: {raw!r}")
    alphabet = tuple(map(sys.intern, header.get("alphabet", "").split()))
    kind = header.get("order", "").strip()
    if not alphabet or not kind:
        raise ValueError("missing alphabet/order header")
    # the order refuses its kind, a repeated letter or a token that is not a
    # letter; the presentation an empty lhs or a rule letter outside the alphabet
    return Presentation(rules=tuple(rules), order=ReductionOrder(kind, alphabet))
