"""Compiling a Turing machine into the two algebra presentations.

The nilpotency system encodes a configuration as R U Q_i P_j V R and a
machine step as multiplication by t on the left (the t re-emerges on the
right).  The zero-divisor system uses L U Q_i P_j V R and turns each
consumed t into an s that drifts out to the right past R.

Rule schemata are instantiated in a fixed order (schema, then machine
pair, then free color indices ascending), so rule ids are stable.
"""

from __future__ import annotations

from typing import Optional

from .orders import NILPOTENCY, ZERO_DIVISOR, nilpotency_order, zerodivisor_order
from .rewrite import Presentation, Rule
from .turing import TMConfig, TMSpec
from .words import AlphabetError, Word, cell, color_mark, parse_word, phi_alphabet, psi_alphabet, state_mark, word_to_str


def nilpotency_presentation(spec: TMSpec) -> Presentation:
    colors = range(spec.colors)
    a, Q, P = cell, state_mark, color_mark
    rules: list[Rule] = []
    add = rules.append

    for l in colors:
        add(Rule(("t", "R", a(l)), ("R", "t", a(l)), f"tt1[l={l}]"))
    for l in colors:
        add(Rule(("t", a(l), "R"), (a(l), "R", "t"), f"tt1b[l={l}]"))
    for k in colors:
        for j in colors:
            add(Rule(("t", a(k), a(j)), (a(k), "t", a(j)), f"tt2[k={k},j={j}]"))
    for (i, j) in spec.left_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for k in colors:
            add(Rule(
                ("t", a(k), Q(i), P(j)),
                (Q(q), P(k), "t", a(p)),
                f"tt3[i={i},j={j},k={k}]",
            ))
    for (i, j) in spec.left_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        add(Rule(
            ("t", "R", Q(i), P(j)),
            ("R", Q(q), P(0), "t", a(p)),
            f"tt5[i={i},j={j}]",
        ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for l in colors:
            for k in colors:
                for n in colors:
                    add(Rule(
                        ("t", a(l), Q(i), P(j), a(k), a(n)),
                        (a(l), a(p), Q(q), P(k), "t", a(n)),
                        f"tt4[i={i},j={j},l={l},k={k},n={n}]",
                    ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for l in colors:
            for k in colors:
                add(Rule(
                    ("t", a(l), Q(i), P(j), a(k), "R"),
                    (a(l), a(p), Q(q), P(k), "R", "t"),
                    f"tt4r[i={i},j={j},l={l},k={k}]",
                ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for k in colors:
            for n in colors:
                add(Rule(
                    ("t", "R", Q(i), P(j), a(k), a(n)),
                    ("R", a(p), Q(q), P(k), "t", a(n)),
                    f"tt4b[i={i},j={j},k={k},n={n}]",
                ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for k in colors:
            add(Rule(
                ("t", "R", Q(i), P(j), a(k), "R"),
                ("R", a(p), Q(q), P(k), "R", "t"),
                f"tt4ar[i={i},j={j},k={k}]",
            ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for l in colors:
            add(Rule(
                ("t", a(l), Q(i), P(j), "R"),
                (a(l), a(p), Q(q), P(0), "R", "t"),
                f"tt6[i={i},j={j},l={l}]",
            ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        add(Rule(
            ("t", "R", Q(i), P(j), "R"),
            ("R", a(p), Q(q), P(0), "R", "t"),
            f"tt6b[i={i},j={j}]",
        ))
    for (i, j) in spec.stop_pairs():
        add(Rule((Q(i), P(j)), None, f"tt7[i={i},j={j}]"))

    return Presentation(
        alphabet=phi_alphabet(spec.states, spec.colors),
        rules=tuple(rules),
        order=nilpotency_order(spec.states, spec.colors),
        construction=NILPOTENCY,
    )


def zerodivisor_presentation(spec: TMSpec) -> Presentation:
    colors = range(spec.colors)
    a, Q, P = cell, state_mark, color_mark
    rules: list[Rule] = []
    add = rules.append

    for k in colors:
        add(Rule(("t", "L", a(k)), ("L", "t", a(k)), f"td1[k={k}]"))
    for k in colors:
        for l in colors:
            add(Rule(("t", a(k), a(l)), (a(k), "t", a(l)), f"td2[k={k},l={l}]"))
    add(Rule(("s", "R"), ("R", "s"), "td9"))
    for k in colors:
        add(Rule(("s", a(k)), (a(k), "s"), f"td8[k={k}]"))
    for (i, j) in spec.left_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for k in colors:
            add(Rule(
                ("t", a(k), Q(i), P(j)),
                (Q(q), P(k), a(p), "s"),
                f"td3[i={i},j={j},k={k}]",
            ))
    for (i, j) in spec.left_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        add(Rule(
            ("t", "L", Q(i), P(j)),
            ("L", Q(q), P(0), a(p), "s"),
            f"td5[i={i},j={j}]",
        ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for l in colors:
            for k in colors:
                add(Rule(
                    ("t", a(l), Q(i), P(j), a(k)),
                    (a(l), a(p), Q(q), P(k), "s"),
                    f"td4[i={i},j={j},l={l},k={k}]",
                ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for k in colors:
            add(Rule(
                ("t", "L", Q(i), P(j), a(k)),
                ("L", a(p), Q(q), P(k), "s"),
                f"td4b[i={i},j={j},k={k}]",
            ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        for l in colors:
            add(Rule(
                ("t", a(l), Q(i), P(j), "R"),
                (a(l), a(p), Q(q), P(0), "R", "s"),
                f"td6[i={i},j={j},l={l}]",
            ))
    for (i, j) in spec.right_pairs():
        q, p = spec.table[(i, j)].state, spec.table[(i, j)].color
        add(Rule(
            ("t", "L", Q(i), P(j), "R"),
            ("L", a(p), Q(q), P(0), "R", "s"),
            f"td6b[i={i},j={j}]",
        ))
    for (i, j) in spec.stop_pairs():
        add(Rule((Q(i), P(j)), None, f"td7[i={i},j={j}]"))

    return Presentation(
        alphabet=psi_alphabet(spec.states, spec.colors),
        rules=tuple(rules),
        order=zerodivisor_order(spec.states, spec.colors),
        construction=ZERO_DIVISOR,
    )


def make_presentation(spec: TMSpec, construction: str) -> Presentation:
    if construction == NILPOTENCY:
        return nilpotency_presentation(spec)
    if construction == ZERO_DIVISOR:
        return zerodivisor_presentation(spec)
    raise ValueError(f"unknown construction {construction!r}")


def encode_config(c: TMConfig, construction: str) -> Word:
    """Configuration word: edge marker, left tape, Q_i P_j, right tape, R."""
    edge = "R" if construction == NILPOTENCY else "L"
    return (
        edge,
        *(cell(k) for k in c.left),
        state_mark(c.state),
        color_mark(c.current),
        *(cell(k) for k in c.right),
        "R",
    )


def decode_structure(w: Word, construction: str) -> Optional[TMConfig]:
    """Configuration encoded by w after deleting all t and s letters.

    Returns None when the t/s-free residue is not a well-formed
    configuration word.
    """
    core = tuple(x for x in w if x not in ("t", "s"))
    edge = "R" if construction == NILPOTENCY else "L"
    if len(core) < 4 or core[0] != edge or core[-1] != "R":
        return None
    body = core[1:-1]
    q_positions = [i for i, x in enumerate(body) if x.startswith("Q")]
    if len(q_positions) != 1:
        return None
    qpos = q_positions[0]
    if qpos + 1 >= len(body) or not body[qpos + 1].startswith("P"):
        return None
    left = body[:qpos]
    right = body[qpos + 2:]
    if any(not x.startswith("a") for x in left + right):
        return None
    return TMConfig(
        left=tuple(int(x[1:]) for x in left),
        state=int(body[qpos][1:]),
        current=int(body[qpos + 1][1:]),
        right=tuple(int(x[1:]) for x in right),
    )


def format_presentation(p: Presentation) -> str:
    lines = [
        f"alphabet: {' '.join(p.alphabet)}",
        f"order: {p.order.kind}",
    ]
    for r in p.rules:
        rhs = "0" if r.rhs is None else word_to_str(r.rhs)
        comment = f"  # {r.tag}" if r.tag else ""
        lines.append(f"rule: {word_to_str(r.lhs)} -> {rhs}{comment}")
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    from .orders import ReductionOrder

    alphabet: tuple[str, ...] = ()
    kind = ""
    rule_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("alphabet:"):
            alphabet = parse_word(line.split(":", 1)[1])
        elif line.startswith("order:"):
            kind = line.split(":", 1)[1].strip()
        elif line.startswith("rule:"):
            rule_lines.append(raw)
        else:
            raise ValueError(f"bad line: {raw!r}")
    if not alphabet or not kind:
        raise ValueError("missing alphabet/order header")
    letters = frozenset(alphabet)
    rules: list[Rule] = []
    for raw in rule_lines:
        body = raw.split(":", 1)[1]
        body, _, comment = body.partition("#")
        tag = comment.strip()
        lhs_text, arrow, rhs_text = body.partition("->")
        if not arrow:
            raise ValueError(f"bad rule line: {raw!r}")
        try:
            lhs = parse_word(lhs_text, letters)
            rhs_text = rhs_text.strip()
            rhs = None if rhs_text == "0" else parse_word(rhs_text, letters)
        except AlphabetError as exc:
            raise AlphabetError(f"{exc} in rule line: {raw.strip()!r}") from None
        rules.append(Rule(lhs, rhs, tag))
    order = ReductionOrder(kind, alphabet)
    construction = kind if kind in (NILPOTENCY, ZERO_DIVISOR) else "custom"
    return Presentation(alphabet=alphabet, rules=tuple(rules), order=order, construction=construction)
