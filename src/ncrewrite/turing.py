"""Turing machine semantics with the two-sided finite tape representation.

A configuration keeps the colored tape as two finite sequences flanking
the current cell; moving off either end pads with color 0.  Includes the
Minsky 7-state 4-color universal machine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index
from typing import Optional


@dataclass(frozen=True)
class Move:
    direction: str  # "L" or "R"
    state: int
    color: int


STOP = None  # table entry for a halt pair


@dataclass(frozen=True)
class TMSpec:
    states: int
    colors: int
    table: dict  # (state, color) -> Move or STOP

    def __post_init__(self):
        _check_integer(self.states, "states")
        _check_integer(self.colors, "colors")
        if self.states < 1 or self.colors < 1:
            raise ValueError(f"need at least one state and one color, got {self.states} and {self.colors}")
        # keys and moves first, so a key that is not an integer is named, not reported missing
        for key, entry in self.table.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"table key {key!r} is not a (state, color) pair")
            i, j = key
            _check_integer(i, "table key state")
            _check_integer(j, "table key color")
            if not (0 <= i < self.states and 0 <= j < self.colors):
                raise ValueError(f"table key ({i}, {j}) out of range")
            if entry is not STOP:
                if not isinstance(entry, Move):
                    raise ValueError(f"table entry {entry!r} for ({i}, {j}) is neither a Move nor STOP")
                if entry.direction not in ("L", "R"):
                    raise ValueError(f"bad direction {entry.direction!r}")
                _check_integer(entry.state, f"move state in entry ({i}, {j}):")
                _check_integer(entry.color, f"move color in entry ({i}, {j}):")
                if not (0 <= entry.state < self.states and 0 <= entry.color < self.colors):
                    raise ValueError(f"bad move target in entry ({i}, {j})")
        for i in range(self.states):
            for j in range(self.colors):
                if (i, j) not in self.table:
                    raise ValueError(f"table missing entry for ({i}, {j})")


@dataclass(frozen=True)
class TMConfig:
    """Full machine state: left tape, state, current cell color, right tape.

    ``left`` is ordered leftmost-to-adjacent, ``right`` adjacent-to-rightmost.
    """

    left: tuple[int, ...]
    state: int
    current: int
    right: tuple[int, ...]

    def validate(self, spec: TMSpec) -> None:
        _check_integer(self.state, "state")
        _check_integer(self.current, "color")
        if not (0 <= self.state < spec.states and 0 <= self.current < spec.colors):
            raise ValueError("state or color out of range")
        # bytes() takes only integers, and only 0-255 (a set check would keep
        # just one of 1 and 1.0); deleting the valid colors leaves nothing of a
        # valid tape.  The walk below only names the first bad color.
        try:
            if not (bytes(self.left) + bytes(self.right)).translate(None, bytes(range(spec.colors))):
                return
        except (TypeError, ValueError):
            pass
        for k in self.left + self.right:
            _check_integer(k, "tape color")
            if not 0 <= k < spec.colors:
                raise ValueError(f"tape color {k} out of range")


def _check_integer(value, what: str) -> None:
    """An integer is whatever Python can use as an index (``operator.index``)."""
    try:
        index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class RunResult:
    halted: bool
    steps: int
    config: TMConfig


def minsky_utm() -> TMSpec:
    """Minsky's 7-state, 4-color universal machine (28 instructions)."""
    rows = [
        # (state, color, direction, new state, new color); None = stop
        (0, 0, "L", 4, 1), (0, 1, "L", 1, 3), (0, 2, "R", 0, 0), (0, 3, "R", 0, 1),
        (1, 0, "L", 1, 2), (1, 1, "L", 1, 3), (1, 2, "R", 0, 0), (1, 3, "L", 1, 3),
        (2, 0, "R", 2, 2), (2, 1, "R", 2, 1), (2, 2, "R", 2, 0), (2, 3, "L", 4, 1),
        (3, 0, "R", 3, 2), (3, 1, "R", 3, 1), (3, 2, "R", 3, 0), (3, 3, "L", 4, 0),
        (4, 0, "L", 5, 2), (4, 1, "L", 4, 1), (4, 2, "L", 4, 0),
        (5, 0, "L", 5, 2), (5, 1, "L", 5, 1), (5, 2, "L", 6, 2), (5, 3, "R", 2, 1),
        (6, 0, "R", 0, 3), (6, 1, "R", 6, 3), (6, 2, "R", 6, 2), (6, 3, "R", 3, 1),
    ]
    table: dict = {(i, j): Move(d, q, p) for i, j, d, q, p in rows}
    table[(4, 3)] = STOP
    return TMSpec(states=7, colors=4, table=table)


def tm_step(spec: TMSpec, c: TMConfig) -> Optional[TMConfig]:
    """One machine step; None when the current (state, color) pair halts."""
    entry = spec.table[(c.state, c.current)]
    if entry is STOP:
        return None
    q, p = entry.state, entry.color
    if entry.direction == "L":
        return TMConfig(c.left[:-1], q, c.left[-1] if c.left else 0, (p,) + c.right)
    return TMConfig(c.left + (p,), q, c.right[0] if c.right else 0, c.right[1:])


def tm_run(spec: TMSpec, c: TMConfig, budget: int) -> RunResult:
    """Iterate tm_step up to budget steps.

    The loop keeps the tape as two lists with the nearest cell last, so a
    step costs the same on any tape, stops at a halt pair or after
    ``budget`` steps, and builds one configuration at the end.  That
    configuration is then asked once, by ``tm_step``, whether it halts, so
    a run that reaches a halt pair exactly at the budget reports halted.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    c.validate(spec)
    table = spec.table
    left, right = list(c.left), list(reversed(c.right))  # nearest cell last
    q, j = c.state, c.current
    steps = budget
    for k in range(budget):
        entry = table[q, j]
        if entry is STOP:
            steps = k
            break
        if entry.direction == "L":
            right.append(entry.color)
            j = left.pop() if left else 0
        else:
            left.append(entry.color)
            j = right.pop() if right else 0
        q = entry.state
    c = TMConfig(tuple(left), q, j, tuple(reversed(right)))
    return RunResult(tm_step(spec, c) is None, steps, c)


# one spelling per integer: ASCII digits, no leading zero, no "+" or "_"; the
# minus sign is read, so a negative count or color is refused by its range check
_INTEGER_RE = re.compile(r"0|-?[1-9][0-9]*")


def _integer(token: str, raw: str) -> int:
    """The integer that token spells; raw is its line, named when refused."""
    if not _INTEGER_RE.fullmatch(token):
        raise ValueError(f"bad line: {raw!r} (not an integer: {token!r})")
    return int(token)


def format_tm_spec(spec: TMSpec) -> str:
    lines = [f"states {spec.states}", f"colors {spec.colors}"]
    for (i, j), entry in sorted(spec.table.items()):
        if entry is STOP:
            lines.append(f"rule {i} {j} -> STOP")
        else:
            lines.append(f"rule {i} {j} -> {entry.direction} {entry.state} {entry.color}")
    return "\n".join(lines) + "\n"


def parse_tm_spec(text: str) -> TMSpec:
    header: dict[str, int] = {}
    table: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("states", "colors") and len(parts) == 2:
            if parts[0] in header:
                raise ValueError(f"bad line: {raw!r} (second {parts[0]} header)")
            header[parts[0]] = _integer(parts[1], raw)
        elif parts[0] == "rule" and (parts[3:] == ["->", "STOP"] or len(parts) == 7 and parts[3] == "->"):
            pair = (_integer(parts[1], raw), _integer(parts[2], raw))
            if pair in table:
                raise ValueError(f"bad line: {raw!r} (second rule for {pair})")
            table[pair] = Move(parts[4], _integer(parts[5], raw), _integer(parts[6], raw)) if len(parts) == 7 else STOP
        else:
            raise ValueError(f"bad line: {raw!r}")
    if "states" not in header or "colors" not in header:
        raise ValueError("missing states/colors header")
    return TMSpec(states=header["states"], colors=header["colors"], table=table)


def format_config(c: TMConfig) -> str:
    return (
        f"left: {' '.join(map(str, c.left))}\n"
        f"state: {c.state}\n"
        f"cell: {c.current}\n"
        f"right: {' '.join(map(str, c.right))}\n"
    )


_CONFIG_FIELDS = ("left", "state", "cell", "right")  # in the order of TMConfig's fields
_TAPES = ("left", "right")


def parse_config(text: str) -> TMConfig:
    fields: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"bad line: {raw!r} (unknown config field {key!r})")
        if not colon:
            raise ValueError(f"bad line: {raw!r} (no ':' after {key!r})")
        if key in fields:
            raise ValueError(f"bad line: {raw!r} (second {key!r} field)")
        # a tape is a list of colors, the state and the cell one integer each
        fields[key] = tuple(_integer(x, raw) for x in value.split()) if key in _TAPES else _integer(value.strip(), raw)
    for key in _CONFIG_FIELDS:
        if key not in fields:
            raise ValueError(f"missing config field {key!r}")
    return TMConfig(*map(fields.__getitem__, _CONFIG_FIELDS))
