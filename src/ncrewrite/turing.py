"""Turing machine semantics with the two-sided finite tape representation.

A configuration keeps the colored tape as two finite sequences flanking
the current cell; moving off either end pads with color 0.  Includes the
Minsky 7-state 4-color universal machine.
"""

from __future__ import annotations

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
        if self.states < 1 or self.colors < 1:
            raise ValueError(f"need at least one state and one color, got {self.states} and {self.colors}")
        for i in range(self.states):
            for j in range(self.colors):
                if (i, j) not in self.table:
                    raise ValueError(f"table missing entry for ({i}, {j})")
        for (i, j), entry in self.table.items():
            if not (0 <= i < self.states and 0 <= j < self.colors):
                raise ValueError(f"table key ({i}, {j}) out of range")
            if entry is not STOP:
                if entry.direction not in ("L", "R"):
                    raise ValueError(f"bad direction {entry.direction!r}")
                if not (0 <= entry.state < self.states and 0 <= entry.color < self.colors):
                    raise ValueError(f"bad move target in entry ({i}, {j})")

    def left_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, e in self.table.items() if e is not STOP and e.direction == "L")

    def right_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, e in self.table.items() if e is not STOP and e.direction == "R")

    def stop_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, e in self.table.items() if e is STOP)


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
    if entry.direction == "L":
        if c.left:
            return TMConfig(c.left[:-1], entry.state, c.left[-1], (entry.color,) + c.right)
        return TMConfig((), entry.state, 0, (entry.color,) + c.right)
    if c.right:
        return TMConfig(c.left + (entry.color,), entry.state, c.right[0], c.right[1:])
    return TMConfig(c.left + (entry.color,), entry.state, 0, ())


def tm_run(spec: TMSpec, c: TMConfig, budget: int) -> RunResult:
    """Iterate tm_step up to budget steps."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    c.validate(spec)
    for k in range(budget + 1):
        nxt = tm_step(spec, c)
        if nxt is None:
            return RunResult(True, k, c)
        if k == budget:
            break
        c = nxt
    return RunResult(False, budget, c)


def format_tm_spec(spec: TMSpec) -> str:
    lines = [f"states {spec.states}", f"colors {spec.colors}"]
    for (i, j) in sorted(spec.table):
        entry = spec.table[(i, j)]
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
            header[parts[0]] = int(parts[1])
        elif parts[0] == "rule" and (parts[3:] == ["->", "STOP"] or len(parts) == 7 and parts[3] == "->"):
            pair = (int(parts[1]), int(parts[2]))
            if pair in table:
                raise ValueError(f"bad line: {raw!r} (second rule for {pair})")
            table[pair] = Move(parts[4], int(parts[5]), int(parts[6])) if len(parts) == 7 else STOP
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


_CONFIG_FIELDS = ("left", "state", "cell", "right")


def parse_config(text: str) -> TMConfig:
    fields: dict[str, str] = {}
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
        fields[key] = value.strip()
    for key in _CONFIG_FIELDS:
        if key not in fields:
            raise ValueError(f"missing config field {key!r}")
    return TMConfig(
        left=tuple(int(x) for x in fields["left"].split()),
        state=int(fields["state"]),
        current=int(fields["cell"]),
        right=tuple(int(x) for x in fields["right"].split()),
    )
