from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrewrite import (
    Move,
    RunResult,
    TMConfig,
    TMSpec,
    format_config,
    format_tm_spec,
    minsky_utm,
    parse_config,
    parse_tm_spec,
    tm_run,
    tm_step,
)
from ncrewrite.turing import STOP


class TestMinskyTable:
    def test_entry_counts(self, minsky):
        assert minsky.states == 7 and minsky.colors == 4
        assert len(minsky.table) == 28
        moves = [e.direction for e in minsky.table.values() if e is not STOP]
        assert (moves.count("L"), moves.count("R")) == (13, 14)
        assert [k for k, e in minsky.table.items() if e is STOP] == [(4, 3)]

    @pytest.mark.parametrize("pair,expected", [
        ((0, 0), Move("L", 4, 1)),
        ((6, 3), Move("R", 3, 1)),
        ((2, 3), Move("L", 4, 1)),
        ((5, 3), Move("R", 2, 1)),
    ])
    def test_entries(self, minsky, pair, expected):
        assert minsky.table[pair] == expected

    def test_stop_entry(self, minsky):
        assert minsky.table[(4, 3)] is STOP


class TestTmStep:
    def test_left_move_nonempty(self, minsky):
        c = TMConfig((3,), 2, 3, ())
        assert tm_step(minsky, c) == TMConfig((), 4, 3, (1,))

    def test_stop(self, minsky):
        assert tm_step(minsky, TMConfig((), 4, 3, ())) is None

    def test_right_move_empty_tape(self, minsky):
        # (0,2) -> (R,0,0); fresh cell reads color 0
        c = TMConfig((), 0, 2, ())
        assert tm_step(minsky, c) == TMConfig((0,), 0, 0, ())

    def test_right_move_nonempty_tape(self, minsky):
        # (2,0) -> (R,2,2); the next cell comes off the right tape
        c = TMConfig((1,), 2, 0, (1, 2))
        assert tm_step(minsky, c) == TMConfig((1, 2), 2, 1, (2,))

    def test_left_move_empty_tape(self, minsky):
        # (0,0) -> (L,4,1)
        c = TMConfig((), 0, 0, ())
        assert tm_step(minsky, c) == TMConfig((), 4, 0, (1,))

    def test_deterministic(self, minsky):
        c = TMConfig((1, 2), 3, 1, (0,))
        assert tm_step(minsky, c) == tm_step(minsky, c)

    def test_tape_never_shrinks(self, minsky):
        c = TMConfig((), 2, 0, ())
        for _ in range(30):
            nxt = tm_step(minsky, c)
            if nxt is None:
                break
            before = len(c.left) + len(c.right) + 1
            after = len(nxt.left) + len(nxt.right) + 1
            assert before <= after <= before + 1
            c = nxt


class TestTmRun:
    def test_immediate_stop(self, minsky):
        result = tm_run(minsky, TMConfig((), 4, 3, ()), 10)
        assert result.halted and result.steps == 0

    def test_one_step_halt(self, minsky):
        result = tm_run(minsky, TMConfig((3,), 2, 3, ()), 10)
        assert result.halted and result.steps == 1

    def test_still_running(self, minsky):
        result = tm_run(minsky, TMConfig((), 2, 0, ()), 3)
        assert not result.halted and result.steps == 3

    def test_halts_exactly_at_the_budget(self, minsky):
        # one step to the halt pair (4,3), with a budget of one step
        assert tm_run(minsky, TMConfig((3,), 2, 3, ()), 1) == RunResult(True, 1, TMConfig((), 4, 3, (1,)))

    def test_zero_budget(self, minsky):
        halt, running = TMConfig((), 4, 3, ()), TMConfig((), 2, 0, ())
        assert tm_run(minsky, halt, 0) == RunResult(True, 0, halt)
        assert tm_run(minsky, running, 0) == RunResult(False, 0, running)

    def test_trace(self, minsky):
        # the run tm_run summarizes, step by step with tm_step
        c0 = TMConfig((3,), 2, 3, ())
        trace = [c0]
        while (nxt := tm_step(minsky, trace[-1])) is not None:
            trace.append(nxt)
        assert len(trace) == 2
        result = tm_run(minsky, c0, 10)
        assert result.halted and result.steps == len(trace) - 1
        assert result.config == trace[-1]

    def test_negative_budget_rejected(self, minsky):
        with pytest.raises(ValueError, match="budget"):
            tm_run(minsky, TMConfig((), 0, 0, ()), -1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_iterated_tm_step(self, data):
        # random machines, configurations and budgets against tm_step, one step at a time
        states, colors = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        entry = st.one_of(st.just(STOP), st.builds(
            Move, st.sampled_from("LR"), st.integers(0, states - 1), st.integers(0, colors - 1)))
        spec = TMSpec(states, colors, {(i, j): data.draw(entry) for i in range(states) for j in range(colors)})
        tape = st.lists(st.integers(0, colors - 1), max_size=6).map(tuple)
        c = TMConfig(data.draw(tape), data.draw(st.integers(0, states - 1)),
                     data.draw(st.integers(0, colors - 1)), data.draw(tape))
        limit = data.draw(st.integers(0, 40))
        trace = [c]
        while len(trace) <= limit and (nxt := tm_step(spec, trace[-1])) is not None:
            trace.append(nxt)
        halt_at = len(trace) - 1 if len(trace) <= limit else None  # steps to a halt pair
        budgets = {limit, data.draw(st.integers(0, limit))}
        if halt_at is not None:
            budgets |= {halt_at, max(halt_at - 1, 0)}  # exactly at the budget, and one short of it
        for budget in budgets:
            k = min(budget, len(trace) - 1)
            assert tm_run(spec, c, budget) == RunResult(tm_step(spec, trace[k]) is None, k, trace[k])


class TestValidation:
    def test_table_must_be_total(self):
        with pytest.raises(ValueError):
            TMSpec(states=1, colors=2, table={(0, 0): STOP})

    def test_move_targets_in_range(self):
        with pytest.raises(ValueError):
            TMSpec(states=1, colors=1, table={(0, 0): Move("L", 5, 0)})

    @pytest.mark.parametrize("entry,message", [
        ({(1, 0): STOP}, "table key (1, 0) out of range"),
        ({(0, -1): Move("L", 0, 0)}, "table key (0, -1) out of range"),
        ({(0, 0): Move("U", 0, 0)}, "bad direction 'U'"),
    ])
    def test_table_entry_errors(self, entry, message):
        with pytest.raises(ValueError) as exc:
            TMSpec(states=1, colors=1, table={(0, 0): STOP, **entry})
        assert str(exc.value) == message

    @pytest.mark.parametrize("states,colors,table,named", [
        (2.5, 1, {}, "states 2.5"),
        ("2", 1, {}, "states '2'"),
        (1, 1.0, {(0, 0): STOP}, "colors 1.0"),
        (2, 1, {(0, 0): STOP, ("1", 0): STOP}, "table key state '1'"),
        (1, 2, {(0, 0): STOP, (0, 1.0): STOP}, "table key color 1.0"),
        (2, 1, {(0, 0): Move("R", 1.0, 0), (1, 0): STOP}, "move state in entry (0, 0): 1.0"),
        (1, 2, {(0, 0): Move("R", 0, Fraction(1)), (0, 1): STOP}, "move color in entry (0, 0): Fraction(1, 1)"),
    ])
    def test_numbers_must_be_integers(self, states, colors, table, named):
        # a float target used to be accepted and run, and a float or str count died in range or <
        with pytest.raises(ValueError) as exc:
            TMSpec(states=states, colors=colors, table=table)
        assert str(exc.value) == f"{named} is not an integer"

    @pytest.mark.parametrize("table,message", [
        ({(0, 0): ("L", 0, 0)}, "table entry ('L', 0, 0) for (0, 0) is neither a Move nor STOP"),
        ({(0, 0): "STOP"}, "table entry 'STOP' for (0, 0) is neither a Move nor STOP"),
        ({0: STOP}, "table key 0 is not a (state, color) pair"),
        ({(0, 0, 0): STOP}, "table key (0, 0, 0) is not a (state, color) pair"),
        ({"00": STOP}, "table key '00' is not a (state, color) pair"),  # a string is not a pair
    ])
    def test_malformed_table(self, table, message):
        # each used to escape as an AttributeError, a TypeError or an unpacking error
        with pytest.raises(ValueError) as exc:
            TMSpec(states=1, colors=1, table=table)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    @pytest.mark.parametrize("states,colors", [(-1, 1), (0, 0), (1, 0), (0, 1)])
    def test_needs_a_state_and_a_color(self, states, colors):
        with pytest.raises(ValueError, match="at least one state and one color"):
            TMSpec(states=states, colors=colors, table={})
        with pytest.raises(ValueError, match="at least one state and one color"):
            parse_tm_spec(f"states {states}\ncolors {colors}\n")

    def test_config_validate(self, minsky):
        with pytest.raises(ValueError):
            TMConfig((9,), 0, 0, ()).validate(minsky)

    @pytest.mark.parametrize("left,right,bad", [
        ((0, 9, 1), (), 9),  # on the left
        ((2,), (3, 0, 7), 7),  # on the right
        ((1, -1), (2,), -1),  # negative
        ((), (4,), 4),  # equal to the number of colors
        ((0, 6, 1, 5), (8,), 6),  # several: the first, left before right
        ((3,), (2, 11, 0, 9), 11),
        ((1, 2), (3, 6, 8), 6),
    ])
    def test_config_validate_names_first_bad_color(self, minsky, left, right, bad):
        with pytest.raises(ValueError, match=f"^tape color {bad} out of range$"):
            TMConfig(left, 0, 0, right).validate(minsky)

    @pytest.mark.parametrize("left,right,message", [
        ((1.5,), (), "tape color 1.5 is not an integer"),
        ((), (0, "2"), "tape color '2' is not an integer"),
        ((0, 1), (1.0,), "tape color 1.0 is not an integer"),  # equal to a color in the tape
        ((2, Fraction(1)), (), "tape color Fraction(1, 1) is not an integer"),
        ((0,), (3, 2.0) + (1,) * 300, "tape color 2.0 is not an integer"),
        ((0, 7), ("x",), "tape color 7 out of range"),  # the first bad color, of either kind
    ])
    def test_config_validate_rejects_non_integer_colors(self, minsky, left, right, message):
        with pytest.raises(ValueError) as exc:
            TMConfig(left, 0, 0, right).validate(minsky)
        assert str(exc.value) == message

    @pytest.mark.parametrize("state,current,message", [
        (1.0, 0, "state 1.0 is not an integer"),
        ("2", 0, "state '2' is not an integer"),
        (0, 2.5, "color 2.5 is not an integer"),
        (0, "x", "color 'x' is not an integer"),
    ])
    def test_config_validate_rejects_non_integer_state_or_color(self, minsky, state, current, message):
        with pytest.raises(ValueError) as exc:
            TMConfig((), state, current, ()).validate(minsky)
        assert str(exc.value) == message

    def test_config_validate_long_tape(self, minsky):
        tape = tuple(k % 4 for k in range(800))
        TMConfig(tape[:400], 6, 3, tape[400:]).validate(minsky)
        with pytest.raises(ValueError, match="^tape color 4 out of range$"):
            TMConfig(tape[:400], 6, 3, tape[400:-1] + (4,)).validate(minsky)


class TestTextFormats:
    def test_spec_roundtrip(self, minsky, tiny_halt):
        for spec in (minsky, tiny_halt):
            assert parse_tm_spec(format_tm_spec(spec)) == spec

    def test_config_roundtrip(self):
        c = TMConfig((1, 0, 2), 2, 3, (0, 1))
        assert parse_config(format_config(c)) == c

    @given(st.builds(TMConfig, st.lists(st.integers(0)).map(tuple), st.integers(0), st.integers(0),
                     st.lists(st.integers(0)).map(tuple)))
    def test_config_roundtrip_random(self, c):
        assert parse_config(format_config(c)) == c

    def test_config_empty_tapes(self):
        c = parse_config("left:\nstate: 4\ncell: 3\nright:\n")
        assert c == TMConfig((), 4, 3, ())

    def test_spec_comments_and_blank_lines(self, tiny_halt):
        text = "# a machine\n\n" + format_tm_spec(tiny_halt).replace("\n", "  # to the end of the line\n", 1) + "\n"
        assert text.count("#") == 2 and "\n\n" in text
        assert parse_tm_spec(text) == tiny_halt

    def test_config_comments_and_blank_lines(self):
        text = "# start\nleft: 1 0  # read left to right\n\nstate: 2\ncell: 3#no space needed\n  \nright:\n"
        assert parse_config(text) == TMConfig((1, 0), 2, 3, ())

    def test_spec_parse_errors(self):
        with pytest.raises(ValueError):
            parse_tm_spec("states 1\nrule 0 0 -> STOP\n")
        with pytest.raises(ValueError):
            parse_tm_spec("states 1\ncolors 1\nbogus\n")

    @pytest.mark.parametrize("line", ["rule 0 0 ->", "states", "colors 1 2", "rule 0 0 -> L 0",
                                      "rule 0 0 -> STOP 1", "rule 0 0 => STOP",
                                      "states 1", "colors 2", "rule 0 0 -> STOP\nrule 0 0 -> L 0 0"])
    def test_short_or_malformed_line(self, line):
        with pytest.raises(ValueError, match="bad line"):
            parse_tm_spec(f"states 1\ncolors 1\n{line}\n")

    # one spelling per integer: ASCII digits, no leading zero, no "+" or "_"
    @pytest.mark.parametrize("line,token", [
        ("states x", "x"), ("states ٢", "٢"), ("colors +1", "+1"), ("colors 01", "01"),
        ("rule 0 y -> STOP", "y"), ("rule 0 0 -> R 0_0 0", "0_0"), ("rule 0 0 -> L 0 -0", "-0"),
    ])
    def test_spec_integer_spelling(self, line, token):
        # the line takes the place of its keyword's line in a valid one-pair machine
        lines = {"states": "states 1", "colors": "colors 1", "rule": "rule 0 0 -> STOP"}
        lines[line.split()[0]] = line
        with pytest.raises(ValueError) as exc:
            parse_tm_spec("\n".join(lines.values()) + "\n")
        assert str(exc.value) == f"bad line: {line!r} (not an integer: {token!r})"

    @pytest.mark.parametrize("line,token", [
        ("left: x", "x"), ("left: ١ 1_0 +2", "١"), ("left: 1 1_0", "1_0"), ("right: 0 +2", "+2"),
        ("state: ٢", "٢"), ("state: 1 2", "1 2"), ("cell: 03", "03"), ("cell:", ""),
    ])
    def test_config_integer_spelling(self, line, token):
        # the line takes the place of its field's line in a valid configuration
        fields = {key: f"{key}: 0" for key in ("left", "state", "cell", "right")}
        fields[line.split(":")[0]] = line
        with pytest.raises(ValueError) as exc:
            parse_config("\n".join(fields.values()) + "\n")
        assert str(exc.value) == f"bad line: {line!r} (not an integer: {token!r})"

    @pytest.mark.parametrize("line", ["state: 3", "right: 1", "bogus: 4", "cells: 1"])
    def test_repeated_or_unknown_config_field(self, line):
        with pytest.raises(ValueError, match="bad line"):
            parse_config(f"left:\nstate: 2\ncell: 0\nright:\n{line}\n")

    @pytest.mark.parametrize("field", ["left", "state", "cell", "right"])
    def test_missing_config_field(self, field):
        text = "".join(line + "\n" for line in ("left: 1", "state: 2", "cell: 0", "right:")
                       if not line.startswith(field + ":"))
        with pytest.raises(ValueError) as exc:
            parse_config(text)
        assert str(exc.value) == f"missing config field {field!r}"

    @pytest.mark.parametrize("text,line,token", [
        ("state: x\nleft: 1\ncell: 0\n", "state: x", "x"),  # a bad line before a missing field
        ("cell: 0 1\nleft: 1\nstate: 2\nbogus: 3\n", "cell: 0 1", "0 1"),  # the first bad line in file order
        ("left: 1 y\nleft: 2\n", "left: 1 y", "y"),
    ])
    def test_config_first_bad_line_reported(self, text, line, token):
        with pytest.raises(ValueError) as exc:
            parse_config(text)
        assert str(exc.value) == f"bad line: {line!r} (not an integer: {token!r})"

    @pytest.mark.parametrize("text", ["left\nstate: 2\ncell: 0\nright: 1\n",
                                      "left: 1\nstate: 2\ncell: 0\nright\n"])
    def test_config_field_without_colon(self, text):
        # an empty tape still needs its colon; without it the line is malformed
        with pytest.raises(ValueError, match="bad line"):
            parse_config(text)
