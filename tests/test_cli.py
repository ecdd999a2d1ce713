import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ncrewrite import format_config, format_presentation, format_tm_spec, Presentation, Rule, TMConfig
from ncrewrite.orders import ReductionOrder
import ncrewrite.cli
import ncrewrite.harness
from ncrewrite.cli import build_parser, main
from oracles import tiny_looping_machine


@pytest.fixture(scope="module")
def nilp_file(tmp_path_factory, p_nilp):
    path = tmp_path_factory.mktemp("cli") / "nilp.rules"
    path.write_text(format_presentation(p_nilp))
    return str(path)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text(format_config(TMConfig((3,), 2, 3, ())))
    return str(path)


@pytest.fixture()
def loop_tm_file(tmp_path):
    path = tmp_path / "loop.tm"
    path.write_text(format_tm_spec(tiny_looping_machine()))
    return str(path)


def test_normalize(nilp_file, capsys):
    rc = main(["normalize", "--presentation", nilp_file, "--word", "t R a1 Q2 P3 a0 R"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "normal form: 1 * R Q4 P1 a1 a0 R t" in out
    assert "steps: 4" in out


def test_overlaps_clean(nilp_file, capsys):
    rc = main(["overlaps", "--presentation", nilp_file])
    assert rc == 0
    assert "0 ambiguities" in capsys.readouterr().out


def test_overlaps_dirty(tmp_path, capsys):
    path = tmp_path / "bad.rules"
    path.write_text("alphabet: a0 a1\norder: deglex\nrule: a0 a1 -> a1 a0\nrule: a1 a0 -> a0 a0\n")
    rc = main(["overlaps", "--presentation", str(path)])
    assert rc == 1
    assert "OVERLAP" in capsys.readouterr().out


def test_overlaps_inclusion_order(tmp_path, capsys):
    # inside r2, the longer r0 and the shorter r1 both start at position 1:
    # inclusions list position, then shorter lhs first, then rule id
    path = tmp_path / "incl.rules"
    path.write_text("alphabet: a0 a1 a2 a3\norder: deglex\nrule: a1 a2 -> a0\nrule: a1 -> a0\n"
                    "rule: a0 a1 a2 a3 -> 0\nrule: a3 a0 -> a0\n")
    rc = main(["overlaps", "--presentation", str(path)])
    assert rc == 1
    assert capsys.readouterr().out == (
        "OVERLAP r2 r3 witness: a0 a1 a2 a3 a0\n"
        "OVERLAP r3 r2 witness: a3 a0 a1 a2 a3\n"
        "INCLUSION r0 r1 witness: a1 a2\n"
        "INCLUSION r2 r1 witness: a0 a1 a2 a3\n"
        "INCLUSION r2 r0 witness: a0 a1 a2 a3\n"
        "5 ambiguities\n"
    )


def test_verify_order(capsys):
    rc = main(["verify-order", "--order", "nilpotency", "--max-len", "3"])
    assert rc == 0
    assert "violations: 0" in capsys.readouterr().out


def test_verify_order_violations(monkeypatch, capsys):
    # a key that sees only the length: t and a0 tie, and so do their products with each letter
    monkeypatch.setattr(ReductionOrder, "sort_key", lambda self, w: (len(w),))
    rc = main(["verify-order", "--order", "nilpotency", "--max-len", "1", "--alphabet", "t a0"])
    assert rc == 1
    assert capsys.readouterr().out == (
        "alphabet: t a0\nmax length: 1\nchecks: 16\nviolations: 5\n"
        "  totality: t, a0\n"
        "  left t: t, a0\n"
        "  right t: t, a0\n"
        "  left a0: t, a0\n"
        "  right a0: t, a0\n"
    )


def test_gen_presentation_stdout(capsys):
    rc = main(["gen-presentation", "--construction", "zerodivisor"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "order: zerodivisor" in out
    assert "rule: s R -> R s" in out


def test_gen_presentation_out_file(tmp_path, capsys):
    dest = tmp_path / "out.rules"
    rc = main(["gen-presentation", "--construction", "nilpotency", "--out", str(dest)])
    assert rc == 0
    assert "rule: Q4 P3 -> 0" in dest.read_text()


def test_tm_run(config_file, capsys):
    rc = main(["tm-run", "--config", config_file, "--budget", "10"])
    assert rc == 0
    assert "halted after 1 steps" in capsys.readouterr().out


def test_tm_run_still_running(loop_tm_file, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 0, 0, ())))
    rc = main(["tm-run", "--tm", loop_tm_file, "--config", str(cfg), "--budget", "7"])
    assert rc == 0
    assert capsys.readouterr().out == "still running after 7 steps\n" + format_config(TMConfig((0,) * 7, 1, 0, ()))


def test_lockstep_match(config_file, capsys):
    rc = main(["lockstep", "--config", config_file, "--steps", "3",
               "--construction", "nilpotency"])
    assert rc == 0
    assert "machine halted" in capsys.readouterr().out


def test_lockstep_divergence(p_nilp, tmp_path, monkeypatch, capsys):
    # rules without the tt7 halt rule Q4 P3 -> 0, started on that halt pair
    mutant = Presentation(tuple(r for r in p_nilp.rules if not r.tag.startswith("tt7")), p_nilp.order)
    monkeypatch.setattr(ncrewrite.harness, "make_presentation", lambda spec, construction: mutant)
    cfg = tmp_path / "halt.txt"
    cfg.write_text(format_config(TMConfig((), 4, 3, ())))
    rc = main(["lockstep", "--config", str(cfg), "--steps", "3", "--construction", "nilpotency"])
    assert rc == 1
    assert capsys.readouterr().out == "step 0: R Q4 P3 R [DIVERGED]\nmachine halted\ndivergence at step 0\n"


def test_deciders(config_file, capsys):
    for cmd in ("nilpotent", "annihilate", "zerodivisor"):
        rc = main([cmd, "--config", config_file, "--nmax", "3"])
        assert rc == 0
        assert "1" in capsys.readouterr().out


def test_decider_unknown(loop_tm_file, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 0, 0, ())))
    rc = main(["annihilate", "--tm", loop_tm_file, "--config", str(cfg), "--nmax", "4"])
    assert rc == 1
    assert "unknown up to 4" in capsys.readouterr().out


def test_zerodivisor_unknown(loop_tm_file, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 0, 0, ())))
    rc = main(["zerodivisor", "--tm", loop_tm_file, "--config", str(cfg), "--nmax", "4"])
    assert rc == 1
    assert capsys.readouterr().out == "zero divisor: unknown up to 4\n"


def test_cancellation_probe(capsys):
    rc = main(["cancellation-probe", "--samples", "20", "--max-len", "8", "--seed", "1"])
    assert rc == 0
    assert "violations: 0" in capsys.readouterr().out


def test_cancellation_probe_violations(p_zd, monkeypatch, capsys):
    # Minsky's zero-divisor rules plus R t -> 0, an lhs that ends in t: every Y t^n with Y ending in R is zero
    mutant = Presentation(p_zd.rules + (Rule(("R", "t"), None),), p_zd.order)
    monkeypatch.setattr(ncrewrite.harness, "make_presentation", lambda spec, construction: mutant)
    rc = main(["cancellation-probe", "--samples", "50", "--max-len", "12", "--seed", "3"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["samples: 50", "violations: 75"] and len(lines) == 2 + 20
    assert lines[2:5] == [f"  right-t n={n}: L a1 a2 a3 a0 Q1 P3 a0 a3 a2 a1 R" for n in (1, 2, 3)]
    assert all(re.fullmatch(r"  (right-t|left-s) n=[123]: \S.*", line) for line in lines[2:])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["normalize"])  # missing required arguments
    assert exc.value.code == 2


def test_letter_outside_order_is_usage_error(capsys):
    rc = main(["verify-order", "--order", "nilpotency", "--alphabet", "t s", "--max-len", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'s'" in captured.err
    assert captured.err.count("\n") == 1


def test_missing_config_is_usage_error(tmp_path, capsys):
    rc = main(["tm-run", "--config", str(tmp_path / "missing.txt"), "--budget", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "missing.txt" in captured.err
    assert captured.err.count("\n") == 1


def test_rule_letter_outside_alphabet_is_usage_error(tmp_path, capsys):
    path = tmp_path / "stray.rules"
    path.write_text("alphabet: t R\norder: nilpotency\nrule: t Q3 -> R\n")
    rc = main(["overlaps", "--presentation", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "ambiguities" not in captured.out
    assert captured.err == "error: letter 'Q3' outside alphabet in rule 0: t Q3 -> R\n"


def test_empty_lhs_reported_before_a_later_bad_letter(tmp_path, capsys):
    path = tmp_path / "empty.rules"
    path.write_text("alphabet: t a0 R\norder: deglex\nrule: eps -> R\nrule: zz -> R\n")
    rc = main(["overlaps", "--presentation", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", "error: rule lhs must be nonempty\n")


def test_bad_rule_line_reported_before_a_bad_alphabet(tmp_path, capsys):
    path = tmp_path / "bad.rules"
    path.write_text("alphabet: t a00 R\norder: deglex\nrule: t R R\n")
    rc = main(["overlaps", "--presentation", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", "error: bad rule line: 'rule: t R R'\n")


def assert_usage_error(rc, captured, *fragments):
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for fragment in fragments:
        assert fragment in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-order", "--order", "nilpotency", "--max-len", "-1"],
    ["cancellation-probe", "--samples", "5", "--max-len", "0"],
    ["verify-order", "--order", "zerodivisor", "--max-len", "0"],
    ["verify-order", "--order", "nilpotency", "--alphabet", "t t a0", "--max-len", "2"],
    ["verify-order", "--order", "nilpotency", "--alphabet", "   ", "--max-len", "2"],
    ["verify-order", "--order", "zerodivisor", "--alphabet", "", "--max-len", "2"],
])
def test_vacuous_bound_is_usage_error(argv, capsys):
    rc = main(argv)
    assert_usage_error(rc, capsys.readouterr(), "--alphabet" if "--alphabet" in argv else "max_len")


def test_negative_tm_run_budget_is_usage_error(config_file, capsys):
    rc = main(["tm-run", "--config", config_file, "--budget", "-1"])
    assert_usage_error(rc, capsys.readouterr(), "budget")


def test_negative_normalize_budget_is_usage_error(nilp_file, capsys):
    rc = main(["normalize", "--presentation", nilp_file, "--word", "t R a1 Q2 P3 a0 R",
               "--budget", "-1"])
    assert_usage_error(rc, capsys.readouterr(), "budget")


def test_budget_exhausted_is_unknown(nilp_file, capsys):
    rc = main(["normalize", "--presentation", nilp_file, "--word", "t R a1 Q2 P3 a0 R",
               "--budget", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "budget exhausted after 1 steps" in captured.err


@pytest.mark.parametrize("line", ["rule 0 0 ->", "states", "states 2", "colors 2", "rule 0 0 -> STOP"])
def test_short_tm_spec_line_is_usage_error(line, config_file, tmp_path, capsys):
    tm = tmp_path / "short.tm"
    tm.write_text(format_tm_spec(tiny_looping_machine()) + line + "\n")
    rc = main(["tm-run", "--tm", str(tm), "--config", config_file, "--budget", "1"])
    assert_usage_error(rc, capsys.readouterr(), "bad line", repr(line))


@pytest.mark.parametrize("header", ["states -1\ncolors 1\n", "states 0\ncolors 0\n"])
def test_empty_machine_is_usage_error(header, tmp_path, capsys):
    tm = tmp_path / "empty.tm"
    tm.write_text(header)
    rc = main(["gen-presentation", "--tm", str(tm), "--construction", "nilpotency"])
    assert_usage_error(rc, capsys.readouterr(), "at least one state and one color")


def test_start_state_out_of_range_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 9, 0, ())))
    rc = main(["lockstep", "--config", str(cfg), "--steps", "1", "--construction", "nilpotency"])
    assert_usage_error(rc, capsys.readouterr(), "state or color out of range")


@pytest.mark.parametrize("argv", [
    ["lockstep", "--steps", "1", "--construction", "nilpotency"],
    ["tm-run", "--budget", "1"],
])
def test_tape_color_out_of_range_is_usage_error(argv, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    tape = tuple(k % 4 for k in range(800))
    cfg.write_text(format_config(TMConfig(tape[:400], 2, 0, tape[400:600] + (9,) + tape[600:])))
    rc = main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert_usage_error(rc, captured)
    assert captured.err == "error: tape color 9 out of range\n"


@pytest.mark.parametrize("line", ["state: 3", "bogus: 4"])
def test_repeated_or_unknown_config_field_is_usage_error(line, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 2, 0, ())) + line + "\n")
    rc = main(["tm-run", "--config", str(cfg), "--budget", "1"])
    assert_usage_error(rc, capsys.readouterr(), "bad line", repr(line))


@pytest.mark.parametrize("field", ["left", "right"])
def test_config_field_without_colon_is_usage_error(field, tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 2, 0, ())).replace(f"{field}:", field))
    rc = main(["tm-run", "--config", str(cfg), "--budget", "1"])
    assert_usage_error(rc, capsys.readouterr(), "bad line", repr(field))


def test_repeated_alphabet_letter_is_usage_error(tmp_path, capsys):
    path = tmp_path / "repeat.rules"
    path.write_text("alphabet: t a0 t\norder: deglex\nrule: t -> a0\n")
    rc = main(["overlaps", "--presentation", str(path)])
    assert_usage_error(rc, capsys.readouterr(), "repeats a letter")


@pytest.mark.parametrize("letter,command", [("s", ["overlaps"]), ("L", ["normalize", "--word", "t R"])])
def test_nilpotency_order_with_s_or_L_is_usage_error(letter, command, tmp_path, capsys):
    # refused when the file is read, whether or not a rule or the word uses the letter
    path = tmp_path / "psi.rules"
    path.write_text(f"alphabet: t a0 {letter} R\norder: nilpotency\nrule: t R -> R t\n")
    rc = main([command[0], "--presentation", str(path), *command[1:]])
    assert_usage_error(rc, capsys.readouterr(), f"letter {letter!r} not allowed in a nilpotency order")


@pytest.mark.parametrize("line", ["alphabet: a0 a1", "order: deglex"])
def test_repeated_presentation_header_is_usage_error(line, tmp_path, capsys):
    path = tmp_path / "twice.rules"
    path.write_text(f"alphabet: a0 a1\norder: deglex\n{line}\nrule: a0 a1 -> a1 a0\n")
    rc = main(["overlaps", "--presentation", str(path)])
    assert_usage_error(rc, capsys.readouterr(), "bad line", repr(line))


def readme_cli_lines():
    """The command lines of the README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def test_readme_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = 0
    for line in readme_cli_lines():
        argv = shlex.split(line)
        if argv[0] == "printf":  # printf 'FORMAT' > FILE
            assert argv[2] == ">", line
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "ncrewrite", line
        assert main(argv[1:]) == 0, (line, capsys.readouterr())
        ran += 1
    assert ran >= 11


# Every option of every subcommand: option strings, required, default, type,
# choices and help.  The fields, not the rendered --help, whose layout varies
# with the Python version and the terminal width.
MACHINE = [("--tm", False, None, None, None, None), ("--config", True, None, None, None, None)]
CONSTRUCTION = ("--construction", True, None, None, ["nilpotency", "zerodivisor"], None)
ARGUMENT_TABLE = {
    "normalize": ("normalize a word under a presentation", [
        ("--presentation", True, None, None, None, None),
        ("--word", True, None, None, None, None),
        ("--budget", False, 10**6, int, None, None),
    ]),
    "overlaps": ("list ambiguities among rule lhs words", [("--presentation", True, None, None, None, None)]),
    "verify-order": ("audit order axioms exhaustively", [
        ("--order", True, None, None, ["nilpotency", "zerodivisor"], None),
        ("--max-len", True, None, int, None, None),
        ("--alphabet", False, None, None, None, "space-separated letters (default: small sub-alphabet)"),
    ]),
    "gen-presentation": ("compile a TM into rules", [
        ("--tm", False, None, None, None, "TM spec file (default: built-in Minsky UTM)"),
        CONSTRUCTION,
        ("--out", False, None, None, None, None),
    ]),
    "tm-run": ("run a Turing machine", MACHINE + [("--budget", True, None, int, None, None)]),
    "lockstep": ("machine vs rewriting, step by step",
                 MACHINE + [("--steps", True, None, int, None, None), CONSTRUCTION]),
    **{name: (f"bounded {name} decider", MACHINE + [("--nmax", True, None, int, None, None)])
       for name in ("nilpotent", "annihilate", "zerodivisor")},
    "cancellation-probe": ("randomized right-t / left-s cancellation check", [
        ("--samples", True, None, int, None, None),
        ("--max-len", True, None, int, None, None),
        ("--seed", False, 0, int, None, None),
    ]),
}


def test_argument_table():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert list(sub.choices) == list(ARGUMENT_TABLE)
    assert [(a.dest, a.help) for a in sub._choices_actions] == [
        (name, helptext) for name, (helptext, _) in ARGUMENT_TABLE.items()]
    for name, (_, options) in ARGUMENT_TABLE.items():
        actions = [a for a in sub.choices[name]._actions if not isinstance(a, argparse._HelpAction)]
        table = [(*a.option_strings, a.required, a.default, a.type, a.choices, a.help) for a in actions]
        assert table == options, name


def outcome(argv, capsys):
    """What ``main(argv)`` printed and returned, or the code it exited with."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = ("exit", exc.code)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


PARSER_CORPUS = [
    [], ["-h"], ["--help"], ["-h", "overlaps"], ["--bogus", "overlaps"], ["--", "overlaps"], ["frobnicate"],
    *([name, "-h"] for name in ARGUMENT_TABLE),
    ["overlaps"],  # missing required option
    ["verify-order", "--order", "bogus", "--max-len", "1"],
    ["verify-order", "--order", "nilpotency", "--max-len", "x"],
    ["overlaps", "--presentation", "p.rules", "--nope"],
    ["overlaps", "--pres", "p.rules"],
    ["overlaps", "--presentation", "p.rules", "stray"],
    ["overlaps", "--presentation", "p.rules", "--", "y"],
    ["overlaps", "--presentation", "missing.rules"],
    ["tm-run", "--config", "config.txt", "--budget", "2"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_one_command_parser_behaves_as_full_parser(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("p.rules").write_text("alphabet: a0 a1\norder: deglex\nrule: a0 a1 -> a1 a0\nrule: a1 a1 -> a1\n")
    Path("config.txt").write_text(format_config(TMConfig((3,), 2, 3, ())))
    got = outcome(argv, capsys)
    full = build_parser
    monkeypatch.setattr(ncrewrite.cli, "build_parser", lambda only=None: full())
    assert got == outcome(argv, capsys)


def test_no_command_error_names_the_dest(capsys):
    rc, out, err = outcome([], capsys)
    assert (rc, out) == (("exit", 2), "")
    assert err.endswith("ncrewrite: error: the following arguments are required: command\n")


def test_named_command_registers_one_subparser(monkeypatch, capsys):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    argv = ["verify-order", "--order", "nilpotency", "--max-len", "1"]
    assert main(argv) == 0
    assert calls == ["verify-order"]
    calls.clear()
    monkeypatch.setattr(sys, "argv", ["ncrewrite", *argv])  # as the console script calls it
    assert main() == 0
    assert calls == ["verify-order"]
    calls.clear()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and calls == list(ARGUMENT_TABLE)
    capsys.readouterr()


def test_handler_is_looked_up_when_the_parser_is_built(nilp_file, monkeypatch):
    """A wrapper put in place of a ``cmd_*`` function (as tracing does) is what runs."""
    seen = []
    monkeypatch.setattr(ncrewrite.cli, "cmd_overlaps", lambda args: seen.append(args.presentation) or 7)
    assert main(["overlaps", "--presentation", nilp_file]) == 7
    assert seen == [nilp_file]


SRC = str(Path(__file__).resolve().parents[1] / "src")


def module_env():
    """The environment in which ``python -m ncrewrite.cli`` imports this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_module(*argv, cwd=None):
    """``python -m ncrewrite.cli ARGV`` in a process of its own, as the command runs."""
    return subprocess.run([sys.executable, "-m", "ncrewrite.cli", *argv], cwd=cwd, env=module_env(),
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_rational_arithmetic():
    # coefficients are kept as given, so the CLI's import pulls in neither
    # fractions nor what it imports; -S: no site module preloads them
    code = "import sys, ncrewrite.cli; print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_process_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ncrewrite ") and proc.stderr == ""


def test_process_gen_presentation_then_overlaps(tmp_path):
    gen = run_module("gen-presentation", "--construction", "nilpotency", "--out", "nilp.rules", cwd=tmp_path)
    assert (gen.returncode, gen.stdout, gen.stderr) == (0, "1560 rules written to nilp.rules\n", "")
    overlaps = run_module("overlaps", "--presentation", "nilp.rules", cwd=tmp_path)
    assert (overlaps.returncode, overlaps.stdout, overlaps.stderr) == (0, "0 ambiguities\n", "")


def test_process_missing_config(tmp_path):
    proc = run_module("lockstep", "--config", "missing.txt", "--steps", "1", "--construction", "nilpotency",
                      cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "missing.txt" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_process_closed_stdout(tmp_path):
    # the reader takes one line and closes the pipe, as `head -n 1` does: exit
    # 128 + SIGPIPE with nothing on stderr (about 550 kB are left unwritten)
    (tmp_path / "blank.txt").write_text("left:\nstate: 0\ncell: 0\nright:\n")
    machine = Path(__file__).resolve().parent / "machines" / "antihydra.tm"
    with subprocess.Popen(
        [sys.executable, "-m", "ncrewrite.cli", "lockstep", "--tm", str(machine), "--config", "blank.txt",
         "--steps", "3000", "--construction", "nilpotency"],
        cwd=tmp_path, env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.wait(timeout=120), first, err) == (141, "step 0: R Q0 P0 R [ok]\n", "")


def test_console_script(tmp_path):
    # the CI console-script check, with `ncrewrite` bound to this checkout's module
    bindir, work = tmp_path / "bin", tmp_path / "work"
    bindir.mkdir()
    work.mkdir()
    shim = bindir / "ncrewrite"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m ncrewrite.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PATH": os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    script = Path(__file__).resolve().parent / "console_script.sh"
    proc = subprocess.run(["bash", str(script)], cwd=work, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("\n0 ambiguities\n") == 2 and proc.stdout.endswith("violations: 0\n")
    assert sorted(p.name for p in work.iterdir()) == ["nilpotency.rules", "zerodivisor.rules"]
