import pytest

from ncrewrite import format_config, format_presentation, format_tm_spec, TMConfig
from ncrewrite.cli import main
from ncrewrite.turing import tiny_looping_machine


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


def test_verify_order(capsys):
    rc = main(["verify-order", "--order", "nilpotency", "--max-len", "3"])
    assert rc == 0
    assert "violations: 0" in capsys.readouterr().out


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


def test_lockstep_match(config_file, capsys):
    rc = main(["lockstep", "--config", config_file, "--steps", "3",
               "--construction", "nilpotency"])
    assert rc == 0
    assert "machine halted" in capsys.readouterr().out


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


def test_cancellation_probe(capsys):
    rc = main(["cancellation-probe", "--samples", "20", "--max-len", "8", "--seed", "1"])
    assert rc == 0
    assert "violations: 0" in capsys.readouterr().out


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
    assert captured.err.startswith("error: ") and "'Q3'" in captured.err


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
])
def test_vacuous_bound_is_usage_error(argv, capsys):
    rc = main(argv)
    assert_usage_error(rc, capsys.readouterr(), "max_len")


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


@pytest.mark.parametrize("line", ["rule 0 0 ->", "states"])
def test_short_tm_spec_line_is_usage_error(line, config_file, tmp_path, capsys):
    tm = tmp_path / "short.tm"
    tm.write_text(format_tm_spec(tiny_looping_machine()) + line + "\n")
    rc = main(["tm-run", "--tm", str(tm), "--config", config_file, "--budget", "1"])
    assert_usage_error(rc, capsys.readouterr(), "bad line", repr(line))


def test_start_state_out_of_range_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_text(format_config(TMConfig((), 9, 0, ())))
    rc = main(["lockstep", "--config", str(cfg), "--steps", "1", "--construction", "nilpotency"])
    assert_usage_error(rc, capsys.readouterr(), "state or color out of range")
