import random

import pytest

from ncrewrite import (
    NILPOTENCY,
    ZERO_DIVISOR,
    AlphabetError,
    DecisionOutcome,
    Polynomial,
    Presentation,
    Rule,
    TMConfig,
    annihilate_bounded,
    cancellation_probe,
    encode_config,
    lockstep,
    make_presentation,
    nilpotent_bounded,
    nilpotency_presentation,
    normalize,
    parse_word,
    tm_run,
    zerodivisor_presentation,
    zerodivisor_witness_bounded,
)
from ncrewrite import harness, rewrite
from ncrewrite.orders import DEGLEX, ReductionOrder
from ncrewrite.rewrite import concat
from ncrewrite.turing import STOP
from oracles import (
    annihilate_reference,
    cancellation_probe_reference,
    decode_structure,
    deg_t,
    htilde,
    nilpotent_reference,
    random_structured_word_reference,
    random_word_reference,
)


class TestHtilde:
    def test_counts(self):
        assert htilde(parse_word("t L Q0 P2 R s")) == 2
        assert htilde(()) == 0
        assert htilde(parse_word("t t s s s")) == 5

    def test_rejects_junk(self):
        with pytest.raises(AlphabetError):
            htilde(("x",))


class TestLockstep:
    def test_one_step_to_halt_nilp(self, minsky):
        report = lockstep(minsky, TMConfig((3,), 2, 3, ()), 2, NILPOTENCY)
        assert report.ok
        assert report.halted
        assert report.records[-1].actual.is_zero()
        # (2,3) -> (L,4,1) lands on the halt pair (4,3): its word is zero
        assert report.records[0].expected.is_zero()
        assert report.records[1].expected is None

    def test_zd_single_step(self, minsky, p_zd):
        report = lockstep(minsky, TMConfig((), 0, 2, ()), 1, ZERO_DIVISOR, presentation=p_zd)
        assert report.ok and len(report.records) == 1
        rec = report.records[0]
        assert rec.actual == Polynomial.from_word(parse_word("L a0 Q0 P0 R s"))

    def test_immediate_stop(self, minsky):
        for construction in (NILPOTENCY, ZERO_DIVISOR):
            report = lockstep(minsky, TMConfig((), 4, 3, ()), 1, construction)
            assert report.ok and report.halted
            assert report.records[0].actual.is_zero()

    def test_long_run_no_divergence(self, minsky, p_nilp):
        report = lockstep(minsky, TMConfig((), 2, 0, ()), 30, NILPOTENCY, presentation=p_nilp)
        assert report.ok and not report.halted and len(report.records) == 30

    RUNNING = TMConfig((1,), 2, 0, (1, 2))

    @pytest.mark.parametrize("construction,mover", [(NILPOTENCY, "t"), (ZERO_DIVISOR, "s")])
    def test_broken_rules_diverge(self, minsky, p_nilp, p_zd, construction, mover):
        # R t -> 0 (R s -> 0) kills every step's word, the expected side too
        # if it were normalized with the rules under test
        p = p_nilp if construction == NILPOTENCY else p_zd
        broken = Presentation(p.rules + (Rule(("R", mover), None),), p.order)
        report = lockstep(minsky, self.RUNNING, 5, construction, presentation=broken)
        assert report.divergence == 0
        rec = report.records[0]
        assert rec.actual.is_zero() and not rec.expected.is_zero() and not rec.matched

    @pytest.mark.parametrize("construction,edge,mover", [(NILPOTENCY, "R", "t"), (ZERO_DIVISOR, "L", "s")])
    def test_divergence_after_a_matched_step(self, minsky, p_nilp, p_zd, construction, edge, mover):
        # without the rules of the right move from (2,1) the second step stalls
        p = p_nilp if construction == NILPOTENCY else p_zd
        kept = tuple(r for r in p.rules if "[i=2,j=1," not in r.tag)
        assert len(p.rules) - len(kept) == (104 if construction == NILPOTENCY else 24)
        report = lockstep(minsky, self.RUNNING, 5, construction, presentation=Presentation(kept, p.order))
        assert report.divergence == 1 and not report.halted
        assert [rec.matched for rec in report.records] == [True, False]
        rec = report.records[1]
        assert rec.actual == Polynomial.from_word(parse_word(f"{edge} a1 t a2 Q2 P1 a2 R"))
        assert rec.expected == Polynomial.from_word(parse_word(f"{edge} a1 a2 a1 Q2 P2 R {mover}"))

    def test_divergence_at_a_halt_pair(self, minsky, p_nilp):
        # without the tt7 rule Q4 P3 -> 0 the halt pair's word stays nonzero
        mutant = Presentation(tuple(r for r in p_nilp.rules if not r.tag.startswith("tt7")), p_nilp.order)
        report = lockstep(minsky, TMConfig((), 4, 3, ()), 3, NILPOTENCY, presentation=mutant)
        assert report.divergence == 0 and report.halted and len(report.records) == 1
        rec = report.records[0]
        assert rec.matched is False and rec.expected is None
        assert rec.actual == Polynomial.from_word(parse_word("t R Q4 P3 R"))

    def test_one_normalize_and_encode_per_step(self, minsky, p_nilp, monkeypatch):
        normalized, encoded = [], []

        def counting_normalize(x, p, *args):
            normalized.append(x)
            return normalize(x, p, *args)

        def counting_encode(c, construction):
            encoded.append(c)
            return encode_config(c, construction)

        monkeypatch.setattr(harness, "normalize", counting_normalize)
        monkeypatch.setattr(harness, "encode_config", counting_encode)
        assert not tm_run(minsky, self.RUNNING, 5).halted
        report = lockstep(minsky, self.RUNNING, 5, NILPOTENCY, presentation=p_nilp)
        assert report.ok and len(report.records) == 5
        assert len(normalized) == 5 and len(encoded) == 6


class TestDeciders:
    def test_immediate_halt_pair(self, minsky):
        c = TMConfig((), 4, 3, ())
        assert nilpotent_bounded(minsky, c, 3) == nilpotent_bounded(minsky, c, 1)
        assert nilpotent_bounded(minsky, c, 3).value == 1
        assert annihilate_bounded(minsky, c, 3).value == 1
        assert zerodivisor_witness_bounded(minsky, c, 3).value == 1

    def test_one_step_from_halt(self, minsky):
        c = TMConfig((3,), 2, 3, ())
        assert nilpotent_bounded(minsky, c, 3) .witnessed
        assert nilpotent_bounded(minsky, c, 3).value == 1
        assert annihilate_bounded(minsky, c, 3).value == 1
        assert zerodivisor_witness_bounded(minsky, c, 3).value == 1

    def test_nonhalting_unknown(self, minsky):
        c = TMConfig((), 2, 0, ())
        assert tm_run(minsky, c, 5).halted is False
        out = annihilate_bounded(minsky, c, 5)
        assert not out.witnessed and out.value == 5

    def test_cross_oracle_agreement(self, minsky, p_nilp):
        # configs that the machine oracle says halt in k steps must be
        # annihilated by t^N with N <= k+1, and nilpotency must agree
        rng = random.Random(2)
        checked = 0
        while checked < 5:
            c = TMConfig(
                tuple(rng.randrange(4) for _ in range(rng.randint(0, 2))),
                rng.randrange(7),
                rng.randrange(4),
                tuple(rng.randrange(4) for _ in range(rng.randint(0, 2))),
            )
            result = tm_run(minsky, c, 30)
            if not result.halted:
                continue
            checked += 1
            k = result.steps
            ann = annihilate_bounded(minsky, c, k + 1, presentation=p_nilp)
            assert ann.witnessed and ann.value <= k + 1
            nil = nilpotent_bounded(minsky, c, ann.value, presentation=p_nilp)
            assert nil.witnessed

    def test_nilpotent_normalizes_each_power_once(self, minsky, p_nilp, monkeypatch):
        # powers 1..nmax of a running configuration, and not the (nmax+1)th
        calls = []

        def counting(x, p, *args):
            calls.append(x)
            return normalize(x, p, *args)

        monkeypatch.setattr(harness, "normalize", counting)
        c = TMConfig((), 2, 0, ())
        assert not tm_run(minsky, c, 3).halted
        assert nilpotent_bounded(minsky, c, 3, presentation=p_nilp) == DecisionOutcome.unknown(3)
        assert len(calls) == 3

    @pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
    def test_annihilate_reduces_once_per_power(self, minsky, construction, monkeypatch):
        # t * encode(c0) is the first power's word: c0 is not reduced on its own
        calls = []
        reduce_word = rewrite._reduce_word

        def counting(pending, p, *args):
            calls.append(tuple(reversed(pending)))  # the word this call reads
            return reduce_word(pending, p, *args)

        monkeypatch.setattr(rewrite, "_reduce_word", counting)
        c = TMConfig((), 2, 0, ())
        assert not tm_run(minsky, c, 3).halted
        assert annihilate_bounded(minsky, c, 3, construction) == DecisionOutcome.unknown(3)
        assert len(calls) == 3 and calls[0] == ("t",) + encode_config(c, construction)

    def test_monotonicity(self, minsky, p_nilp):
        c = TMConfig((3,), 2, 3, ())
        first = annihilate_bounded(minsky, c, 1, presentation=p_nilp)
        for bound in (2, 4):
            again = annihilate_bounded(minsky, c, bound, presentation=p_nilp)
            assert again == first

    def test_bad_bounds(self, minsky):
        with pytest.raises(ValueError):
            nilpotent_bounded(minsky, TMConfig((), 0, 0, ()), 0)

    @pytest.mark.parametrize("entry,message", [
        (lambda m, c: lockstep(m, c, 0, NILPOTENCY), "steps must be >= 1"),
        (lambda m, c: annihilate_bounded(m, c, 0), "nmax must be >= 1"),
        (lambda m, c: zerodivisor_witness_bounded(m, c, -1), "nmax must be >= 1"),
        (lambda m, c: cancellation_probe(0, 12), "samples must be >= 1"),
    ], ids=["lockstep", "annihilate", "zerodivisor", "probe"])
    def test_bound_below_one(self, minsky, entry, message):
        with pytest.raises(ValueError) as exc:
            entry(minsky, TMConfig((), 0, 0, ()))
        assert str(exc.value) == message

    def test_start_config_validated(self, minsky):
        bad = TMConfig((), 9, 0, ())
        for run in (
            lambda: lockstep(minsky, bad, 1, NILPOTENCY),
            lambda: annihilate_bounded(minsky, bad, 1),
            lambda: nilpotent_bounded(minsky, bad, 1),
            lambda: zerodivisor_witness_bounded(minsky, bad, 1),
        ):
            with pytest.raises(ValueError, match="state or color out of range"):
                run()


class TestConstructionContract:
    """A presentation or construction that does not fit is refused, not run."""

    C = TMConfig((3,), 2, 3, ())  # halts after one step

    def test_annihilate_unknown_construction(self, minsky, p_zd):
        with pytest.raises(ValueError, match="bogus"):
            annihilate_bounded(minsky, self.C, 5, "bogus", presentation=p_zd)

    @pytest.mark.parametrize("entry,given", [
        ("make_presentation", None), ("encode_config", None),
        *[(entry, given) for entry in ("lockstep", "annihilate_bounded") for given in (None, "nilpotency", "deglex")],
    ])
    def test_unknown_construction_refused(self, minsky, p_nilp, entry, given):
        # one refusal, whatever the entry and whatever presentation comes with it
        presentation = {None: None, "nilpotency": p_nilp,
                        "deglex": Presentation(p_nilp.rules, ReductionOrder(DEGLEX, p_nilp.alphabet))}[given]
        run = {
            "make_presentation": lambda: make_presentation(minsky, "bogus"),
            "encode_config": lambda: encode_config(self.C, "bogus"),
            "lockstep": lambda: lockstep(minsky, self.C, 2, "bogus", presentation=presentation),
            "annihilate_bounded": lambda: annihilate_bounded(minsky, self.C, 5, "bogus", presentation=presentation),
        }[entry]
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == "unknown construction 'bogus'"

    def test_annihilate_other_construction(self, minsky, p_nilp, p_zd):
        with pytest.raises(ValueError, match="zerodivisor presentation"):
            annihilate_bounded(minsky, self.C, 5, NILPOTENCY, presentation=p_zd)
        with pytest.raises(ValueError, match="nilpotency presentation"):
            zerodivisor_witness_bounded(minsky, self.C, 5, presentation=p_nilp)

    def test_nilpotent_zerodivisor_presentation(self, minsky, p_zd):
        with pytest.raises(ValueError, match="zerodivisor presentation"):
            nilpotent_bounded(minsky, self.C, 5, presentation=p_zd)

    def test_lockstep_other_construction(self, minsky, p_nilp, p_zd):
        with pytest.raises(ValueError, match="zerodivisor presentation"):
            lockstep(minsky, self.C, 3, NILPOTENCY, presentation=p_zd)
        # the order names the construction, however the presentation was built
        hand_built = Presentation(p_nilp.rules, p_nilp.order)
        with pytest.raises(ValueError, match="nilpotency presentation given for the zerodivisor construction"):
            lockstep(minsky, self.C, 3, ZERO_DIVISOR, presentation=hand_built)

    def test_probe_nilpotency_presentation(self, p_nilp):
        with pytest.raises(ValueError, match="nilpotency presentation"):
            cancellation_probe(5, 12, presentation=p_nilp)

    def test_custom_presentation_allowed(self, minsky, p_nilp, p_zd):
        # a deglex-ordered presentation names no construction, so it serves either
        assert lockstep(minsky, self.C, 3, ZERO_DIVISOR,
                        presentation=Presentation(p_zd.rules, ReductionOrder(DEGLEX, p_zd.alphabet))).ok
        custom = Presentation(p_nilp.rules, ReductionOrder(DEGLEX, p_nilp.alphabet))
        assert custom.construction == "custom"
        assert nilpotent_bounded(minsky, self.C, 5, presentation=custom).value == 1
        assert annihilate_bounded(minsky, self.C, 5, presentation=custom).value == 1
        assert lockstep(minsky, self.C, 3, NILPOTENCY, presentation=custom).ok


class TestCancellationProbe:
    def test_simple_word_no_violation(self, minsky, p_zd):
        x = parse_word("L a0 R")
        for n in (1, 2, 3):
            nf, _ = normalize(Polynomial.from_word(x + ("t",) * n), p_zd)
            assert not nf.is_zero()
            nf, _ = normalize(Polynomial.from_word(("s",) * n + x), p_zd)
            assert not nf.is_zero()

    def test_probe_small(self, p_zd):
        assert cancellation_probe(50, 10, seed=42, presentation=p_zd) == []

    def test_max_len_must_be_positive(self):
        with pytest.raises(ValueError, match="max_len"):
            cancellation_probe(5, 0)

    def test_deterministic_under_seed(self, p_zd):
        assert cancellation_probe(20, 8, seed=7, presentation=p_zd) == \
            cancellation_probe(20, 8, seed=7, presentation=p_zd)

    def test_other_machine_presentation(self, tiny_halt):
        # configuration words come from the tiny machine's own Q<i> and a<k> letters
        p = zerodivisor_presentation(tiny_halt)
        assert cancellation_probe(50, 10, seed=42, presentation=p) == []
        q = Presentation(p.rules + (Rule(("R", "t"), None),), p.order)
        violations = cancellation_probe(50, 10, seed=42, presentation=q)
        assert any(decode_structure(x, ZERO_DIVISOR) is not None for x, _, _ in violations)
        assert all(set(x) <= q.letters for x, _, _ in violations)

    def test_presentation_without_machine_letters(self):
        letters = ("t", "s", "R")
        p = Presentation((Rule(("R", "t"), None),), ReductionOrder(DEGLEX, letters))
        violations = cancellation_probe(30, 6, seed=1, presentation=p)
        assert violations and all(set(x) <= p.letters for x, _, _ in violations)

    def test_every_word_zero(self):
        # no sampled word has a nonzero normal form: an error, not a hang
        letters = ("t", "s", "R")
        p = Presentation(tuple(Rule((x,), None) for x in letters), ReductionOrder(DEGLEX, letters))
        with pytest.raises(ValueError, match="nonzero normal form"):
            cancellation_probe(3, 4, presentation=p)

    def test_reports_violations(self, p_zd):
        # with R t -> 0 added, a word ending in R loses its right t
        q = Presentation(p_zd.rules + (Rule(("R", "t"), None),), p_zd.order)
        violations = cancellation_probe(50, 10, seed=42, presentation=q)
        assert any(kind == "right-t" for _, kind, _ in violations)
        for x, kind, n in violations:
            assert not normalize(Polynomial.from_word(x), q)[0].is_zero()
            w = x + ("t",) * n if kind == "right-t" else ("s",) * n + x
            assert normalize(Polynomial.from_word(w), q)[0].is_zero()


class TestSamplers:
    def test_draws_pinned(self, p_zd):
        # the probe's samplers draw the words of their first-written copies
        # and leave the generator in the same state
        lengths = (1, 3, 4, 6, 12, 15)
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            for i in range(300):
                max_len = lengths[i // 2 % len(lengths)]
                if i % 2:
                    drawn = harness._random_structured_word(rng, 7, 4, max_len)
                    expected = random_structured_word_reference(ref, 7, 4, max_len)
                else:
                    drawn = harness._random_word(rng, p_zd.alphabet, max_len)
                    expected = random_word_reference(ref, p_zd.alphabet, max_len)
                assert drawn == expected and rng.getstate() == ref.getstate(), (seed, i)


def _through_normal_form(x, kind, n, p):
    """NF(X) t^n, or s^n NF(X) with one s multiplied on the left at a time."""
    y, _ = normalize(Polynomial.from_word(x), p)
    if kind == "right-t":
        return normalize(concat(y, Polynomial.from_word(("t",) * n)), p)[0]
    for _ in range(n):
        y, _ = normalize(concat(Polynomial.from_word(("s",)), y), p)
    return y


class TestProbeFromNormalForms:
    """``cancellation_probe`` derives X t^n and s^n X from NF(X), adding one
    s at a time.  On a Gröbner basis that gives the raw words' normal forms;
    on other rule sets each violation is still a reduction to zero."""

    @pytest.mark.parametrize("machine", ["minsky", "tiny"])
    def test_normal_form_readings_agree(self, machine, p_zd, tiny_halt):
        p = p_zd if machine == "minsky" else zerodivisor_presentation(tiny_halt)
        states = sum(x.startswith("Q") for x in p.alphabet)
        colors = sum(x.startswith("a") for x in p.alphabet)
        rng = random.Random(24)
        for i in range(150):
            if i % 2:
                x = harness._random_structured_word(rng, states, colors, 12)
            else:
                x = harness._random_word(rng, p.alphabet, 12)
            for n in (1, 2, 3):
                for kind, w in (("right-t", x + ("t",) * n), ("left-s", ("s",) * n + x)):
                    raw, _ = normalize(Polynomial.from_word(w), p)
                    assert _through_normal_form(x, kind, n, p) == raw, (x, kind, n)

    def test_non_groebner_rules(self):
        # NF(s R) = R and R t -> 0, while the raw s R t^n rewrites s R t -> s
        # first (lowest rule id at position 0) and never reaches zero
        letters = ("t", "s", "R")
        rules = (Rule(("s", "R", "t"), ("s",)), Rule(("s", "R"), ("R",)), Rule(("R", "t"), None))
        p = Presentation(rules, ReductionOrder(DEGLEX, letters))
        violations = cancellation_probe(30, 2, seed=0, presentation=p)
        reference = cancellation_probe_reference(30, 2, seed=0, presentation=p)
        for n in (1, 2, 3):
            assert (("s", "R"), "right-t", n) in violations
        assert all(x != ("s", "R") for x, _, _ in reference)
        assert [v for v in violations if v[0] != ("s", "R")] == reference
        for x, kind, n in violations:
            assert _through_normal_form(x, kind, n, p).is_zero()

    @pytest.mark.parametrize("extra, kind, powers", [
        (("R", "t"), "right-t", {1, 2, 3}),
        (("s", "L"), "left-s", {1, 2, 3}),
        (("s", "s", "L"), "left-s", {2, 3}),  # zero only from the second s on
    ])
    def test_violations_reduce_to_zero(self, extra, kind, powers, p_zd):
        q = Presentation(p_zd.rules + (Rule(extra, None),), p_zd.order)
        violations = cancellation_probe(50, 10, seed=42, presentation=q)
        assert {(k, n) for _, k, n in violations} == {(kind, n) for n in powers}
        assert violations == cancellation_probe_reference(50, 10, seed=42, presentation=q)
        for x, k, n in violations:
            assert _through_normal_form(x, k, n, q).is_zero()


class TestAgainstReference:
    """The deciders on the word normalizer against their loops through the
    public ``normalize``: the same violations in the same order, the same
    outcomes."""

    @pytest.mark.parametrize("machine", ["minsky", "tiny", "tiny_loop"])
    @pytest.mark.parametrize("broken", [False, True])
    def test_probe_violations(self, machine, broken, p_zd, tiny_halt, tiny_loop):
        spec = {"tiny": tiny_halt, "tiny_loop": tiny_loop}.get(machine)
        p = p_zd if spec is None else zerodivisor_presentation(spec)
        if broken:
            p = Presentation(p.rules + (Rule(("R", "t"), None),), p.order)
        found = 0
        for seed in range(3):
            # max_len 1-3 cut the structured words short of a configuration word
            for max_len in (1, 2, 3, 4, 12):
                expected = cancellation_probe_reference(150, max_len, seed=seed, presentation=p)
                assert cancellation_probe(150, max_len, seed=seed, presentation=p) == expected
                found += len(expected)
        assert bool(found) == broken

    @pytest.mark.parametrize("construction", [NILPOTENCY, ZERO_DIVISOR])
    def test_decider_outcomes(self, construction, minsky, p_nilp, p_zd):
        p = p_nilp if construction == NILPOTENCY else p_zd
        rng = random.Random(8)
        configs = [TMConfig((), 4, 3, ()), TMConfig((3,), 2, 3, ()), TMConfig((), 2, 0, ())]
        configs += [TMConfig(tuple(rng.randrange(4) for _ in range(rng.randint(0, 10))), rng.randrange(7),
                             rng.randrange(4), tuple(rng.randrange(4) for _ in range(rng.randint(0, 10))))
                    for _ in range(40)]
        kinds = set()
        for c in configs:
            nmax = rng.randint(1, 25)
            run = tm_run(minsky, c, nmax)
            kinds.add("past nmax" if not run.halted else "at step 0" if run.steps == 0 else "within nmax")
            expected = annihilate_reference(minsky, c, nmax, construction, presentation=p)
            assert annihilate_bounded(minsky, c, nmax, construction, presentation=p) == expected, c
            if construction == ZERO_DIVISOR:
                assert zerodivisor_witness_bounded(minsky, c, nmax, presentation=p) == expected, c
        assert kinds == {"at step 0", "within nmax", "past nmax"}

    @pytest.mark.parametrize("machine, kinds", [
        ("minsky", {"at step 0", "within nmax", "past nmax"}),
        ("tiny_halt", {"at step 0", "within nmax", "past nmax"}),
        ("tiny_loop", {"past nmax"}),
    ])
    def test_nilpotent_outcomes(self, machine, kinds, request):
        spec = request.getfixturevalue(machine)
        p = nilpotency_presentation(spec)
        halts = sorted(pair for pair, move in spec.table.items() if move is STOP)
        rng = random.Random(21)
        seen = set()
        for i in range(45):
            # every third configuration has 100 to 130 cells; every fifth
            # starts on a halt pair, where the machine has one
            cells = rng.randint(100, 130) if i % 3 == 0 else rng.randint(0, 12)
            left = rng.randint(0, cells)
            tape = [rng.randrange(spec.colors) for _ in range(cells)]
            state, color = rng.randrange(spec.states), rng.randrange(spec.colors)
            if halts and i % 5 == 0:
                state, color = rng.choice(halts)
            c = TMConfig(tuple(tape[:left]), state, color, tuple(tape[left:]))
            nmax = rng.randint(1, 12)
            run = tm_run(spec, c, nmax)
            seen.add("past nmax" if not run.halted else "at step 0" if run.steps == 0 else "within nmax")
            expected = nilpotent_reference(spec, c, nmax, presentation=p)
            assert nilpotent_bounded(spec, c, nmax, presentation=p) == expected, c
            # and the machine alone predicts it
            assert expected == (DecisionOutcome.found(max(1, run.steps)) if run.halted
                                else DecisionOutcome.unknown(nmax)), c
        assert seen == kinds

    @pytest.mark.parametrize("machine", ["minsky", "tiny_halt", "tiny_loop"])
    def test_bracketings_agree(self, machine, request):
        # (t w)^n reduces to one normal form whether each power multiplies
        # the previous one on the right or on the left (a Gröbner basis)
        spec = request.getfixturevalue(machine)
        p = nilpotency_presentation(spec)
        rng = random.Random(34)
        zeros = 0
        for _ in range(20):
            c = TMConfig(tuple(rng.randrange(spec.colors) for _ in range(rng.randint(0, 15))),
                         rng.randrange(spec.states), rng.randrange(spec.colors),
                         tuple(rng.randrange(spec.colors) for _ in range(rng.randint(0, 15))))
            base = Polynomial.from_word(("t",) + encode_config(c, NILPOTENCY))
            right = left = Polynomial.from_word(())
            for _ in range(6):
                right, _ = normalize(concat(right, base), p)
                left, _ = normalize(concat(base, left), p)
                assert left == right, c
            zeros += right.is_zero()
        assert zeros < 20 and (zeros > 0) == (machine != "tiny_loop")


class TestConservation:
    def test_deg_t_and_htilde_invariance(self, p_nilp, p_zd):
        rng = random.Random(13)
        for p, invariant in ((p_nilp, deg_t), (p_zd, htilde)):
            letters = list(p.alphabet)
            for _ in range(500):
                rule = p.rules[rng.randrange(len(p.rules))]
                if rule.rhs is None:
                    continue
                prefix = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                suffix = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                before = prefix + rule.lhs + suffix
                after = prefix + rule.rhs + suffix
                assert invariant(before) == invariant(after)
