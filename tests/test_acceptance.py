"""Acceptance criteria, one test per criterion, each printing PASS on success."""

import itertools
import random
import time

from ncrewrite import (
    NILPOTENCY,
    ZERO_DIVISOR,
    Polynomial,
    TMConfig,
    annihilate_bounded,
    cancellation_probe,
    encode_config,
    find_ambiguities,
    lockstep,
    nilpotent_bounded,
    nilpotency_order,
    nilpotency_presentation,
    normalize,
    phi_alphabet,
    psi_alphabet,
    tm_run,
    zerodivisor_order,
    zerodivisor_presentation,
    zerodivisor_witness_bounded,
)
from ncrewrite.groebner import audit_order, audit_orientation
from oracles import LeftmostOracle, RightmostOracle, config_word, deg_t, htilde, one_step_rewrites


def report(num, label):
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_groebner_certificate(p_nilp, p_zd):
    t0 = time.perf_counter()
    assert find_ambiguities(p_nilp) == []
    assert find_ambiguities(p_zd) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "zero ambiguities in both presentations")


def test_criterion_2_orientation(p_nilp, p_zd):
    t0 = time.perf_counter()
    assert audit_orientation(p_nilp) == []
    assert audit_orientation(p_zd) == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "every rule oriented lhs > rhs")


def test_criterion_3_order_axioms():
    t0 = time.perf_counter()
    audits = [
        (nilpotency_order(), ("t", "a0", "R"), 7),
        (zerodivisor_order(), ("t", "s", "a0", "L", "R"), 6),
        (nilpotency_order(), phi_alphabet(), 3),
        (zerodivisor_order(), psi_alphabet(), 3),
    ]
    for order, alphabet, max_len in audits:
        r = audit_order(order, alphabet, max_len)
        assert r.ok, (order.kind, len(alphabet), max_len, r.violations[:5])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, "order axioms hold exhaustively to length 7 (nilpotency) and 6 (zero-divisor) "
              "on sub-alphabets, and to length 3 on both full alphabets")


def test_criterion_4_confluence(p_nilp, p_zd):
    # uniform words rarely hold the 4-to-6-letter lhs of a compute rule;
    # configuration words with a t to their left always reach one
    rng = random.Random(2024)
    for p in (p_nilp, p_zd):
        leftmost = LeftmostOracle(p.rules)
        rightmost = RightmostOracle(p.rules)
        letters = list(p.alphabet)
        uniform = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 30))) for _ in range(500)]
        configs = [config_word(rng, p.construction) for _ in range(500)]
        for w in uniform + configs:
            nf, steps = normalize(Polynomial.from_word(w), p)
            assert (nf, steps) == leftmost.normalize(w), w
            assert nf == rightmost.normal_form(w), w
    report(4, "normalize agrees with a leftmost-redex oracle (normal form and steps) and a "
              "rightmost-redex oracle on 500 uniform and 500 configuration words each")


def test_criterion_5_lockstep(minsky, p_nilp, p_zd):
    rng = random.Random(77)
    configs = [
        TMConfig(
            tuple(rng.randrange(4) for _ in range(rng.randint(0, 3))),
            rng.randrange(7),
            rng.randrange(4),
            tuple(rng.randrange(4) for _ in range(rng.randint(0, 3))),
        )
        for _ in range(20)
    ]
    for p, construction in ((p_nilp, NILPOTENCY), (p_zd, ZERO_DIVISOR)):
        for c0 in configs:
            rep = lockstep(minsky, c0, 50, construction, presentation=p)
            assert rep.ok, (construction, c0, rep.divergence)
            if rep.halted:
                assert rep.records[-1].actual.is_zero()
    report(5, "20 configs x 50 steps, no divergence, zero at stop")


def test_criterion_6_theorem1_witness(minsky, p_nilp):
    near_halt = TMConfig((3,), 2, 3, ())
    assert tm_run(minsky, near_halt, 10).steps == 1  # machine oracle
    at_halt = TMConfig((), 4, 3, ())
    for c in (near_halt, at_halt):
        nil = nilpotent_bounded(minsky, c, 3, presentation=p_nilp)
        ann = annihilate_bounded(minsky, c, 3, presentation=p_nilp)
        assert nil.witnessed and nil.value == 1
        assert ann.witnessed and ann.value == 1
    report(6, "nilpotency and t^N annihilation witnessed at 1")


def test_criterion_7_theorem2_witness(minsky, p_zd):
    for c in (TMConfig((3,), 2, 3, ()), TMConfig((), 4, 3, ())):
        out = zerodivisor_witness_bounded(minsky, c, 3, presentation=p_zd)
        assert out.witnessed and out.value == 1
    report(7, "zero-divisor witness t^1 for both fixtures")


def test_criterion_8_negative_control(tiny_loop):
    p_n = nilpotency_presentation(tiny_loop)
    p_z = zerodivisor_presentation(tiny_loop)
    configs = [
        TMConfig((), 0, 0, ()),
        TMConfig((1,), 0, 1, ()),
        TMConfig((), 1, 0, (1,)),
        TMConfig((1,), 1, 1, (1,)),
    ]
    for c in configs:
        assert not tm_run(tiny_loop, c, 20).halted
        assert not nilpotent_bounded(tiny_loop, c, 20, presentation=p_n).witnessed
        assert not annihilate_bounded(tiny_loop, c, 20, presentation=p_n).witnessed
        assert not zerodivisor_witness_bounded(tiny_loop, c, 20, presentation=p_z).witnessed
    report(8, "loop-only machine: all deciders unknown at 20")


def test_criterion_9_invariants(p_nilp, p_zd):
    rng = random.Random(90)
    for p, invariant in ((p_nilp, deg_t), (p_zd, htilde)):
        letters = list(p.alphabet)
        for _ in range(10_000):
            rule = p.rules[rng.randrange(len(p.rules))]
            if rule.rhs is None:
                continue
            prefix = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            suffix = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            assert invariant(prefix + rule.lhs + suffix) == invariant(prefix + rule.rhs + suffix)
    report(9, "deg_t / h-tilde conserved over 10k rule applications each")


def test_criterion_10_cancellation(p_zd):
    assert cancellation_probe(1000, 12, seed=3, presentation=p_zd) == []
    report(10, "1000-sample cancellation probe clean")


def _zero_reachable(w, rules, depth):
    frontier = {w}
    seen = {w}
    for _ in range(depth):
        nxt = set()
        for u in frontier:
            zero, outs = one_step_rewrites(u, rules)
            if zero:
                return True
            nxt |= outs - seen
        seen |= nxt
        frontier = nxt
        if not frontier:
            return False
    return False


def test_criterion_11_small_instance_oracle(tiny_halt):
    t0 = time.perf_counter()
    presentations = [
        (nilpotency_presentation(tiny_halt), NILPOTENCY),
        (zerodivisor_presentation(tiny_halt), ZERO_DIVISOR),
    ]
    tapes = [(), (1,)]
    for p, construction in presentations:
        for state, color, u, v in itertools.product(range(2), range(2), tapes, tapes):
            c0 = TMConfig(u, state, color, v)
            w = ("t",) + encode_config(c0, construction)
            brute = _zero_reachable(w, p.rules, 12)
            nf, _ = normalize(Polynomial.from_word(w), p)
            assert brute == nf.is_zero(), (construction, c0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(11, "chain enumeration agrees with normalize on 16 configs")
