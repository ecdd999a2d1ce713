import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncrewrite import (
    NILPOTENCY,
    ZERO_DIVISOR,
    AlphabetError,
    Move,
    Polynomial,
    Presentation,
    Rule,
    TMConfig,
    TMSpec,
    encode_config,
    format_presentation,
    make_presentation,
    minsky_utm,
    nilpotency_presentation,
    normalize,
    parse_presentation,
    parse_word,
    psi_alphabet,
    tm_step,
    zerodivisor_presentation,
)
from ncrewrite.groebner import audit_orientation
from ncrewrite.orders import DEGLEX, ReductionOrder
from ncrewrite.words import check_alphabet
from oracles import decode_structure, rewrite_at, tiny_halting_machine, tiny_looping_machine


def left_only_machine():
    return TMSpec(1, 1, {(0, 0): Move("L", 0, 0)})


def rule_by_tag(p, tag):
    matches = [r for r in p.rules if r.tag == tag]
    assert len(matches) == 1, tag
    return matches[0]


class TestNilpotencyPresentation:
    def test_stop_rule(self, p_nilp):
        r = rule_by_tag(p_nilp, "tt7[i=4,j=3]")
        assert r.lhs == ("Q4", "P3") and r.rhs is None

    def test_tt3_instance(self, p_nilp):
        r = rule_by_tag(p_nilp, "tt3[i=2,j=3,k=1]")
        assert r.lhs == parse_word("t a1 Q2 P3")
        assert r.rhs == parse_word("Q4 P1 t a1")

    def test_no_left_schemata_without_left_pairs(self, tiny_loop):
        p = nilpotency_presentation(tiny_loop)
        assert not any(r.tag.startswith(("tt3", "tt5")) for r in p.rules)
        assert not any(r.rhs is None for r in p.rules)

    def test_rule_count(self, p_nilp):
        # 4+4+16 movement, left: 13*(4+1), right: 14*(64+16+16+4+4+1), one stop
        assert len(p_nilp.rules) == 24 + 13 * 5 + 14 * 105 + 1

    def test_closure_and_orientation(self, p_nilp):
        for r in p_nilp.rules:
            check_alphabet(r.lhs, p_nilp.letters)
            if r.rhs is not None:
                check_alphabet(r.rhs, p_nilp.letters)
        assert audit_orientation(p_nilp) == []


class TestZeroDivisorPresentation:
    def test_td5_instance(self, p_zd):
        r = rule_by_tag(p_zd, "td5[i=0,j=1]")
        assert r.lhs == parse_word("t L Q0 P1")
        assert r.rhs == parse_word("L Q1 P0 a3 s")

    def test_td9(self, p_zd):
        r = rule_by_tag(p_zd, "td9")
        assert r.lhs == ("s", "R") and r.rhs == ("R", "s")

    def test_no_right_schemata_without_right_pairs(self):
        p = zerodivisor_presentation(left_only_machine())
        assert not any(r.tag.startswith(("td4", "td6")) for r in p.rules)

    def test_closure_and_orientation(self, p_zd):
        for r in p_zd.rules:
            check_alphabet(r.lhs, p_zd.letters)
            if r.rhs is not None:
                check_alphabet(r.rhs, p_zd.letters)
        assert audit_orientation(p_zd) == []


MACHINES = {
    "minsky": minsky_utm,
    "tiny_halting": tiny_halting_machine,
    "tiny_looping": tiny_looping_machine,
    "left_only_1x1": left_only_machine,
}


class TestCompiledText:
    """The compiler's whole output, rule order and tags included, is pinned."""

    @pytest.mark.parametrize("machine,construction,rules,digest", [
        ("minsky", NILPOTENCY, 1560, "dfa548c4f55c1ced6da0cd26cfca8455a9ef1dc6ea3d02b9e73fe0f0133e1e0c"),
        ("minsky", ZERO_DIVISOR, 441, "5ca6ff0a8452d989fd2f5f2bf6654f01d6428d6ccfc962bb183a2611babe1e4d"),
        ("tiny_halting", NILPOTENCY, 36, "4be3f1f80d0184d538f1cef333d68283d32c793381137c0ff269fca6efcbb763"),
        ("tiny_halting", ZERO_DIVISOR, 25, "11d40c67e28997bdd530ee1cd123b544138c0edd7dff98a3e00336209659252b"),
        ("tiny_looping", NILPOTENCY, 92, "a1343efca70aca1d6331a6973c71d9f1d602fc0a9cacba13d50b66e980a3fd34"),
        ("tiny_looping", ZERO_DIVISOR, 45, "54990fbdf1c68473880e4c557981fe388d57ea71183df2eb9eb3f2530745c81e"),
        ("left_only_1x1", NILPOTENCY, 5, "a533f863e27fb11fdfbf216eb7a7bc63f7e4e377ed3a05c51fc1e9c6b80aa5a5"),
        ("left_only_1x1", ZERO_DIVISOR, 6, "0e8b9494bb9a6d1fef7e21d56c90afc6bf5701f46eea4e5b0ab97cec35239c09"),
    ])
    def test_sha256(self, machine, construction, rules, digest):
        p = make_presentation(MACHINES[machine](), construction)
        assert len(p.rules) == rules
        assert hashlib.sha256(format_presentation(p).encode()).hexdigest() == digest


class TestEncodeDecode:
    @pytest.mark.parametrize("c,construction,expected", [
        (TMConfig((), 4, 3, ()), NILPOTENCY, "R Q4 P3 R"),
        (TMConfig((3,), 2, 3, ()), ZERO_DIVISOR, "L a3 Q2 P3 R"),
        (TMConfig((2, 0), 0, 1, (1,)), NILPOTENCY, "R a2 a0 Q0 P1 a1 R"),
    ])
    def test_encode(self, c, construction, expected):
        assert encode_config(c, construction) == parse_word(expected)

    def test_decode_skips_t(self):
        c = decode_structure(parse_word("R Q4 P1 a1 t a0 R"), NILPOTENCY)
        assert c == TMConfig((), 4, 1, (1, 0))

    @pytest.mark.parametrize("bad", ["t t t", "R Q4 R", "R Q1 Q2 P0 R", "R P0 Q1 R", "L Q0 P0 R", "R a0 P0 R"])
    def test_decode_malformed(self, bad):
        assert decode_structure(parse_word(bad), NILPOTENCY) is None

    @pytest.mark.parametrize("tokens", [("L", "Qx", "P0", "R"), ("L", "a", "Q0", "P0", "R"), ("L", "Q0", "P", "R")])
    def test_decode_tokens_that_are_not_letters(self, tokens):
        # parse_word refuses these tokens, so the tuples are built by hand
        assert decode_structure(tokens, ZERO_DIVISOR) is None

    def test_unknown_construction(self):
        c = TMConfig((), 4, 3, ())
        with pytest.raises(ValueError, match="unknown construction 'bogus'"):
            encode_config(c, "bogus")

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            c = TMConfig(
                tuple(rng.randrange(4) for _ in range(rng.randint(0, 4))),
                rng.randrange(7),
                rng.randrange(4),
                tuple(rng.randrange(4) for _ in range(rng.randint(0, 4))),
            )
            for construction in (NILPOTENCY, ZERO_DIVISOR):
                assert decode_structure(encode_config(c, construction), construction) == c


COMPUTE_SCHEMATA = ("tt3", "tt4", "tt5", "tt6", "td3", "td4", "td5", "td6")


class TestStructureEvolution:
    def test_single_rewrites_track_machine(self, minsky, p_nilp, p_zd):
        rng = random.Random(9)
        for p, construction in ((p_nilp, NILPOTENCY), (p_zd, ZERO_DIVISOR)):
            checked_compute = 0
            for _ in range(300):
                c = TMConfig(
                    tuple(rng.randrange(4) for _ in range(rng.randint(0, 3))),
                    rng.randrange(7),
                    rng.randrange(4),
                    tuple(rng.randrange(4) for _ in range(rng.randint(0, 3))),
                )
                w = ("t",) * rng.randint(1, 2) + encode_config(c, construction)
                hits = p.matcher.redexes(w)
                if not hits:
                    continue
                pos, rid = hits[rng.randrange(len(hits))]
                rule = p.rules[rid]
                w2 = rewrite_at(w, pos, rule)
                if w2 is None:
                    continue
                before = decode_structure(w, construction)
                after = decode_structure(w2, construction)
                if rule.tag.startswith(COMPUTE_SCHEMATA):
                    checked_compute += 1
                    assert after == tm_step(minsky, before)
                else:
                    assert after == before
            assert checked_compute > 10


class TestPresentationText:
    def test_roundtrip(self, p_nilp, p_zd):
        for p in (p_nilp, p_zd):
            q = parse_presentation(format_presentation(p))
            assert q.alphabet == p.alphabet
            assert q.rules == p.rules
            assert q.order.kind == p.order.kind
            assert q.construction == p.construction

    @given(data=st.data())
    def test_roundtrip_random(self, data):
        alphabet = tuple(data.draw(st.lists(st.sampled_from(psi_alphabet()), min_size=1, unique=True)))
        word = st.lists(st.sampled_from(alphabet), max_size=5).map(tuple)
        # a tag is one line of text with no surrounding whitespace
        tag = st.text().filter(lambda s: s == s.strip() and s.splitlines() in ([], [s]))
        rules = tuple(data.draw(st.lists(st.builds(
            Rule, word.filter(bool), st.none() | word, tag), max_size=8)))
        p = Presentation(rules, ReductionOrder(DEGLEX, alphabet))
        q = parse_presentation(format_presentation(p))
        assert (q.alphabet, q.order.kind, q.construction) == (alphabet, DEGLEX, "custom")
        assert q.rules == p.rules

    @pytest.mark.parametrize("tag", [
        "x\nrule: a0 -> eps", "x\n", "\n", " x", "x ", "\tx", "a\rb", "a\r\nb", "a\x0bb", "a\x1cb", "a\u2028b",
    ])
    def test_tag_that_would_not_read_back(self, tag):
        # a line break would inject text into the file, and the parser strips a tag
        order = ReductionOrder(DEGLEX, ("t", "a0"))
        for rid in (0, 1):
            rules = (Rule(("a0",), None, "fine # tag"),) * rid + (Rule(("t",), None, tag),)
            with pytest.raises(ValueError) as exc:
                format_presentation(Presentation(rules, order))
            assert type(exc.value) is ValueError
            assert str(exc.value).startswith(f"rule {rid}: tag {tag!r} ")

    def test_parsed_presentation_rewrites(self, p_nilp):
        q = parse_presentation(format_presentation(p_nilp))
        w = parse_word("t R a1 Q2 P3 a0 R")
        nf, _ = normalize(Polynomial.from_word(w), q)
        assert nf == Polynomial.from_word(parse_word("R Q4 P1 a1 a0 R t"))

    @pytest.mark.parametrize("text,bad", [
        ("alphabet: t R\norder: nilpotency\nrule: t Q3 -> R\n", "'Q3'"),
        ("alphabet: t R\norder: nilpotency\nrule: t R -> R a0\n", "'a0'"),
        ("rule: t Q3 -> 0\nalphabet: t R\norder: nilpotency\n", "'Q3'"),
        ("alphabet: t x9 R\norder: nilpotency\nrule: t R -> R t\n", "'x9'"),
        # one letter, one spelling: a00 is not a second a0
        ("alphabet: t a0 a00 R\norder: deglex\nrule: t a0 -> R\n", "^not a letter: 'a00'$"),
        # a nilpotency order has no place for s or L, used by a rule or not
        ("alphabet: t s a0 R\norder: nilpotency\nrule: t R -> R t\n", "^letter 's' not allowed in a nilpotency order$"),
        ("alphabet: t a0 L R\norder: nilpotency\n", "^letter 'L' not allowed in a nilpotency order$"),
    ])
    def test_rejects_letters_outside_alphabet(self, text, bad):
        with pytest.raises(AlphabetError, match=bad):
            parse_presentation(text)

    HEADER = "alphabet: t a0 R\norder: deglex\n"

    def test_rule_sides_and_tags(self):
        q = parse_presentation(self.HEADER + (
            "# a comment line\n"
            "rule: t a0 -> eps\n"
            "rule:  t R ->  0   #  tt1[i=0]  \n"
            "rule: a0 a0 -> R # one # two\n"
            "rule: R t->t R#\n"
        ))
        assert q.rules == (
            Rule(("t", "a0"), ()),
            Rule(("t", "R"), None, "tt1[i=0]"),
            Rule(("a0", "a0"), ("R",), "one # two"),
            Rule(("R", "t"), ("t", "R")),
        )
        assert (q.alphabet, q.order.kind, q.construction) == (("t", "a0", "R"), "deglex", "custom")

    @pytest.mark.parametrize("rule,error,message", [
        ("rule: eps -> R", ValueError, "rule lhs must be nonempty"),
        ("rule:  -> R", ValueError, "rule lhs must be nonempty"),
        ("rule: eps -> 0", ValueError, "rule lhs must be nonempty"),
        ("rule: t R R", ValueError, "bad rule line: 'rule: t R R'"),
        # the presentation names a letter outside the alphabet with its rule number and text
        ("rule: 0 -> R", AlphabetError, "letter '0' outside alphabet in rule 0: 0 -> R"),
        ("rule: t R -> 0 R", AlphabetError, "letter '0' outside alphabet in rule 0: t R -> 0 R"),
        ("rule: t eps -> R", AlphabetError, "letter 'eps' outside alphabet in rule 0: t eps -> R"),
        ("  rule: t Q1 -> a1  # tag", AlphabetError, "letter 'Q1' outside alphabet in rule 0: t Q1 -> a1"),
        ("rule: t R -> a1 Q1", AlphabetError, "letter 'a1' outside alphabet in rule 0: t R -> a1 Q1"),
        ("rule: t -> eps a0", AlphabetError, "letter 'eps' outside alphabet in rule 0: t -> eps a0"),
        ("rule: t a0 -> s", AlphabetError, "letter 's' outside alphabet in rule 0: t a0 -> s"),
        ("rule: t -> ", ValueError, "bad rule line: 'rule: t -> '"),
        ("rule: t -> # tag", ValueError, "bad rule line: 'rule: t -> # tag'"),
        ("t a0 -> R", ValueError, "bad line: 't a0 -> R'"),  # no rule: prefix, a stray line
    ])
    def test_rule_line_errors(self, rule, error, message):
        with pytest.raises(error) as exc:
            parse_presentation(self.HEADER + rule + "\n")
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_rule_numbered_among_the_rules(self):
        # the number counts rules, not lines: comments, headers and blank lines are skipped
        text = self.HEADER + "# one\n\nrule: t a0 -> R\nrule: a0 -> eps # tag\nrule: R R -> t zz\n"
        with pytest.raises(AlphabetError) as exc:
            parse_presentation(text)
        assert str(exc.value) == "letter 'zz' outside alphabet in rule 2: R R -> t zz"

    @pytest.mark.parametrize("text,error,message", [
        # the presentation refuses an empty lhs before it checks any letter
        (HEADER + "rule: eps -> R\nrule: zz -> R\n", ValueError, "rule lhs must be nonempty"),
        (HEADER + "rule: zz -> R\nrule: eps -> R\n", ValueError, "rule lhs must be nonempty"),
        # every line is read, and the order built, before the rules are checked
        (HEADER + "rule: zz -> R\nrule: t R R\n", ValueError, "bad rule line: 'rule: t R R'"),
        ("alphabet: t s a0 R\norder: nilpotency\nrule: zz -> R\n", AlphabetError,
         "letter 's' not allowed in a nilpotency order"),
    ], ids=["empty-lhs-first", "empty-lhs-second", "bad-rule-line", "refused-order"])
    def test_reported_before_a_bad_letter(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_presentation(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_rule_letters_interned(self):
        # a rule letter is the alphabet's own string object, as a compiled presentation's is
        q = parse_presentation(self.HEADER + "rule: t a0 -> R\n")
        assert all(x is y for x, y in zip(q.rules[0].lhs + q.rules[0].rhs, ("t", "a0", "R"), strict=True))

    @pytest.mark.parametrize("text", [
        "order: deglex\nrule: t a0 -> R\n",
        "alphabet: t a0 R\nrule: t a0 -> R\n",
        "alphabet:\norder: deglex\n",
        "alphabet: t a0 R\norder:  \n",
        "",
    ])
    def test_missing_header(self, text):
        with pytest.raises(ValueError) as exc:
            parse_presentation(text)
        assert str(exc.value) == "missing alphabet/order header"

    @pytest.mark.parametrize("text,error,message", [
        # the first bad line in file order, before a later bad line, a missing header or a bad alphabet
        (HEADER + "rule: t R R\njunk\n", ValueError, "bad rule line: 'rule: t R R'"),
        (HEADER + "rule: t R R\norder: deglex\n", ValueError, "bad rule line: 'rule: t R R'"),
        ("rule: t R R\n", ValueError, "bad rule line: 'rule: t R R'"),
        ("alphabet: t a00 R\norder: deglex\nrule: t R R\n", ValueError, "bad rule line: 'rule: t R R'"),
        # then what the order refuses: its kind, then a repeated letter, then a token that is not a letter
        ("alphabet: eps\norder: deglex\n", AlphabetError, "not a letter: 'eps'"),
        ("alphabet: a00 a00\norder: deglex\n", ValueError, "order precedence repeats a letter: a00 a00"),
        ("alphabet: t a00\norder: bogus\n", ValueError, "unknown order kind 'bogus'"),
    ], ids=["before-a-stray-line", "before-a-second-header", "before-a-missing-header",
            "before-a-bad-alphabet", "eps-alphabet", "repeated-letter", "kind-before-letters"])
    def test_one_error_order(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_presentation(text)
        assert type(exc.value) is error
        assert str(exc.value) == message
