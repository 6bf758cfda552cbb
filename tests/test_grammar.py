import random

import pytest

from lcfrs import bundled
from lcfrs.grammar import (
    Grammar,
    GrammarError,
    Rule,
    Var,
    analyze,
    config_set,
    configurations,
    contact_rank,
    delta,
    is_balanced,
    is_single_initial,
    parse_grammar,
    per_rule_d,
    structural_delta,
    to_single_initial,
    validate,
)
from lcfrs.oracle import enumerate_language
from lcfrs.recognizer import space_rank

from conftest import random_grammar

TAG_RULE = "A -> A B : b1 g1 , g2 b2"
ITG_STRAIGHT = "Z -> Z Z : b1 g1 , b2 g2"
ITG_INVERTED = "Z -> Z Z : b1 g1 , g2 b2"


def one_rule(text):
    """Parse one binary rule inside a minimal valid grammar and return it.

    When the rule's head has fan-out > 1 a fresh start rule is wrapped
    around it, since a grammar's start symbol must cover a single span.
    """
    lhs = text.split()[0]
    r1, r2 = text.split("->")[1].split(":")[0].split()
    body = text.split(":", 1)[1]
    fo = {lhs: body.count(",") + 1}
    fo[r1] = max(int(v[1:]) for v in body.split() if v.startswith("b"))
    fo[r2] = max(int(v[1:]) for v in body.split() if v.startswith("g"))
    lines = ["start %s" % (lhs if fo[lhs] == 1 else "S")]
    if fo[lhs] != 1:
        inter = " ".join("b%d g%d" % (k, k) for k in range(1, fo[lhs] + 1))
        lines.append("S -> %s W : %s" % (lhs, inter))
        fo["W"] = fo[lhs]
    lines.append(text)
    for nt, k in fo.items():
        lines.append("%s -> : %s" % (nt, " , ".join("'t%d'" % i for i in range(k))))
    g = parse_grammar("\n".join(lines) + "\n")
    return next(r for r in g.rules if str(r) == text)


class TestParsing:
    def test_round_trip(self):
        for name in bundled.NAMES:
            text = bundled.grammar_text(name)
            g = parse_grammar(text)
            again = parse_grammar(
                "start %s\n" % g.start + "\n".join(str(r) for r in g.rules)
            )
            assert [str(r) for r in again.rules] == [str(r) for r in g.rules]
            assert again.fanout == g.fanout

    def test_comment_handling_is_quote_aware(self):
        g = parse_grammar(
            "start S  # trailing comment\n"
            "S -> : '#'  # the quoted hash is a terminal\n"
        )
        assert g.terminals == {"#"}

    def test_quotes_bound_one_terminal(self):
        # a quoted terminal holds no space and is closed on its token; a
        # quoted '#' or ',' is a terminal, and '' an empty span
        for body, message in ((": 'a b'", "bad terminal token"), (": 'a", "bad terminal token"),
                              (": a'", "bad terminal token"), (": 'a' '", "bad terminal token"),
                              (": 'a # b'", "bad terminal token"),
                              ("A A : b1 ' g1", "bad variable")):
            with pytest.raises(GrammarError, match=message):
                parse_grammar("start S\nS -> %s\nA -> : 'a'\n" % body)
        g = parse_grammar("start S\nS -> A B : b1 g1 b2 g2  # A's '#\n"
                          "A -> : '#' , ''\nB -> : ',' 'x' , 'y'\n")
        assert {r.lhs: r.words for r in g.rules if not r.is_binary} == {
            "A": (("#",), ()), "B": ((",", "x"), ("y",))}

    def test_empty_span_syntax(self):
        g = parse_grammar(
            "start S\nS -> A B : b1 g1 b2 g2\n"
            "A -> : 'a' , ''\nB -> : 'b' , 'd'\n"
        )
        a_rule = next(r for r in g.rules if r.lhs == "A")
        assert a_rule.words == (("a",), ())
        assert g.fanout["A"] == 2

    def test_missing_start_raises(self):
        with pytest.raises(GrammarError):
            parse_grammar("S -> : 'a'\n")

    def test_unknown_variable_raises(self):
        with pytest.raises(GrammarError):
            parse_grammar("start S\nS -> A B : b1 g3\nA -> : 'a'\nB -> : 'b'\n")

    def test_malformed_line_raises(self):
        with pytest.raises(GrammarError):
            parse_grammar("start S\nS -> A :\n")

    def test_fanout_consistency_enforced(self):
        # A used with one span here but two in its lexical rule
        with pytest.raises(GrammarError):
            parse_grammar(
                "start S\nS -> A B : b1 g1\n"
                "A -> : 'a' , 'c'\nB -> : 'b'\n"
            )


class TestValidate:
    def test_bundled_grammars_are_clean(self, grammars):
        for name, g in grammars.items():
            assert validate(g) == [], name

    def test_first_variable_must_be_b1(self):
        with pytest.raises(GrammarError, match="must start with b1"):
            parse_grammar("start S\nS -> A B : g1 b1\nA -> : 'a'\nB -> : 'b'\n")

    def test_same_side_adjacency_rejected(self):
        with pytest.raises(GrammarError, match="adjacent same-side"):
            parse_grammar(
                "start S\nS -> A B : b1 b2 g1\n"
                "A -> : 'a' , 'c'\nB -> : 'b'\n"
            )

    def test_side_index_order_enforced(self):
        with pytest.raises(GrammarError, match="out of order"):
            parse_grammar(
                "start S\n"
                "S -> A B : b1 g1 b2 g2\n"
                "A -> T U : b1 g2 , g1 b2\n"
                "T -> : 't' , 'u'\n"
                "U -> : 'v' , 'w'\n"
                "B -> : 'b' , 'd'\n"
            )

    def test_start_must_have_fanout_one(self):
        with pytest.raises(GrammarError, match="single span"):
            parse_grammar("start S\nS -> : 'a' , 'b'\n")

    def test_all_empty_lexical_rejected(self):
        with pytest.raises(GrammarError, match="no terminals"):
            parse_grammar("start S\nS -> : ''\n")

    def test_variables_must_be_used_exactly_once(self):
        with pytest.raises(GrammarError, match="non-linear"):
            parse_grammar(
                "start S\nS -> A B : b1 g1 b1\nA -> : 'a'\nB -> : 'b'\n"
            )

    def test_validate_lists_problems_without_parsing(self):
        r = Rule(0, "S", ("A", "A"), ((Var("g", 1), Var("b", 1)),), None, (1, 1, 1))
        lex = Rule(1, "A", None, None, (("a",),), (1, 0, 0))
        g = Grammar(
            "S", (r, lex), {"S": 1, "A": 1}, frozenset({"S", "A"}), frozenset({"a"})
        )
        problems = validate(g)
        assert any("must start with b1" in p for p in problems)


class TestDelta:
    def test_wrapping_rule(self):
        r = one_rule(TAG_RULE)
        assert structural_delta(r) == 2
        assert delta(r) == 2

    def test_single_template_concatenation(self):
        r = one_rule("S -> A B : b1 g1 b2 g2")
        assert structural_delta(r) == 3

    def test_formula_matches_structure_on_random_rules(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_grammar(rng)
            for r in g.binary_rules():
                assert structural_delta(r) == delta(r), str(r)


class TestConfigurations:
    def test_straight_combination(self):
        cfg1, cfg2, cfg3 = configurations(one_rule(ITG_STRAIGHT))
        assert cfg2 == frozenset({1, 3})
        assert cfg3 == frozenset({1, 3})
        assert cfg1 == frozenset({1, 3})

    def test_inverted_combination(self):
        cfg1, cfg2, cfg3 = configurations(one_rule(ITG_INVERTED))
        assert cfg2 == frozenset({1, 4})
        assert cfg3 == frozenset({1, 4})
        assert cfg1 == frozenset({1, 4})

    def test_sizes_follow_delta(self):
        rng = random.Random(12)
        for _ in range(100):
            g = random_grammar(rng)
            for r in g.binary_rules():
                cfg1, cfg2, cfg3 = configurations(r)
                fa, fb, fc = r.fo
                assert len(cfg2) + delta(r) == 2 * fb
                assert len(cfg3) == delta(r)
                # the head keeps exactly the first child's outer endpoints
                assert len(cfg1) == len(cfg2) == fa + fb - fc

    def test_selection_matches_span_interleaving(self):
        """Lay the rule out on concrete spans and check each configuration
        picks exactly the endpoints its matrix role keeps."""
        rng = random.Random(13)
        for _ in range(60):
            g = random_grammar(rng)
            for r in g.binary_rules():
                self._check_rule(r, rng)

    @staticmethod
    def _check_rule(r, rng):
        fa, fb, fc = r.fo
        pos = rng.randint(0, 3)
        spans = {}
        a_spans = []
        for template in r.comp:
            pos += rng.randint(1, 3)  # gap between output spans
            start = pos
            for v in template:
                end = pos + rng.randint(1, 3)
                spans[v] = (pos, end)
                pos = end
            a_spans.append((start, pos))

        def eps(pairs):
            return sorted(p for s in pairs for p in s)

        b_ep = eps(spans[v] for v in spans if v.side == "b")
        c_ep = eps(spans[v] for v in spans if v.side == "g")
        a_ep = eps(a_spans)
        cfg1, cfg2, cfg3 = configurations(r)

        def select(ep, cfg):
            return [ep[t - 1] for t in sorted(cfg)]

        i = select(b_ep, cfg2)
        k = select(c_ep, cfg3)
        j = [p for p in a_ep]
        for p in i:
            j.remove(p)
        assert sorted(i + k) == b_ep
        assert sorted(k + j) == c_ep
        assert select(a_ep, cfg1) == i


class TestContactRank:
    def test_bundled_values(self, grammars):
        got = {name: contact_rank(g) for name, g in grammars.items()}
        assert got == {
            "cfg_anbn": 1,
            "count4": 3,
            "tag_style": 2,
            "itg_sep": 3,
            "dual_initial_demo": 3,
        }

    def test_lexical_only_grammar(self):
        g = parse_grammar("start S\nS -> : 'a'\n")
        assert contact_rank(g) == 1

    def test_per_rule_value_on_concatenation(self):
        assert per_rule_d(one_rule("S -> A B : b1 g1 b2 g2")) == 3

    def test_space_rank_leaves_out_start_rules(self, grammars):
        got = {name: space_rank(g) for name, g in grammars.items()}
        assert got == {
            "cfg_anbn": 1,          # its start symbol is on a right-hand side
            "count4": 2,
            "tag_style": 2,
            "itg_sep": 2,
            "dual_initial_demo": 2,  # 3 once the rewrite widens B
        }
        assert space_rank(to_single_initial(grammars["dual_initial_demo"])) == 3

    def test_space_rank_covers_lexical_fanout(self):
        # a wide lexical nonterminal needs addresses longer than any contact
        g = parse_grammar("start S\nS -> : 's'\nA -> : 'a' , 'b' , 'c'\n")
        assert contact_rank(g) == 1
        assert space_rank(g) == 3
        assert space_rank(parse_grammar("start S\nS -> : 's'\n")) == 1


class TestConfigSets:
    def test_count4_sets(self, grammars):
        g = grammars["count4"]
        assert config_set(g, "A") == frozenset(
            {frozenset({1, 4}), frozenset({1})}
        )
        assert config_set(g, "B") == frozenset(
            {frozenset({1, 3}), frozenset({1, 2, 3})}
        )

    def test_balance_flags(self, grammars):
        flags = {name: is_balanced(g) for name, g in grammars.items()}
        assert flags == {
            "cfg_anbn": False,
            "count4": False,
            "tag_style": False,
            "itg_sep": True,
            "dual_initial_demo": False,
        }

    def test_itg_balanced_by_full_size_configs(self, grammars):
        # two distinct fan-out-sized configurations on Z force the slow path
        g = grammars["itg_sep"]
        zs = config_set(g, "Z")
        full = {c for c in zs if len(c) == g.fanout["Z"]}
        assert frozenset({1, 3}) in full and frozenset({1, 4}) in full

    def test_single_initial_flags(self, grammars):
        flags = {name: is_single_initial(g) for name, g in grammars.items()}
        assert flags == {
            "cfg_anbn": True,
            "count4": True,
            "tag_style": True,
            "itg_sep": True,
            "dual_initial_demo": False,
        }


class TestConversion:
    def test_demo_conversion_shape(self, grammars):
        c = to_single_initial(grammars["dual_initial_demo"])
        texts = {str(r) for r in c.rules}
        assert "A -> B' C : b1 , b2 g1 b3 g2" in texts
        assert "B' -> : 'b' , '' , 'b'" in texts
        assert c.fanout["B'"] == 3
        assert is_single_initial(c)
        assert validate(c) == []

    def test_conversion_preserves_language(self, grammars):
        g = grammars["dual_initial_demo"]
        c = to_single_initial(g)
        assert enumerate_language(g, 6) == enumerate_language(c, 6)

    def test_already_single_initial_unchanged(self, grammars):
        g = grammars["count4"]
        assert to_single_initial(g) is g

    def test_fanout_grows_by_at_most_one(self):
        rng = random.Random(14)
        seen_conversion = False
        for _ in range(120):
            g = random_grammar(rng)
            c = to_single_initial(g)
            if c is g:
                continue
            seen_conversion = True
            assert validate(c) == []
            assert is_single_initial(c)
            for nt, fo in g.fanout.items():
                assert c.fanout.get(nt, fo) <= fo + 1
        assert seen_conversion


class TestAnalyze:
    def test_report_fields(self, grammars):
        rep = analyze(grammars["count4"])
        assert rep.f == 2
        assert rep.d == 3
        assert rep.balanced is False
        assert rep.single_initial is True
        assert rep.predicted_matmul_exponent == pytest.approx(
            rep.omega * 3
        )
        assert rep.tabular_exponent == 6

    def test_balanced_adds_one(self, grammars):
        rep = analyze(grammars["itg_sep"])
        assert rep.predicted_matmul_exponent == pytest.approx(rep.omega * 3 + 1)

    def test_runtime_rank(self, grammars):
        # start rules joined outside the matrix: ITG at 2*omega+1 as in the
        # paper, count4 at 2*omega; dual_initial_demo's rewrite adds a
        # fan-out-3 nonterminal, so it stays at 3
        got = {name: analyze(grammars[name])
               for name in ("itg_sep", "count4", "dual_initial_demo")}
        assert got["itg_sep"].runtime_rank == 2
        assert got["itg_sep"].runtime_exponent == pytest.approx(5.7457, abs=1e-4)
        assert got["count4"].runtime_rank == 2
        assert got["count4"].runtime_exponent == pytest.approx(4.7457, abs=1e-4)
        assert got["dual_initial_demo"].runtime_rank == 3
        assert [rep.d for rep in got.values()] == [3, 3, 3]

    def test_json_round_trip(self, grammars):
        rep = analyze(grammars["tag_style"])
        data = rep.to_json()
        assert data["d"] == 2
        assert data["balanced"] is False
