import hashlib
import itertools
import json
import random

import numpy as np

import pytest

from lcfrs.addresses import AddressSpace, enumerate_space
from lcfrs.boolmat import KERNEL_KIND, popcount, rule_mask, rule_plan, zeros
from lcfrs.grammar import (
    Grammar, GrammarError, Rule, Var, analyze, contact_rank, is_single_initial, parse_grammar,
    per_rule_d, to_single_initial,
)
from lcfrs.oracle import (
    ProductMatrix, _word_placements, enumerate_language, pi_copy, seed, tabular_recognize,
)
from lcfrs import boolmat, bundled, recognizer
from lcfrs import grammar as grammar_mod
from lcfrs.recognizer import (
    Closure,
    EngineUnsupported,
    _join_table,
    _spans_of,
    _start_witness,
    closure_fixpoint,
    engine_ready,
    extract_derivation,
    facts_of,
    planes_of,
    run_recognition,
    seed_planes,
    space_rank,
)

from conftest import (
    BOTH_CHILDREN_GROW, SWEEP_NAMES, chart_of, fact_items, full_rank, product_chart,
    random_grammar, searched_start_witness, start_rules, sweep_sentences, symbol_planes, union,
)


def _closed(g, sentence):
    toks = sentence.split()
    sp = enumerate_space(len(toks), full_rank(g))
    return closure_fixpoint(seed_planes(g, toks, sp), rule_plan(g, sp)), sp


class TestClosure:
    def test_empty_matrix_is_its_own_closure(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(3, 1)
        clo = closure_fixpoint(planes_of({}, g.symbol_ids, sp), rule_plan(g, sp))
        assert clo.fact_count() == 0
        assert clo.iterations == 1

    def test_cfg_closure_reaches_top(self, grammars):
        g = grammars["cfg_anbn"]
        clo, sp = _closed(g, "a b")
        assert clo.holds("S", (0, 2))

    def test_count4_closure_reaches_top(self, grammars):
        g = grammars["count4"]
        clo, sp = _closed(g, "a b c d")
        assert clo.holds("S", (0, 4))

    def test_closure_is_idempotent(self, grammars):
        g = grammars["cfg_anbn"]
        clo, sp = _closed(g, "a b")
        again = closure_fixpoint(clo.chart, clo.plan)
        assert np.array_equal(again.chart, clo.chart)
        assert again.iterations == 1


def _naive_closure(T, g):
    """Reference: square the whole chart and copy every fact to its
    equivalent cells (the dict-based ``pi_copy``) until it stops growing."""
    stats = {}
    X, iterations = T, 0
    while True:
        iterations += 1
        planes = symbol_planes(X, g.symbol_ids)
        product = chart_of(product_chart(planes, planes, g, X.space, stats=stats), g.symbol_ids,
                           X.space)
        grown = pi_copy(union(X, product))
        if grown == X:
            return X, iterations, stats.get("muls", 0)
        X = grown


def _bundled_cases(grammars):
    rng = random.Random(11)
    for name, g in grammars.items():
        if not is_single_initial(g):
            g = to_single_initial(g)
        alphabet = sorted(g.terminals)
        for n in range(7):
            for _ in range(2):
                yield name, g, [rng.choice(alphabet) for _ in range(n)]
    for name, sentence in (
        ("cfg_anbn", "a a a b b b"),
        ("count4", "a a b c c d"),
        ("itg_sep", "x y # y x"),
        ("itg_sep", "x y x # x y x"),
        ("tag_style", "x x y y y"),
    ):
        yield name, grammars[name], sentence.split()


class TestSemiNaiveClosure:
    def _check(self, g, toks, label):
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        assert pi_copy(T) == T, label     # the closure's precondition
        want, iterations, muls = _naive_closure(T, g)
        got = closure_fixpoint(seed_planes(g, toks, sp), rule_plan(g, sp))
        assert chart_of(got.chart, got.symbol_ids, sp) == want, label
        assert got.iterations == iterations, label
        assert got.muls <= muls, label
        return got.muls, muls

    def test_random_grammars(self):
        rng = random.Random(5)
        saved = 0
        for case in range(100):
            g = random_grammar(rng, d_cap=4)
            toks = [rng.choice("ab") for _ in range(rng.randint(0, 5))]
            got, want = self._check(g, toks, (case, toks))
            saved += want - got
        assert saved > 0

    def test_bundled_grammars(self, grammars):
        for name, g, toks in _bundled_cases(grammars):
            self._check(g, toks, (name, toks))

    def test_rule_whose_children_both_grow(self):
        g = parse_grammar(BOTH_CHILDREN_GROW)
        for n in range(1, 5):
            for toks in itertools.product("ab", repeat=n):
                self._check(g, list(toks), toks)

    def test_planes_no_binary_rule_heads_keep_the_seed(self, grammars):
        # a round touches only the planes of binary-rule heads, so the
        # closed chart's other planes are the seed's, bit for bit
        kept = 0
        for name, g, toks in _bundled_cases(grammars):
            res = run_recognition(g, toks)
            work, clo = res.grammar, res.closure
            seeded = seed_planes(work, toks, clo.space)
            heads = {work.symbol_ids[r.lhs] for r in work.binary_rules()}
            others = [t for t in work.symbol_ids.values() if t not in heads]
            assert np.array_equal(clo.chart[others], seeded[others]), (name, toks)
            kept += popcount(seeded[others])
        assert kept > 0

    def test_round_trace_adds_up(self, grammars):
        g = grammars["count4"]
        toks = "a a b b c c d d".split()
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        clo = closure_fixpoint(seed_planes(g, toks, sp), rule_plan(g, sp))
        assert len(clo.rounds) == clo.iterations
        assert sum(r["muls"] for r in clo.rounds) == clo.muls
        assert T.fact_count() + sum(r["new_facts"] for r in clo.rounds) == clo.fact_count()
        assert clo.rounds[-1]["new_facts"] == 0

    def test_round_traces_are_fixed(self, grammars):
        # which terms a round multiplies is a fixed figure of the semi-naive
        # operand choice: each round's (muls, new_facts) is pinned
        want = {
            ("count4", "a a b b c c d d"): [(2, 6), (2, 0)],
            ("itg_sep", "x y x # x y x"): [(2, 12), (2, 3), (2, 0)],
            ("cfg_anbn", "a a a b b b"): [(1, 1)] * 5 + [(1, 0)],
            ("dual_initial_demo", "a b a a b a"): [(1, 7), (1, 1), (0, 0)],
        }
        for (name, sentence), rounds in want.items():
            stats = run_recognition(grammars[name], sentence.split()).stats
            assert stats["rounds"] == [{"muls": m, "new_facts": f} for m, f in rounds], name

    def test_a_rule_whose_delta_facts_fit_neither_child_is_skipped(self):
        # round 1 grows C by facts with tied endpoints, and in round 2 both
        # children of a C rule have delta facts, none of which its child
        # masks hold: the full planes would read no delta fact, so that rule
        # is not multiplied
        g = parse_grammar(
            "start S\nS -> A A : b1 g1\nC -> C C : b1 , b2 g1 b3 g2 , g3\n"
            "C -> C C : b1 g1 , g2 b2 , b3 g3\nB -> A B : b1 g1\n"
            "A -> : 'a' 'a'\nB -> : 'a' 'b'\nC -> : '' , '' , 'a'\n")
        stats = run_recognition(g, "a b a".split()).stats
        assert stats["rounds"] == [{"muls": 2, "new_facts": 4}, {"muls": 1, "new_facts": 0}]

    def test_run_reports_rounds(self, grammars):
        for name, sentence in (("count4", "a b b c d d"), ("itg_sep", "x y # y x")):
            stats = run_recognition(grammars[name], sentence.split()).stats
            assert len(stats["rounds"]) == stats["iterations"], name
            assert sum(r["muls"] for r in stats["rounds"]) == stats["muls"], name


class TestStartRulesOutsideMatrix:
    """``count4`` and ``itg_sep`` get contact rank 3 only from their start
    rule, so the engine closes them at rank 2 and applies the start rule by
    a join over the closed chart."""

    def test_non_start_facts_match_the_full_rank(self, grammars):
        for name, sentences in (
            ("count4", [list(t) for n in range(1, 5)
                        for t in itertools.product("abcd", repeat=n)]),
            ("itg_sep", sweep_sentences("itg_sep")),
        ):
            g = grammars[name]
            assert (space_rank(g), full_rank(g)) == (2, 3), name
            for toks in sentences:
                full, _ = _closed(g, " ".join(toks))
                want = {nt: flats for nt, flats in full.facts().items() if nt != g.start}
                assert run_recognition(g, toks).closure.facts() == want, (name, toks)

    def test_start_fact_comes_from_the_join(self, grammars):
        g = grammars["count4"]
        toks = "a a b c c d".split()
        res = run_recognition(g, toks)
        assert res.accepted and res.stats["rank"] == 2
        assert not res.closure.holds(g.start, (0, len(toks)))
        tree = extract_derivation(res)
        assert (tree.rule, tree.spans) == (0, ((0, 6),))
        assert [c.spans for c in tree.children] == [((0, 2), (3, 5)), ((2, 3), (5, 6))]

    def test_one_start_rule_inside_the_rank_and_one_beyond(self, grammars):
        # at rank 2 the closure multiplies S -> P Q and the join applies
        # S -> Z M: engine, tabular oracle and enumeration agree on every
        # sentence up to length 5, and every accepted one has a tree
        g = _mixed_start_rules()
        assert space_rank(g) == 2
        assert [per_rule_d(r) for r in start_rules(g)] == [3, 1]
        language = enumerate_language(g, 5)
        by = {"holds": 0, "join": 0}
        for n in range(1, 6):
            for toks in itertools.product("xy#pq", repeat=n):
                res = run_recognition(g, toks)
                tabular, _ = tabular_recognize(g, toks)
                assert res.accepted == tabular == (toks in language), toks
                if res.accepted:
                    assert extract_derivation(res) is not None, toks
                    by["holds" if res.closure.holds(g.start, (0, n)) else "join"] += 1
        assert by == {"holds": 1, "join": 8}

    def test_the_plan_joins_exactly_the_start_rules_beyond_the_rank(self, grammars):
        # the plan is the one place that compares per_rule_d with the rank:
        # the rules within it are multiplied, the start rules beyond it
        # joined; at the full rank nothing is left to the join
        joined = {}
        for name, g in [*grammars.items(), ("mixed", _mixed_start_rules())]:
            work = g if is_single_initial(g) else to_single_initial(g)
            for d in sorted({space_rank(work), full_rank(work)}):
                plan = rule_plan(work, enumerate_space(3, d))
                assert plan.joined == tuple(r for r in start_rules(work)
                                            if per_rule_d(r) > d), (name, d)
                assert [entry[0] for entry in plan.rules] == [
                    r for r in work.binary_rules() if per_rule_d(r) <= d], (name, d)
                joined[name, d] = [r.rid for r in plan.joined]
        assert {key: rids for key, rids in joined.items() if rids} == {
            ("count4", 2): [0], ("itg_sep", 2): [0], ("mixed", 2): [0]}


def _mixed_start_rules():
    """``itg_sep`` with a second start rule, S -> P Q, within rank 2."""
    return parse_grammar(bundled.grammar_text("itg_sep")
                         + "S -> P Q : b1 g1\nP -> : 'p'\nQ -> : 'q'\n")


def _brute_witness(clo, rules, n):
    """Reference for ``_start_witness``: join every pair of the child facts
    of ``rules`` (start rules in rule-id order), read by ``Closure.facts``,
    and keep the first pair, in rule-id and then endpoint order, whose spans
    the rule's template lays end to end over (0, n)."""
    facts = clo.facts()
    for r in rules:
        B, C = r.rhs
        (template,) = r.comp
        for left in sorted(facts.get(B, ())):
            for right in sorted(facts.get(C, ())):
                spans = {"b": _spans_of(left), "g": _spans_of(right)}
                laid = [spans[v.side][v.index - 1] for v in template]
                if (laid[0][0] == 0 and laid[-1][1] == n
                        and all(a[1] == b[0] for a, b in zip(laid, laid[1:]))):
                    return r, left, right
    return None


def _runnable_random_grammars():
    """The random grammars of ``TestRandomThreeWay`` that the engine runs."""
    for case in range(300):
        g = random_grammar(random.Random(case), d_cap=4)
        if not engine_ready(g if is_single_initial(g) else to_single_initial(g)):
            yield case, g


class TestStartWitness:
    """The witness is read by one gather per start rule, at the cells of a
    join table of candidate fact pairs; it must find what a join over
    every fact of both children finds."""

    def _check(self, g, toks, label):
        # the join searches only the start rules beyond the rank; where the
        # chart lacks the start fact, no start rule within the rank has a
        # witness, so the run's witness is the first of every start rule
        res = run_recognition(g, toks)
        n = len(toks)
        work, clo = res.grammar, res.closure
        want = _brute_witness(clo, start_rules(work), n)
        held = clo.holds(work.start, (0, n))
        assert _start_witness(clo) == _brute_witness(clo, clo.plan.joined, n), label
        assert res.witness == (None if held else want), label
        assert res.accepted == (held or want is not None), label
        return res, want

    def test_bundled_grammars(self, grammars):
        found = 0
        for name, g in grammars.items():
            alphabet = sorted(g.terminals)
            for toks in itertools.chain.from_iterable(
                    itertools.product(alphabet, repeat=n) for n in range(1, 6)):
                res, want = self._check(g, toks, (name, toks))
                if res.witness is None:
                    continue
                # extraction takes its top node from the run's witness
                tree = extract_derivation(res)
                assert tree.rule == want[0].rid, (name, toks)
                assert [c.spans for c in tree.children] == [_spans_of(want[1]),
                                                             _spans_of(want[2])], (name, toks)
                found += 1
        assert found

    def test_random_grammars(self):
        found = 0
        for case, g in _runnable_random_grammars():
            for n in range(1, 4):
                for toks in itertools.product("ab", repeat=n):
                    _, want = self._check(g, toks, (case, toks))
                    found += want is not None
        assert found

    def test_tied_endpoints(self):
        # A's empty first span and B's empty spans put equal positions at
        # the minimum of a fact; the witness needs those facts' cells
        for text, sentence, want in (
            ("start S\nS -> A B : b1 g1 b2 g2\nA -> : '' , 'b'\nB -> : 'a' , 'c'\n",
             "a b c", ((0, 0, 1, 2), (0, 1, 2, 3))),
            ("start S\nS -> A B : b1 g1 b2 g2\nA -> : 'a' , ''\nB -> : '' , 'b'\n",
             "a b", ((0, 1, 1, 1), (1, 1, 1, 2))),
        ):
            g = parse_grammar(text)
            toks = sentence.split()
            res, got = self._check(g, toks, text)
            assert got is not None and got[1:] == want, text
            assert res.accepted and tabular_recognize(g, toks)[0], text


def _join_rows(space, r) -> list:
    """``_join_table``'s entries as (left row, left col, right row, right
    col) ids."""
    words = (space.dim + 63) // 64
    lw, lb, rw, rb = (a.tolist() for a in _join_table(space, r))
    return [(a // words, 64 * (a % words) + b, c // words, 64 * (c % words) + e)
            for a, b, c, e in zip(lw, lb, rw, rb)]


def _brute_join_rows(space, r) -> list:
    """Reference for ``_join_rows``: every sorted first-child endpoint
    tuple that begins at 0, in order, laid by the template with the second
    child's spans over (0, n), kept when both facts' first splits (row =
    the first max(1, L - d) endpoints) are cells of the space."""
    n, d = space.n, space.d
    (template,) = r.comp
    Lb = 2 * r.fo[1]

    def first_split(e):
        cut = max(1, len(e) - d)
        row, col = e[:cut], e[cut:]
        if len(row) <= d and len(col) <= d and col > row:
            return space.ids[row], space.ids[col]
        return None

    rows = []
    for rest in itertools.combinations_with_replacement(range(n + 1), Lb - 1):
        left = (0, *rest)
        spans = {"b": _spans_of(left)}
        gaps = [(spans["b"][template[t - 1].index - 1][1],
                 spans["b"][template[t + 1].index - 1][0] if t + 1 < len(template) else n)
                for t, v in enumerate(template) if v.side == "g"]
        laid = [spans["b"][v.index - 1] if v.side == "b" else gaps[v.index - 1]
                for v in template]
        if laid[-1][1] != n:
            continue
        assert all(a[1] == b[0] for a, b in zip(laid, laid[1:]))
        right = tuple(p for gap in gaps for p in gap)
        cells = first_split(left), first_split(right)
        if None not in cells:
            rows.append(cells[0] + cells[1])
    return rows


def _start_rules():
    """A start rule of every shape with first-child fan-out up to 3: the
    template alternates b1 g1 b2 g2 ..., and ends with either child."""
    return [Rule(0, "S", ("B", "C"),
                 (tuple(Var(side, i) for i in range(1, fb + 1) for side in "bg")[:fb + fc],),
                 None, (1, fb, fc))
            for fb in (1, 2, 3) for fc in (fb - 1, fb) if fc]


class TestJoinTable:
    """The start-rule join reads one table per space and start-rule shape,
    built by broadcasting; the per-fact search it replaced
    (``searched_start_witness``) is the reference."""

    def test_rows_match_a_brute_enumeration(self, grammars):
        rules = _start_rules()
        assert {(r.comp, r.fo) for g in grammars.values() for r in start_rules(g)} <= {
            (r.comp, r.fo) for r in rules}
        checked = 0
        for r in rules:
            for d in (1, 2, 3):
                for n in range(9):
                    sp = AddressSpace(n, d)
                    got, want = _join_rows(sp, r), _brute_join_rows(sp, r)
                    assert got == want, (r, n, d)
                    checked += len(want)
        assert checked > 1000

    def test_tables_hold_native_index_types(self):
        # the gathers index by intp and shift uint64 words by uint64, so
        # the tables hold those types and no gather casts
        sp = enumerate_space(7, 2)
        (r,) = start_rules(bundled.load("itg_sep"))
        left_words, left_bits, right_words, right_bits = _join_table(sp, r)
        assert left_words.size == 118
        assert left_words.dtype == right_words.dtype == np.intp
        assert left_bits.dtype == right_bits.dtype == np.uint64

    @staticmethod
    def _families():
        # count4 a^m b^m c^m d^m, n = 8..16, and its adjacent-swap near
        # misses; itg_sep u # u, u # reverse(u) and x^h # x^h, n = 7..15
        for m in (2, 3, 4):
            toks = ["a"] * m + ["b"] * m + ["c"] * m + ["d"] * m
            yield "count4", toks
            for i in range(len(toks) - 1):
                if toks[i] != toks[i + 1]:
                    yield "count4", toks[:i] + [toks[i + 1], toks[i]] + toks[i + 2:]
        for h in (3, 4, 5, 6, 7):
            u = (["x", "y"] * h)[:h]
            yield "itg_sep", u + ["#"] + u
            yield "itg_sep", u + ["#"] + u[::-1]
            yield "itg_sep", ["x"] * h + ["#"] + ["x"] * h
            yield "itg_sep", u + ["#"] + u[:-1] + ["y" if u[-1] == "x" else "x"]

    def test_witness_matches_the_search(self, grammars):
        found = missed = 0
        for name, toks in self._families():
            res = run_recognition(grammars[name], toks)
            work, clo = res.grammar, res.closure
            got = _start_witness(clo)
            assert got == searched_start_witness(clo, work), (name, toks)
            assert res.accepted == (got is not None), (name, toks)
            found += got is not None
            missed += got is None
        assert found >= 15 and missed >= 10

    def test_the_first_of_two_witnesses(self):
        # A (0, 1, 3, 4) with B (1, 3, 4, 5), and A (0, 2, 2, 3) with B
        # (2, 2, 3, 5), both derive "a b c d e"; the first in endpoint order
        # is taken, though the second's column (2, 3) sorts first
        g = parse_grammar("start S\nS -> A B : b1 g1 b2 g2\nA -> : 'a' , 'd'\n"
                          "A -> : 'a' 'b' , 'c'\nB -> : 'b' 'c' , 'e'\nB -> : '' , 'd' 'e'\n")
        toks = "a b c d e".split()
        res = run_recognition(g, toks)
        clo, work = res.closure, res.grammar
        assert clo.holds("A", (0, 2, 2, 3)) and clo.holds("B", (2, 2, 3, 5))
        got = _start_witness(clo)
        assert got[1:] == ((0, 1, 3, 4), (1, 3, 4, 5))
        assert got == searched_start_witness(clo, work)

    def test_a_table_is_built_once_per_space(self, grammars, monkeypatch):
        # the tables live on the address space, so sentences of one length
        # share them, for the same grammar object and for a second parse of
        # the same text alike; another length builds its own
        built = []
        real = recognizer._build_join

        def spy(space, template, fo):
            built.append((space.n, template, fo))
            return real(space, template, fo)
        monkeypatch.setattr(recognizer, "_build_join", spy)
        recognizer.enumerate_space.cache_clear()
        g = grammars["itg_sep"]
        copy = parse_grammar(bundled.grammar_text("itg_sep"))
        counts = []
        for grammar, sentence in ((g, "x y # y x"), (g, "x y # x y"), (g, "y x # x x"),
                                  (copy, "x y # y x"), (g, "x y x # x y x"),
                                  (copy, "x y x # x y x")):
            built.clear()
            res = run_recognition(grammar, sentence.split())
            counts.append(len(built))
            assert len(res.closure.space.joins) == 1, sentence
        assert counts == [1, 0, 0, 0, 1, 0]

    def test_the_witness_reads_no_facts(self, grammars, monkeypatch):
        # the gather reads chart bits only: neither facts_of nor holds runs
        cases = []
        for name, toks in (("count4", "a a b c c d"), ("itg_sep", "x y x # x y x"),
                           ("itg_sep", "x y # x x")):
            res = run_recognition(grammars[name], toks.split())
            cases.append((res, searched_start_witness(res.closure, res.grammar)))

        def refuse(*args, **kwargs):
            raise AssertionError("the witness read facts")
        monkeypatch.setattr(recognizer, "facts_of", refuse)
        monkeypatch.setattr(Closure, "holds", refuse)
        for res, want in cases:
            assert _start_witness(res.closure) == want
        assert any(want for _, want in cases) and not all(want for _, want in cases)


def _accepts(g, tokens):
    return run_recognition(g, tokens).accepted


class TestRecognizeUnbalanced:
    def test_cfg_language(self, grammars):
        g = grammars["cfg_anbn"]
        assert _accepts(g, "a b".split())
        assert _accepts(g, "a a b b".split())
        assert not _accepts(g, "a b b".split())
        assert not _accepts(g, "b a".split())

    def test_count4_language(self, grammars):
        g = grammars["count4"]
        assert _accepts(g, "a b c d".split())
        assert _accepts(g, "a a b b c c d d".split())
        assert not _accepts(g, "a b d c".split())
        assert not _accepts(g, "a a b c c d d".split())

    def test_invalid_grammar_refused(self):
        r = Rule(0, "S", ("A", "A"), ((Var("g", 1), Var("b", 1)),), None, (1, 1, 1))
        lex = Rule(1, "A", None, None, (("a",),), (1, 0, 0))
        g = Grammar(
            "S", (r, lex), {"S": 1, "A": 1}, frozenset({"S", "A"}), frozenset({"a"})
        )
        with pytest.raises(GrammarError):
            run_recognition(g, ["a", "a"])

    def test_single_token_and_empty_input(self):
        g = parse_grammar("start S\nS -> : 'a'\n")
        assert _accepts(g, ["a"])
        assert not _accepts(g, ["a", "a"])
        assert not _accepts(g, [])

    def test_unknown_token_rejected(self, grammars):
        assert not _accepts(grammars["cfg_anbn"], ["a", "q"])


class TestRecognizeGeneral:
    def test_matches_oracle_on_balanced_grammar(self, grammars):
        g = grammars["itg_sep"]
        for sentence in (
            "x # x",
            "x y # y x",
            "x y # x y",
            "x # y",
            "# ",
            "x y x # x y x",
        ):
            toks = sentence.split()
            want, _ = tabular_recognize(g, toks)
            res = run_recognition(g, toks)
            assert res.accepted == want, sentence


# Sentences the engine rejects although both oracles accept them.  Every one
# of these grammars has an empty lexical span (or gains one from the
# single-initial rewrite).  What is left are tied combining points: a child
# whose empty span ends where its other span meets the sibling, so selecting
# endpoints by sorted index cannot tell the two equal positions apart.  The
# list is exact, so a fix shows up here too, and shortens it.  Seeds 103 and
# 169 ("b b") left it when the start rules were joined over the chart's span
# facts; seeds 45, 63, 173, 238 and (150, "a b b") left it when a merge
# became defined for a column whose minimum ties the row's.  Sentences run
# to length 4.
RANDOM_FALSE_REJECTS = [
    (50, "b a b b"),
    (150, "a a b"),
    (150, "a a a b"),
    (150, "a a b b"),
    (288, "b b b"),
]


class TestRandomThreeWay:
    def test_engine_against_both_oracles(self):
        runnable = 0
        false_rejects = []
        for case in range(300):
            g = random_grammar(random.Random(case), d_cap=4)
            if engine_ready(g if is_single_initial(g) else to_single_initial(g)):
                continue
            runnable += 1
            language = enumerate_language(g, 4)
            for n in range(1, 5):
                for toks in itertools.product("ab", repeat=n):
                    engine = run_recognition(g, toks).accepted
                    tabular, _ = tabular_recognize(g, toks)
                    assert tabular == (toks in language), (case, toks)
                    assert tabular or not engine, ("false accept", case, toks)
                    if tabular and not engine:
                        false_rejects.append((case, " ".join(toks)))
        assert runnable == 208
        assert false_rejects == RANDOM_FALSE_REJECTS


class TestRunRecognition:
    def test_dual_initial_converted_and_run(self, grammars):
        g = grammars["dual_initial_demo"]
        res = run_recognition(g, "a b a a b a".split())
        assert res.accepted
        assert res.stats["converted"] is True
        assert res.grammar is not g
        assert not run_recognition(g, "a b a".split()).accepted

    def test_stats_shape(self, grammars):
        res = run_recognition(grammars["count4"], "a b c d".split())
        assert set(res.stats) == {
            "n", "rank", "dim", "kernel", "muls", "iterations",
            "rounds", "facts", "converted", "phases",
        }
        assert set(res.stats["phases"]) == {"space", "seed", "masks", "closure", "readout"}
        assert all(ms >= 0 for ms in res.stats["phases"].values())
        assert res.stats["n"] == 4
        assert res.stats["kernel"] == KERNEL_KIND
        assert (res.stats["rank"], res.stats["dim"], res.stats["muls"],
                res.stats["iterations"], res.stats["facts"]) == (2, 20, 2, 1, 12)

    def test_balanced_grammar_runs_one_closure(self, grammars, monkeypatch):
        # one closure publishes the chart; every copy step runs inside it
        calls = []

        def spy(name):
            fn = getattr(recognizer, name)

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls.append(name)
                return out
            monkeypatch.setattr(recognizer, name, wrapped)

        spy("closure_fixpoint")
        spy("pi_copy")
        res = run_recognition(grammars["itg_sep"], "x # x".split())
        assert res.accepted
        assert calls == ["pi_copy"] * res.stats["iterations"] + ["closure_fixpoint"]

    def test_rank_one_runs_copy_nothing(self, grammars, monkeypatch):
        # at rank 1 a fact's two endpoints have one split, the cell it is
        # set on, so only wider spaces call pi_copy; the rank-1 runs still
        # derive exactly the tabular oracle's items
        ranks = []
        real = recognizer.pi_copy

        def spy(chart, space):
            ranks.append(space.d)
            return real(chart, space)
        monkeypatch.setattr(recognizer, "pi_copy", spy)
        g = grammars["cfg_anbn"]
        assert space_rank(g) == 1
        for n in range(1, 7):
            for toks in itertools.product("ab", repeat=n):
                res = run_recognition(g, toks)
                accepted, items = tabular_recognize(g, toks)
                assert (res.accepted, fact_items(res.closure)) == (accepted, items), toks
        assert ranks == []
        res = run_recognition(grammars["itg_sep"], "x # x".split())
        assert ranks == [2] * res.stats["iterations"]

    def test_a_parse_resolves_its_plan_once(self, grammars, monkeypatch):
        # the run builds the plan as its masks phase and keeps it on the
        # closure, and the verdict keeps the join's witness on the result:
        # the closure, the join and extraction read them from there
        calls = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapped

        plan = spy(boolmat.rule_plan)
        monkeypatch.setattr(boolmat, "rule_plan", plan)
        monkeypatch.setattr(recognizer, "rule_plan", plan)
        monkeypatch.setattr(recognizer, "_start_witness", spy(recognizer._start_witness))
        verdicts = []
        for name, sentence in (("count4", "a a b c c d"), ("count4", "a b c d"),
                               ("count4", "a b d c"), ("itg_sep", "x y # y x"),
                               ("itg_sep", "x # x"), ("itg_sep", "x y # x x")):
            calls.clear()
            res = run_recognition(grammars[name], sentence.split())
            tree = extract_derivation(res)
            assert (tree is not None) == res.accepted, (name, sentence)
            assert calls.count("rule_plan") == 1, (name, sentence, calls)
            assert calls.count("_start_witness") <= 1, (name, sentence, calls)
            verdicts.append((name, res.accepted))
        assert sorted(set(verdicts)) == [("count4", False), ("count4", True),
                                         ("itg_sep", False), ("itg_sep", True)]


class TestPlanePath:
    """A run stays on bit planes; the symbol-set chart is built only when a
    caller reads it."""

    def test_seed_planes_match_the_seed(self, grammars):
        for name in SWEEP_NAMES:
            g = grammars[name]
            if not is_single_initial(g):
                g = to_single_initial(g)
            for toks in sweep_sentences(name):
                sp = enumerate_space(len(toks), space_rank(g))
                got = chart_of(seed_planes(g, toks, sp), g.symbol_ids, sp)
                assert got == seed(g, toks, sp), (name, toks)

    def test_seed_and_facts_on_random_grammars(self):
        # these grammars have empty and two-token spans; the oracle lays
        # lexical spans out on its own
        for case, g in _runnable_random_grammars():
            work = g if is_single_initial(g) else to_single_initial(g)
            lexical = work.lexical_rules()
            for n in range(4):
                sp = enumerate_space(n, space_rank(work))
                for toks in itertools.product("ab", repeat=n):
                    label = (case, toks)
                    planes = seed_planes(work, toks, sp)
                    assert chart_of(planes, work.symbol_ids, sp) == seed(work, toks, sp), label
                    want = {}
                    for r in lexical:
                        for spans in _word_placements(r.words, toks, n):
                            flat = tuple(p for span in spans for p in span)
                            if sp.split_ids(flat):
                                want.setdefault(r.lhs, set()).add(flat)
                    assert facts_of(planes, work.symbol_ids, sp) == want, label
                    res = run_recognition(g, toks)
                    assert res.stats["facts"] == res.closure.fact_count(), label

    def test_facts_count_the_chart(self, grammars):
        # stats["facts"] counts set bits: each fact of Closure.facts once per
        # split of its endpoints; count4 on "a b c d", the last case, holds
        # 4 facts in 12 bits
        for name, sentence in (("count4", "a a b c c d"), ("itg_sep", "x y # y x"),
                               ("dual_initial_demo", "a b a a b a"),
                               ("cfg_anbn", "a a b"), ("count4", "a b c d")):
            res = run_recognition(grammars[name], sentence.split())
            clo = res.closure
            chart = chart_of(clo.chart, clo.symbol_ids, clo.space)
            assert res.stats["facts"] == chart.fact_count(), name
            flats = [flat for flats in clo.facts().values() for flat in flats]
            assert res.stats["facts"] == sum(len(clo.space.split_ids(f)) for f in flats), name
        assert (len(flats), res.stats["facts"]) == (4, 12)

    def test_recognition_builds_no_chart(self, grammars, monkeypatch):
        # neither a run nor a derivation builds a symbol-set chart
        calls = []
        real = ProductMatrix.__init__

        def spy(self, *args, **kwargs):
            calls.append(args)
            real(self, *args, **kwargs)
        monkeypatch.setattr(ProductMatrix, "__init__", spy)
        for name, sentence in (("count4", "a a b c c d"), ("count4", "a b d c"),
                               ("itg_sep", "x y # y x")):
            toks = sentence.split()
            res = run_recognition(grammars[name], toks)
            if res.accepted:
                assert extract_derivation(res) is not None
        assert calls == []
        clo = res.closure
        chart_of(clo.chart, clo.symbol_ids, clo.space)
        assert len(calls) == 1

    def test_chart_has_one_plane_per_sorted_nonterminal(self, grammars):
        # every symbol of the grammar run has a plane, with facts or not
        for name, sentence in (("count4", "a a b c c d"), ("count4", "a b d c"),
                               ("dual_initial_demo", "a b a a b a"), ("itg_sep", "x #")):
            res = run_recognition(grammars[name], sentence.split())
            clo, work = res.closure, res.grammar
            assert list(clo.symbol_ids) == sorted(work.nonterminals), name
            assert list(clo.symbol_ids.values()) == list(range(len(work.nonterminals)))
            assert clo.chart.shape == (len(work.nonterminals), clo.space.dim,
                                       (clo.space.dim + 63) // 64), name
            # the order is computed once per grammar object
            assert clo.symbol_ids is work.symbol_ids, name

    def test_cold_runs_build_a_fixed_set_of_masks(self):
        # a run's plan builds the three masks of every rule within the
        # rank, whatever the sentence, and none of a rule beyond it, so a
        # cold run builds on its fresh space the distinct masks of the
        # rules within the rank, and its derivation builds none
        built = []
        for name, sentence in (
            ("cfg_anbn", "a a b b"), ("cfg_anbn", "a b b"),
            ("count4", "a a b c c d"), ("count4", "a b d c"),
            ("tag_style", "x x y y y"), ("tag_style", "x y x"),
            ("itg_sep", "x y # y x"), ("itg_sep", "x y # x x"),
            ("dual_initial_demo", "a b a a b a"), ("dual_initial_demo", "a b a"),
        ):
            toks = sentence.split()
            recognizer.enumerate_space.cache_clear()
            res = run_recognition(bundled.load(name), toks)
            if res.accepted:
                extract_derivation(res)
            built.append(len(res.closure.space.masks))
        assert built == [1, 1, 2, 2, 2, 2, 2, 2, 4, 4]

    def test_a_run_reuses_the_last_runs_masks(self, grammars, monkeypatch):
        # masks live on the address space, so a run over a space an earlier
        # run used builds none: for the same grammar object, and for a
        # second parse of the same text alike
        built = []
        real = boolmat._role_mask

        def spy(space, cfg, fo):
            built.append((cfg, fo))
            return real(space, cfg, fo)
        monkeypatch.setattr(boolmat, "_role_mask", spy)
        recognizer.enumerate_space.cache_clear()
        g = grammars["count4"]
        copy = parse_grammar(bundled.grammar_text("count4"))
        counts, phases = [], []
        for grammar, sentence in ((g, "a a b c c d"), (g, "a b b c d d"), (g, "a b c d"),
                                  (g, "a a b c c d"), (copy, "a a b c c d")):
            built.clear()
            res = run_recognition(grammar, sentence.split())
            assert res.accepted, sentence
            counts.append(len(built))
            phases.append(res.stats["phases"]["masks"])
        assert counts == [2, 0, 2, 0, 0]
        # the masks phase is the plan's build: above 0 on a cold run
        assert phases[0] > 0 and phases[2] > 0

    def test_the_plan_is_resolved_once_per_run(self, grammars, monkeypatch):
        # the rules and masks a run multiplies are looked up before its
        # first round, not in every round: a warm run looks up as many
        # masks on a 2-round sentence as on a 6-round one
        g = grammars["count4"]
        looked_up = []
        real = boolmat.rule_mask

        def spy(space, r, role):
            looked_up.append(role)
            return real(space, r, role)
        counts = {}
        for m in (2, 6):
            toks = [c for c in "abcd" for _ in range(m)]
            run_recognition(g, toks)
            monkeypatch.setattr(boolmat, "rule_mask", spy)
            looked_up.clear()
            res = run_recognition(g, toks)
            monkeypatch.undo()
            counts[res.stats["iterations"]] = len(looked_up)
        assert list(counts) == [2, 6]
        assert counts[2] == counts[6] > 0

    def test_beyond_rank_rules_have_a_zero_mask(self, grammars):
        # a rule beyond the space's rank, which the closure never
        # multiplies, has an all-zero child mask there, and a rule within
        # the rank has no all-zero mask at all: checked on the bundled
        # grammars and on the runnable random grammars, at lengths 1-4 and
        # at rank 1, their runtime rank and their contact rank
        cases = list(grammars.values())
        for seed in range(300):
            g = random_grammar(random.Random(seed))
            if not engine_ready(to_single_initial(g)):
                cases.append(g)
        seen = {True: 0, False: 0}
        for g in cases:
            work = to_single_initial(g)
            rank = space_rank(work)
            for d in sorted({1, rank, max(rank, contact_rank(work))}):
                for n in range(1, 5):
                    space = AddressSpace(n, d)
                    for r in work.binary_rules():
                        beyond = per_rule_d(r) > d
                        zero = [not np.count_nonzero(rule_mask(space, r, role))
                                for role in (1, 2, 3)]
                        assert (zero[1] or zero[2]) if beyond else not any(zero), (r, d, n)
                        seen[beyond] += 1
        assert seen[True] and seen[False]

    def test_configurations_are_computed_once_per_rule(self, monkeypatch):
        # every computation of a rule's configurations ends in one
        # ConfigTriple; runs and an analysis of one single-initial grammar,
        # which all read the same rule objects, make one per rule
        made = []
        real = grammar_mod.ConfigTriple

        def spy(*cfgs):
            made.append(cfgs)
            return real(*cfgs)
        monkeypatch.setattr(grammar_mod, "ConfigTriple", spy)
        g = parse_grammar(bundled.grammar_text("itg_sep"))
        for sentence in ("x y # y x", "x # x", "x y # y x"):
            run_recognition(g, sentence.split())
        analyze(g)
        assert is_single_initial(g) and len(made) == len(g.binary_rules())

    def test_runs_multiply_through_the_kernel_on_packed_rows(self, grammars, monkeypatch):
        # every multiply of a run goes through boolmat._kernel, on writeable
        # C-contiguous 2-D uint64 rows
        seen = []
        real = boolmat._kernel.multiply_packed

        def spy(a, b, out):
            for arr in (a, b, out):
                assert arr.dtype == np.uint64 and arr.ndim == 2
                assert arr.flags.c_contiguous and arr.flags.writeable
            seen.append(a.shape)
            return real(a, b, out)
        monkeypatch.setattr(boolmat._kernel, "multiply_packed", spy)
        for name, sentence in (("count4", "a a b c c d"), ("itg_sep", "x y # y x")):
            for _ in range(2):  # the second run meets the cached masks
                assert run_recognition(grammars[name], sentence.split()).accepted
        assert seen

    def test_every_multiply_reaches_the_kernel_hook(self, grammars, monkeypatch):
        # the benchmark's traced run records kernel operands by wrapping
        # this attribute, so every counted multiply must call through it
        calls = []
        real = boolmat._kernel.multiply_packed

        def spy(a, b, out):
            calls.append(a.shape)
            return real(a, b, out)
        monkeypatch.setattr(boolmat._kernel, "multiply_packed", spy)
        muls = 0
        for name, sentence in (("count4", "a a b b c c d d"), ("count4", "a b d c"),
                               ("itg_sep", "x y x # x y x"), ("tag_style", "x x y y y"),
                               ("cfg_anbn", "a a a b b b"), ("dual_initial_demo", "a b a a b a")):
            calls.clear()
            stats = run_recognition(grammars[name], sentence.split()).stats
            assert len(calls) == stats["muls"], (name, sentence)
            muls += stats["muls"]
        assert muls > 0

    def test_grammar_checks_run_once_per_grammar(self, monkeypatch):
        calls = []
        real = recognizer.validate

        def spy(g):
            calls.append(g)
            return real(g)
        monkeypatch.setattr(recognizer, "validate", spy)
        g = parse_grammar(bundled.grammar_text("dual_initial_demo"))
        first = run_recognition(g, "a b a a b a".split())
        second = run_recognition(g, "a b a".split())
        assert calls == [g]
        assert second.grammar is first.grammar
        copy = parse_grammar(bundled.grammar_text("dual_initial_demo"))
        run_recognition(copy, "a b a".split())
        assert calls == [g, copy]

    def test_refused_grammar_raises_every_time(self):
        g = parse_grammar("start S\nS -> A A : b1 g1\nA -> : 'a'\n")
        invalid = Grammar("S", g.rules, {"S": 1}, g.nonterminals, g.terminals)
        # the head keeps every endpoint, leaving an empty column address
        unsupported = parse_grammar("start S\nS -> Z M : b1 g1 b2\n"
                                    "Z -> : 'x' , 'x'\nM -> : '#'\n")
        for _ in range(2):
            with pytest.raises(GrammarError):
                run_recognition(invalid, ["a", "a"])
            with pytest.raises(EngineUnsupported):
                run_recognition(unsupported, ["x", "#", "x"])


def _bridge_cases(grammars):
    """(label, grammar run, sentence, space) over the runnable random
    grammars at lengths 1-3 and the bundled sentences of ``_bundled_cases``."""
    for case, g in _runnable_random_grammars():
        work = g if is_single_initial(g) else to_single_initial(g)
        for n in range(1, 4):
            sp = enumerate_space(n, space_rank(work))
            for toks in itertools.product("ab", repeat=n):
                yield (case, toks), work, toks, sp
    for name, work, toks in _bundled_cases(grammars):
        yield (name, tuple(toks)), work, toks, enumerate_space(len(toks), space_rank(work))


class TestFactPlaneBridge:
    """``facts_of`` and ``planes_of`` are the one conversion between plane
    bits and facts; plane pi-copy is built from them."""

    def test_pi_copy_matches_the_cell_by_cell_copy(self, grammars):
        # seed planes plus one product: the product's facts sit on one split
        # only, and the copy must put them on all the others
        grown = several = 0
        for label, work, toks, sp in _bridge_cases(grammars):
            ids = work.symbol_ids
            seeded = seed_planes(work, toks, sp)
            P = seeded | product_chart(seeded, seeded, work, sp)
            got = recognizer.pi_copy(P, sp)
            want = symbol_planes(pi_copy(chart_of(P, ids, sp)), ids)
            assert np.array_equal(got, want), label
            grown += not np.array_equal(got, P)
            several += int(P.any(axis=(1, 2)).sum()) > 1
        assert grown and several

    def test_facts_round_trip(self, grammars):
        for label, work, toks, sp in _bridge_cases(grammars):
            ids = work.symbol_ids
            # the lexical facts that have a split
            F = facts_of(seed_planes(work, toks, sp), ids, sp)
            assert facts_of(planes_of(F, ids, sp), ids, sp) == F, label
            clo = closure_fixpoint(planes_of(F, ids, sp), rule_plan(work, sp))
            closed = facts_of(clo.chart, ids, sp)
            assert facts_of(planes_of(closed, ids, sp), ids, sp) == closed, label
            # a closed chart is its facts on every split, and nothing else
            assert np.array_equal(planes_of(closed, ids, sp), clo.chart), label

    def test_holds_reads_a_fact(self, grammars):
        g = grammars["count4"]
        toks = "a a b b c c d d".split()
        clo = run_recognition(g, toks).closure
        assert clo.space.d == 2
        facts = clo.facts()
        assert facts["A"] and facts["B"]
        for nt, flats in facts.items():
            for flat in flats:
                assert clo.holds(nt, flat), (nt, flat)
        assert not clo.holds("A", (0, 1, 4, 6))
        assert not clo.holds("Z", (0, 1))
        # more than 2d endpoints: no split of the space holds them
        assert clo.space.split_ids((0, 2, 4, 6)) and not clo.space.split_ids((0, 1, 2, 3, 4, 5))
        assert not clo.holds("A", (0, 1, 2, 3, 4, 5))

    def test_holds_tests_the_first_split(self):
        # ``holds`` computes its one cell from the endpoints.  On every sorted
        # endpoint tuple of even length up to 2d at n <= 6 and d <= 4, it
        # must be the first of ``split_ids`` and exist exactly when
        # ``split_ids`` finds a split: a bit set or cleared there alone
        # decides.  An odd length, or one above 2d, is a fact of no cell
        held = 0
        g = parse_grammar("start A\nA -> : 'a'\n")
        for n in range(7):
            for d in range(1, 5):
                sp = AddressSpace(n, d)
                plan = rule_plan(g, sp)
                empty = Closure(zeros(sp.dim, 1), plan)
                full = Closure(~empty.chart, plan)
                for L in range(1, 2 * d + 2):
                    for e in itertools.combinations_with_replacement(range(n + 1), L):
                        splits = sp.split_ids(e) if L % 2 == 0 and L <= 2 * d else ()
                        assert full.holds("A", e) == bool(splits), (n, d, e)
                        assert not empty.holds("A", e), (n, d, e)
                        if not splits:
                            continue
                        r, c = splits[0]
                        flip = np.uint64(1 << (c & 63))
                        empty.chart[0, r, c >> 6] ^= flip
                        full.chart[0, r, c >> 6] ^= flip
                        assert empty.holds("A", e) and not full.holds("A", e), (n, d, e)
                        empty.chart[0, r, c >> 6] ^= flip
                        full.chart[0, r, c >> 6] ^= flip
                        held += 1
        assert held > 1000


    def test_holds_refuses_endpoints_of_no_cell(self, grammars):
        # unsorted endpoints, or endpoints outside 0..n, are no fact: once
        # (0, 9) raised KeyError and (0, 2, 1, 3) read the cell of (0, 2)
        # and (1, 3), which holds the fact (0, 1, 2, 3)
        clo = run_recognition(grammars["count4"], "a b c d".split()).closure
        assert clo.holds("A", (0, 1, 2, 3))
        assert not clo.holds("A", (0, 9))
        assert not clo.holds("A", (0, 2, 1, 3))
        for bad in ((-1, 1), (0, 5), (0, 1, 2, 5), (1, 0), (0, 3, 2, 3), (2, 3, 0, 1)):
            assert not clo.holds("A", bad), bad
            assert not clo.holds("B", bad), bad

    def test_holds_takes_any_sequence_of_integers(self, grammars):
        # a list or an integer array reads the same fact as a tuple; once a
        # list or array raised TypeError (unhashable) and a float KeyError
        clo = run_recognition(grammars["count4"], "a b c d".split()).closure
        for ends in ([0, 1, 2, 3], np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3], np.uint8),
                     (np.int64(0), 1, 2, 3), range(4)):
            assert clo.holds("A", ends), ends
        assert not clo.holds("S", [0, 4]) and not clo.holds("S", np.array([0, 4]))
        assert not clo.holds("A", [0, 2, 1, 3])
        for bad in ((0, 1.5, 2, 3), (0.0, 1, 2, 3), np.array([0.0, 1, 2, 3]), ("0", 1, 2, 3),
                    (0, None, 2, 3), 4):
            assert not clo.holds("A", bad), bad


def _node_count_and_words(tree, g):
    """The number of nodes of ``tree`` and the sentence its leaves spell
    by their rules' words, read without recursion."""
    count, words, todo = 0, {}, [tree]
    while todo:
        node = todo.pop()
        count += 1
        todo += node.children
        if not node.children:
            for (l, r), span in zip(node.spans, g.rules[node.rule].words):
                assert r - l == len(span)
                words.update(zip(range(l, r), span))
    return count, [words[p] for p in sorted(words)]


class TestExtraction:
    def test_cfg_tree(self, grammars):
        g = grammars["cfg_anbn"]
        res = run_recognition(g, "a a b b".split())
        tree = extract_derivation(res)
        assert tree is not None
        assert tree.nonterminal == "S"
        assert tree.spans == ((0, 4),)
        data = tree.to_json()
        assert set(data) == {"nonterminal", "rule", "spans", "children"}

    def test_count4_tree_spans(self, grammars):
        g = grammars["count4"]
        toks = "a a b b c c d d".split()
        res = run_recognition(g, toks)
        tree = extract_derivation(res)
        assert tree.spans == ((0, 8),)
        a_child, b_child = tree.children
        assert a_child.nonterminal == "A"
        assert b_child.nonterminal == "B"
        assert a_child.spans == ((0, 2), (4, 6))
        assert b_child.spans == ((2, 4), (6, 8))

    def test_leaves_spell_the_sentence(self, grammars):
        g = grammars["count4"]
        toks = "a b c d".split()
        tree = extract_derivation(run_recognition(g, toks))
        assert _node_count_and_words(tree, g) == (3, toks)

    def test_rejected_sentence_gives_none(self, grammars):
        g = grammars["cfg_anbn"]
        res = run_recognition(g, "a b b".split())
        assert extract_derivation(res) is None

    def test_empty_sentence_gives_none(self, grammars):
        for name in ("cfg_anbn", "count4"):
            res = run_recognition(grammars[name], [])
            assert not res.accepted and res.witness is None, name
            assert extract_derivation(res) is None, name

    def test_deterministic(self, grammars):
        g = grammars["itg_sep"]
        toks = "x y # y x".split()
        res = run_recognition(g, toks)
        t1 = extract_derivation(res)
        t2 = extract_derivation(res)
        assert json.dumps(t1.to_json()) == json.dumps(t2.to_json())

    def test_inconsistent_chart_is_a_hard_error(self, grammars):
        # with a plane cleared, a fact the tree needs has no candidate:
        # extraction raises rather than return a tree
        res = run_recognition(grammars["count4"], "a a b b c c d d".split())
        assert extract_derivation(res) is not None
        res.closure.chart[res.closure.symbol_ids["X"]] = 0
        with pytest.raises(RuntimeError, match="the chart is inconsistent"):
            extract_derivation(res)

    def test_deep_tree(self, grammars):
        # a^m b^m nests 2m nodes deep, past Python's recursion limit at
        # m = 600: neither extraction nor to_json may recurse.  The tree is
        # read by a loop, since json.loads, == and repr would recurse
        g = grammars["cfg_anbn"]
        m = 600
        toks = ["a"] * m + ["b"] * m
        tree = extract_derivation(run_recognition(g, toks))
        assert _node_count_and_words(tree, g) == (4 * m - 1, toks)
        assert tree.to_json()["spans"] == [[0, 2 * m]]

    def test_text_is_json_dumps(self, grammars, sweep):
        # the CLI prints a tree with to_json_text, whose text is
        # json.dumps's wherever json.dumps does not overflow the stack
        runs = [res for name in SWEEP_NAMES for res in sweep[name]["accepted"].values()]
        runs += [run_recognition(grammars["cfg_anbn"], ["a"] * m + ["b"] * m)
                 for m in (*range(1, 11), 25, 50, 100)]
        for res in runs:
            tree = extract_derivation(res)
            assert tree.to_json_text() == json.dumps(tree.to_json(), indent=2), res.tokens

    def test_trees_unchanged(self, grammars, sweep):
        # which tree extraction returns is a fixed figure: the first split,
        # middle address and rule in id order that the chart holds
        runs = [res for name in SWEEP_NAMES for res in sweep[name]["accepted"].values()]
        extra = [("count4", ["a"] * m + ["b"] * k + ["c"] * m + ["d"] * k)
                 for m in range(1, 4) for k in range(1, 4)]
        extra += [("cfg_anbn", ["a"] * m + ["b"] * m) for m in range(1, 7)]
        for name, toks in extra:
            res = run_recognition(grammars[name], toks)
            assert res.accepted, (name, toks)
            runs.append(res)
        digest = hashlib.sha256()
        for res in runs:
            tree = extract_derivation(res)
            digest.update(json.dumps([res.tokens, tree.to_json()], sort_keys=True).encode())
        assert len(runs) == 52
        assert digest.hexdigest() == (
            "8c82f243b32c812c4d918a1b7aba52fe7e5daf537938d2659a8f543072ffa42f")
