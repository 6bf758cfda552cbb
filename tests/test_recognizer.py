import hashlib
import itertools
import json
import random

import numpy as np

import pytest

from lcfrs.addresses import enumerate_space
from lcfrs.boolmat import KERNEL_KIND, popcount
from lcfrs.engine import EngineUnsupported, ProductMatrix, engine_ready, pi_copy, seed
from lcfrs.grammar import (
    Grammar, GrammarError, Rule, Var, is_single_initial, parse_grammar, to_single_initial,
)
from lcfrs.oracle import _word_placements, enumerate_language, tabular_recognize
from lcfrs import boolmat, bundled, engine, recognizer
from lcfrs.recognizer import (
    Closure,
    _spans_of,
    _start_witness,
    closure_fixpoint,
    extract_derivation,
    facts_of,
    planes_of,
    run_recognition,
    seed_planes,
    space_rank,
)

from conftest import (
    BOTH_CHILDREN_GROW, SWEEP_NAMES, chart_of, full_rank, product_chart, random_grammar,
    sweep_sentences, symbol_planes, union,
)


def _closed(g, sentence):
    toks = sentence.split()
    sp = enumerate_space(len(toks), full_rank(g))
    return closure_fixpoint(seed_planes(g, toks, sp), g, sp), sp


def _facts(clo, nts):
    """``facts_of`` the closure's planes of the nonterminals in ``nts``."""
    return {nt: flats for nt, flats in facts_of(clo.chart, clo.symbol_ids, clo.space).items()
            if nt in nts}


class TestClosure:
    def test_empty_matrix_is_its_own_closure(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(3, 1)
        clo = closure_fixpoint(planes_of({}, g.symbol_ids, sp), g, sp)
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
        again = closure_fixpoint(clo.chart, g, sp)
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
        got = closure_fixpoint(seed_planes(g, toks, sp), g, sp)
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
        clo = closure_fixpoint(seed_planes(g, toks, sp), g, sp)
        assert len(clo.rounds) == clo.iterations
        assert sum(r["muls"] for r in clo.rounds) == clo.muls
        assert T.fact_count() + sum(r["new_facts"] for r in clo.rounds) == clo.fact_count()
        assert clo.rounds[-1]["new_facts"] == 0

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
            nts = set(g.nonterminals - {g.start})
            for toks in sentences:
                full, _ = _closed(g, " ".join(toks))
                sp = enumerate_space(len(toks), space_rank(g))
                runtime = closure_fixpoint(seed_planes(g, toks, sp), g, sp)
                assert _facts(runtime, nts) == _facts(full, nts), (name, toks)

    def test_start_fact_comes_from_the_join(self, grammars):
        g = grammars["count4"]
        toks = "a a b c c d".split()
        res = run_recognition(g, toks)
        assert res.accepted and res.stats["rank"] == 2
        assert not res.closure.holds(g.start, (0, len(toks)))
        tree = extract_derivation(res.closure, g, toks)
        assert (tree.rule, tree.spans) == (0, ((0, 6),))
        assert [c.spans for c in tree.children] == [((0, 2), (3, 5)), ((2, 3), (5, 6))]


def _brute_witness(clo, g, n):
    """Reference for ``_start_witness``: join every pair of the start rules'
    child facts, read off all of the closure's cells by ``facts_of``, and
    keep the first pair, in rule-id and then endpoint order, whose spans the
    rule's template lays end to end over (0, n)."""
    rules = sorted((r for r in g.binary_rules() if r.lhs == g.start), key=lambda r: r.rid)
    facts = _facts(clo, {nt for r in rules for nt in r.rhs})
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
    """The witness search reads first-child facts from the rows that begin
    at 0 and tests the second child's bit on the computed spans; it must
    find what a join over every fact of both children finds."""

    def _check(self, g, toks, label):
        res = run_recognition(g, toks)
        n = len(toks)
        work, clo = res.grammar, res.closure
        want = _brute_witness(clo, work, n)
        assert _start_witness(clo, work, n) == want, label
        assert res.accepted == (clo.holds(work.start, (0, n))
                                or want is not None), label
        return res, want

    def test_bundled_grammars(self, grammars):
        found = 0
        for name, g in grammars.items():
            alphabet = sorted(g.terminals)
            for toks in itertools.chain.from_iterable(
                    itertools.product(alphabet, repeat=n) for n in range(1, 6)):
                res, want = self._check(g, toks, (name, toks))
                if want is None or res.closure.holds(res.grammar.start, (0, len(toks))):
                    continue
                # extraction takes its top node from the same search
                tree = extract_derivation(res.closure, res.grammar, toks)
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
        for name, sentence in (("count4", "a a b c c d"), ("itg_sep", "x y # y x"),
                               ("dual_initial_demo", "a b a a b a"),
                               ("cfg_anbn", "a a b")):
            res = run_recognition(grammars[name], sentence.split())
            clo = res.closure
            chart = chart_of(clo.chart, clo.symbol_ids, clo.space)
            assert res.stats["facts"] == chart.fact_count(), name

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
                assert extract_derivation(res.closure, res.grammar, toks) is not None
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
        # a rule is skipped before its masks are fetched when a child plane
        # it reads has no bit, so a cold run builds only the masks its
        # products and its derivation read
        built = []
        for name, sentence in (
            ("cfg_anbn", "a a b b"), ("cfg_anbn", "a b b"),
            ("count4", "a a b c c d"), ("count4", "a b d c"),
            ("tag_style", "x x y y y"), ("tag_style", "x y x"),
            ("itg_sep", "x y # y x"), ("itg_sep", "x y # x x"),
            ("dual_initial_demo", "a b a a b a"), ("dual_initial_demo", "a b a"),
        ):
            toks = sentence.split()
            boolmat._role_mask.cache_clear()
            res = run_recognition(bundled.load(name), toks)
            if res.accepted:
                extract_derivation(res.closure, res.grammar, toks)
            built.append(boolmat._role_mask.cache_info().misses)
        assert built == [1, 1, 3, 3, 1, 1, 3, 3, 4, 0]

    def test_a_run_reuses_the_last_runs_masks(self, grammars, monkeypatch):
        # the closure keeps the masks it fetched for the next run of the
        # same grammar object over the same space, and for that one only
        fetched = []
        real = boolmat.rule_mask

        def spy(space, r, role):
            fetched.append((r.rid, role))
            return real(space, r, role)
        monkeypatch.setattr(boolmat, "rule_mask", spy)
        monkeypatch.setattr(recognizer, "_masks_cache", {})
        g = grammars["count4"]
        copy = parse_grammar(bundled.grammar_text("count4"))
        counts = []
        for grammar, sentence in ((g, "a a b c c d"), (g, "a b b c d d"), (g, "a b c d"),
                                  (g, "a a b c c d"), (copy, "a a b c c d")):
            fetched.clear()
            res = run_recognition(grammar, sentence.split())
            assert res.accepted, sentence
            counts.append(len(fetched))
        first = counts[0]
        assert first > 0 and counts == [first, 0, counts[2], first, first]
        assert counts[2] > 0

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
            got = recognizer.pi_copy(P, ids, sp)
            want = symbol_planes(pi_copy(chart_of(P, ids, sp)), ids)
            assert np.array_equal(got, want), label
            grown += not np.array_equal(got, P)
            several += int(P.any(axis=(1, 2)).sum()) > 1
        assert grown and several

    def test_facts_round_trip(self, grammars):
        for label, work, toks, sp in _bridge_cases(grammars):
            F = {}      # the lexical facts that have a split
            for nt, flats in engine.lexical_facts(work, toks, sp).items():
                held = {f for f in flats if sp.split_ids(f)}
                if held:
                    F[nt] = held
            ids = work.symbol_ids
            assert facts_of(planes_of(F, ids, sp), ids, sp) == F, label
            clo = closure_fixpoint(planes_of(F, ids, sp), work, sp)
            closed = facts_of(clo.chart, ids, sp)
            assert facts_of(planes_of(closed, ids, sp), ids, sp) == closed, label
            # a closed chart is its facts on every split, and nothing else
            assert np.array_equal(planes_of(closed, ids, sp), clo.chart), label

    def test_holds_reads_a_fact(self, grammars):
        g = grammars["count4"]
        toks = "a a b b c c d d".split()
        clo = run_recognition(g, toks).closure
        assert clo.space.d == 2
        facts = facts_of(clo.chart, clo.symbol_ids, clo.space)
        assert facts["A"] and facts["B"]
        for nt, flats in facts.items():
            for flat in flats:
                assert clo.holds(nt, flat), (nt, flat)
        assert not clo.holds("A", (0, 1, 4, 6))
        assert not clo.holds("Z", (0, 1))
        # more than 2d endpoints: no split of the space holds them
        assert clo.space.split_ids((0, 2, 4, 6)) and not clo.space.split_ids((0, 1, 2, 3, 4, 5))
        assert not clo.holds("A", (0, 1, 2, 3, 4, 5))


class TestExtraction:
    def test_cfg_tree(self, grammars):
        g = grammars["cfg_anbn"]
        res = run_recognition(g, "a a b b".split())
        tree = extract_derivation(res.closure, g, "a a b b".split())
        assert tree is not None
        assert tree.nonterminal == "S"
        assert tree.spans == ((0, 4),)
        data = tree.to_json()
        assert set(data) == {"nonterminal", "rule", "spans", "children"}

    def test_count4_tree_spans(self, grammars):
        g = grammars["count4"]
        toks = "a a b b c c d d".split()
        res = run_recognition(g, toks)
        tree = extract_derivation(res.closure, g, toks)
        assert tree.spans == ((0, 8),)
        a_child, b_child = tree.children
        assert a_child.nonterminal == "A"
        assert b_child.nonterminal == "B"
        assert a_child.spans == ((0, 2), (4, 6))
        assert b_child.spans == ((2, 4), (6, 8))

    def test_leaves_spell_the_sentence(self, grammars):
        g = grammars["count4"]
        toks = "a b c d".split()
        res = run_recognition(g, toks)
        tree = extract_derivation(res.closure, g, toks)
        got = {}

        def walk(node):
            if not node.children:
                rule = g.rules[node.rule]
                for (l, r), words in zip(node.spans, rule.words):
                    assert tuple(toks[l:r]) == words
                    for off, w in enumerate(words):
                        got[l + off] = w
            for ch in node.children:
                walk(ch)

        walk(tree)
        assert [got[i] for i in range(len(toks))] == toks

    def test_rejected_sentence_gives_none(self, grammars):
        g = grammars["cfg_anbn"]
        res = run_recognition(g, "a b b".split())
        assert extract_derivation(res.closure, g, "a b b".split()) is None

    def test_empty_sentence_gives_none(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(0, space_rank(g))
        chart = planes_of({}, g.symbol_ids, sp)
        assert extract_derivation(Closure(chart, g.symbol_ids, sp), g, []) is None

    def test_deterministic(self, grammars):
        g = grammars["itg_sep"]
        toks = "x y # y x".split()
        res = run_recognition(g, toks)
        t1 = extract_derivation(res.closure, g, toks)
        t2 = extract_derivation(res.closure, g, toks)
        assert json.dumps(t1.to_json()) == json.dumps(t2.to_json())

    def test_trees_unchanged(self, grammars, sweep):
        # which tree extraction returns is a fixed figure: the first split,
        # middle address and rule in id order that rebuild each fact
        runs = [(run_g, toks, clo) for name in SWEEP_NAMES
                for toks, (clo, run_g) in sweep[name]["accepted"].items()]
        extra = [("count4", ["a"] * m + ["b"] * k + ["c"] * m + ["d"] * k)
                 for m in range(1, 4) for k in range(1, 4)]
        extra += [("cfg_anbn", ["a"] * m + ["b"] * m) for m in range(1, 7)]
        for name, toks in extra:
            res = run_recognition(grammars[name], toks)
            assert res.accepted, (name, toks)
            runs.append((res.grammar, tuple(toks), res.closure))
        digest = hashlib.sha256()
        for run_g, toks, clo in runs:
            tree = extract_derivation(clo, run_g, toks)
            digest.update(json.dumps([toks, tree.to_json()], sort_keys=True).encode())
        assert len(runs) == 52
        assert digest.hexdigest() == (
            "8c82f243b32c812c4d918a1b7aba52fe7e5daf537938d2659a8f543072ffa42f")
