"""Acceptance gate: the checks that define "done" for this package, one test
per check, each printing a single PASS/FAIL line (run with -s or -rA to see
them alongside the pytest verdicts).

The three-way sweep (check 1) is shared with checks 7 and 8 through the
session-scoped ``sweep`` fixture in conftest.  Checks 1, 6 and 8 read a run
as its verdict, its facts (``Closure.facts``) and its tree; checks 2 and 9
test the grammar analysis; checks 3, 4, 5 and 7 test the plane form itself:
products, packed multiplies and the cells of closed charts.
"""

import random

import numpy as np

from lcfrs.addresses import cell_endpoints, enumerate_space
from lcfrs.boolmat import BoolMatrix, bool_multiply, rule_plan
from lcfrs.grammar import (
    configurations,
    contact_rank,
    delta,
    is_balanced,
    is_single_initial,
    parse_grammar,
    per_rule_d,
    to_single_initial,
    validate,
)
from lcfrs.oracle import ProductMatrix, matrix_product, pi_copy, seed, tabular_recognize
from lcfrs.recognizer import closure_fixpoint, extract_derivation, seed_planes

from conftest import chart_of, full_rank, product_chart, random_grammar, symbol_planes, union

# matrices produced by checks 3 and 4, re-examined by check 7
MATERIALIZED = []
# check 6's (case, closure, cell-by-cell fixpoint), compared cell for cell by
# check 7
FIXPOINTS = []


def _gate(label, ok, detail=""):
    line = "%s: %s" % (label, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += " -- %s" % detail
    print(line)
    assert ok, line


def test_01_three_way_agreement(sweep):
    problems = [d for r in sweep.values() for d in r["disagreements"]]
    problems += [("facts", *m) for r in sweep.values() for m in r["fact_mismatches"]]
    total = sum(r["sentences"] for r in sweep.values())
    accepted = sum(len(r["accepted"]) for r in sweep.values())
    _gate(
        "check 1 (engine = oracle = enumeration on %d sentences, %d accepted; "
        "closed facts = oracle items)" % (total, accepted),
        not problems,
        str(problems[:5]),
    )


def test_02_analysis_ground_truth(grammars):
    """The published figures.  For ITG the paper's d = 2 belongs to ITG's own
    rules, the straight and inverted ``Z -> Z Z`` with fan-outs (2,2,2).
    ``itg_sep`` also has the separator start rule ``S -> Z M : b1 g1 b2 g2``
    with fan-outs (1,2,2) and b+c-a = 3 combining points; it is the one rule
    above 2 and sets the grammar-wide contact rank to 3."""
    want_balanced = {"cfg_anbn": False, "tag_style": False, "itg_sep": True}
    got_balanced = {nm: is_balanced(grammars[nm]) for nm in want_balanced}
    want_d = {"cfg_anbn": 1, "tag_style": 2}
    got_d = {nm: contact_rank(grammars[nm]) for nm in want_d}
    itg = grammars["itg_sep"]
    itg_d = [per_rule_d(r) for r in itg.binary_rules() if r.lhs == "Z"]
    above_two = [r for r in itg.binary_rules() if per_rule_d(r) > 2]
    separator_ok = (
        len(above_two) == 1
        and above_two[0].lhs == itg.start
        and above_two[0].fo == (1, 2, 2)
        and per_rule_d(above_two[0]) == delta(above_two[0]) == 3
    )
    ok = (
        got_balanced == want_balanced
        and got_d == want_d
        and itg_d == [2, 2]
        and separator_ok
    )
    _gate(
        "check 2 (published contact ranks and balance flags; ITG rules at d=2)",
        ok,
        "balanced %r vs %r; d %r vs %r; itg_sep per rule (rid, rule, d) %r"
        % (
            got_balanced,
            want_balanced,
            got_d,
            want_d,
            [(r.rid, str(r), per_rule_d(r)) for r in itg.binary_rules()],
        ),
    )


def test_03_worked_wrap_example():
    g = parse_grammar(
        "start S\n"
        "S -> A W : b1 g1 b2 g2\n"
        "A -> B C : b1 g1 , g2 b2\n"
        "B -> : 'b' , 'b'\n"
        "C -> : 'c' , 'c'\n"
        "W -> : 'w' , 'w'\n"
    )
    sp = enumerate_space(8, 3)
    T = ProductMatrix(sp)
    T.add(sp.ids[(1, 8)], sp.ids[(2, 7)], "B")
    T.add(sp.ids[(2, 7)], sp.ids[(4, 5)], "C")
    P = matrix_product(T, T, g)
    direct = "A" in P.get(sp.ids[(1, 8)], sp.ids[(4, 5)])
    planes = symbol_planes(T, g.symbol_ids)
    bool_ok = np.array_equal(product_chart(planes, planes, g, sp), symbol_planes(P, g.symbol_ids))
    pi = pi_copy(union(T, P))
    copied = "A" in pi.get(sp.ids[(1, 4)], sp.ids[(5, 8)])
    only = {(i, j) for i, j, syms in P.nonterminal_facts()}
    MATERIALIZED.extend([P, pi])
    _gate(
        "check 3 (wrap rule: one product then a pi-copy)",
        direct and copied and bool_ok and only == {((1, 8), (4, 5))},
        "direct=%s copied=%s bool==ref:%s cells=%s"
        % (direct, copied, bool_ok, sorted(only)),
    )


def test_04_reduction_equivalence():
    rng = random.Random(41)
    mismatches = []
    for case in range(60):
        g = random_grammar(rng, d_cap=4)
        n = rng.randint(1, 5)
        toks = [rng.choice("ab") for _ in range(n)]
        sp = enumerate_space(n, full_rank(g))
        T = seed(g, toks, sp)
        for _ in range(rng.choice((0, 0, 1, 2))):
            T = union(T, matrix_product(T, T, g))
        want = matrix_product(T, T, g)
        planes = symbol_planes(T, g.symbol_ids)
        if not np.array_equal(product_chart(planes, planes, g, sp),
                              symbol_planes(want, g.symbol_ids)):
            mismatches.append(case)
        if case % 10 == 0:
            MATERIALIZED.append(union(T, want))
    _gate(
        "check 4 (bit-sliced product = cell-by-cell product, 60 cases)",
        not mismatches,
        "cases %s" % mismatches,
    )


def test_05_backend_equivalence():
    rng = np.random.default_rng(52)
    bad = []
    for dim in (16, 64, 128, 256):
        for case in range(50):
            a = BoolMatrix.from_dense(rng.random((dim, dim)) < rng.uniform(0.02, 0.5))
            b = BoolMatrix.from_dense(rng.random((dim, dim)) < rng.uniform(0.02, 0.5))
            want = bool_multiply(a, b, "naive")
            if bool_multiply(a, b, "bitset") != want:
                bad.append((dim, case))
    _gate(
        "check 5 (naive = bitset on 400 random matrix pairs)",
        not bad,
        str(bad[:5]),
    )


def _facts_of_cells(P: ProductMatrix) -> dict:
    """``{nonterminal: set of sorted endpoint tuples}`` of the cells of a
    symbol-set chart whose merge is defined."""
    out = {}
    for row, col, syms in P.nonterminal_facts():
        flat = cell_endpoints(row, col)
        if flat is not None:
            for nt in syms:
                out.setdefault(nt, set()).add(flat)
    return out


def _cell_by_cell_closure(T, g):
    """Least fixpoint of X <- pi(X | X*X) with the cell-by-cell product and
    the dict-based copy step, which share no code with the bit-plane
    closure."""
    X = T
    while True:
        grown = pi_copy(union(X, matrix_product(X, X, g)))
        if grown == X:
            return X
        X = grown


def test_06_closure_equivalence(grammars):
    rng = random.Random(63)
    cases = []
    for case in range(36):
        g = random_grammar(rng, d_cap=4)
        n = rng.randint(1, 4)
        cases.append((case, g, [rng.choice("ab") for _ in range(n)]))
    for name, sentence in (
        ("cfg_anbn", "a a b b"),
        ("count4", "a b c d"),
        ("itg_sep", "x y # y x"),
    ):
        cases.append((name, grammars[name], sentence.split()))
    bad = []
    for label, g, toks in cases:
        sp = enumerate_space(len(toks), full_rank(g))
        fix = closure_fixpoint(seed_planes(g, toks, sp), rule_plan(g, sp))
        want = _cell_by_cell_closure(seed(g, toks, sp), g)
        if fix.facts() != _facts_of_cells(want):
            bad.append(label)
        FIXPOINTS.append((label, fix, want))
    _gate(
        "check 6 (bit-plane closure's facts = cell-by-cell fixpoint's, %d cases)" % len(cases),
        not bad,
        "cases %s" % bad,
    )


def _chart_violations(chart) -> list:
    """Structural checks every published matrix must satisfy."""
    out = []
    if not chart.is_upper_triangular():
        out.append("not upper-triangular")
    if pi_copy(chart) != chart:
        out.append("not copy-complete at fixpoint")
    return out


def test_07_structural_invariants(sweep):
    problems = []
    checked = 0
    for name, r in sweep.items():
        for res in r["runs"]:
            clo = res.closure
            checked += 1
            bad = _chart_violations(chart_of(clo.chart, clo.symbol_ids, clo.space))
            if bad:
                problems.append((name, " ".join(res.tokens), bad))
    # check 6's closed charts hold its reference fixpoint's cells exactly
    for label, fix, want in FIXPOINTS:
        checked += 1
        got = chart_of(fix.chart, fix.symbol_ids, fix.space)
        bad = _chart_violations(got) + ["not the cell-by-cell fixpoint"] * (got != want)
        if bad:
            problems.append((label, bad))
    for t, matrix in enumerate(MATERIALIZED):
        checked += 1
        # raw products need not be copy-complete; the closed charts above are
        if not matrix.is_upper_triangular():
            problems.append(("materialized-%d" % t, "not upper-triangular"))
    _gate(
        "check 7 (triangularity, copy-complete, closed charts = cell-by-cell "
        "fixpoints; %d matrices)" % checked,
        not problems,
        str(problems[:5]),
    )


def test_08_derivation_soundness(sweep):
    problems = []
    trees = 0
    for name, r in sweep.items():
        for toks, res in r["accepted"].items():
            run_g = res.grammar
            tree = extract_derivation(res)
            if tree is None:
                problems.append((name, toks, "no derivation"))
                continue
            trees += 1
            _, items = tabular_recognize(run_g, toks)
            covered = {}

            def walk(node):
                if (node.nonterminal, node.spans) not in items:
                    problems.append((name, toks, "unsupported node",
                                     node.nonterminal, node.spans))
                if node.children:
                    for ch in node.children:
                        walk(ch)
                else:
                    words = run_g.rules[node.rule].words
                    for (l, rgt), ws in zip(node.spans, words):
                        if tuple(toks[l:rgt]) != ws:
                            problems.append((name, toks, "leaf mismatch"))
                        for off in range(rgt - l):
                            covered[l + off] = covered.get(l + off, 0) + 1

            walk(tree)
            if tree.spans != ((0, len(toks)),) or any(
                covered.get(p, 0) != 1 for p in range(len(toks))
            ):
                problems.append((name, toks, "yield mismatch"))
    _gate(
        "check 8 (every accepted sentence yields an oracle-confirmed tree; %d trees)"
        % trees,
        trees > 0 and not problems,
        str(problems[:5]),
    )


def test_09_formula_consistency():
    rng = random.Random(97)
    problems = []
    conversions = 0
    for case in range(200):
        g = random_grammar(rng, d_cap=6)
        for r in g.binary_rules():
            fa, fb, fc = r.fo
            cfg1, cfg2, cfg3 = configurations(r)
            closed_form = max(fa + fb - fc, fa - fb + fc, -fa + fb + fc)
            if per_rule_d(r) != closed_form:
                problems.append((case, "rank formulas differ", str(r)))
            if len(cfg2) + delta(r) != 2 * fb:
                problems.append((case, "first-child surface count", str(r)))
            if len(cfg3) != delta(r):
                problems.append((case, "contact count", str(r)))
        c = to_single_initial(g)
        if c is not g:
            conversions += 1
            if validate(c) or not is_single_initial(c):
                problems.append((case, "conversion broke validity"))
            for nt, fo in g.fanout.items():
                if c.fanout.get(nt, fo) > fo + 1:
                    problems.append((case, "conversion fan-out jump", nt))
    _gate(
        "check 9 (rank/configuration formulas on 200 random grammars, "
        "%d conversions)" % conversions,
        not problems and conversions >= 20,
        str(problems[:5]),
    )
