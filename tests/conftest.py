"""Shared fixtures: bundled grammars, a random-grammar generator, and the
full bundled-grammar sweep (engine vs oracle vs enumeration) that several
acceptance checks share."""

from __future__ import annotations

import itertools
import os
import random

import pytest

import lcfrs
from lcfrs import bundled
from lcfrs.boolmat import nonzero_bits, plane_product, rule_plan, set_cells, zeros
from lcfrs.grammar import Grammar, Rule, Var, contact_rank, per_rule_d, validate
from lcfrs.oracle import ProductMatrix, enumerate_language, tabular_recognize
from lcfrs.recognizer import _spans_of, run_recognition, space_rank


# subprocesses import the package these tests import, also when pytest found
# it through the ``pythonpath`` setting in pyproject.toml
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(lcfrs.__file__)), os.environ.get("PYTHONPATH")) if p)


def full_rank(g: Grammar) -> int:
    """The rank at which every rule, start rules included, has its products
    inside the matrix.  Tests that compare two products or two closures use
    it, so that the start rules stay among the compared cases."""
    return max(contact_rank(g), space_rank(g))


@pytest.fixture(scope="session")
def grammars():
    return {name: bundled.load(name) for name in bundled.NAMES}


# a grammar whose rules' two children gain facts in the same closure rounds,
# so a semi-naive round needs both new-times-old and old-times-new terms
BOTH_CHILDREN_GROW = (
    "start S\nS -> C B : b1 g1\nC -> C B : b1 g1\nB -> C C : b1 g1\n"
    "C -> : 'a'\nB -> : 'b'\n"
)


def union(T1: ProductMatrix, T2: ProductMatrix) -> ProductMatrix:
    """The cell-wise union of two symbol-set charts: the step the naive
    closure references take between products and copies."""
    if T1.space is not T2.space:
        raise ValueError("operands live in different address spaces")
    out = T1.copy()
    for cell, syms in T2.cells.items():
        if syms:
            out.cells.setdefault(cell, set()).update(syms)
    return out


def chart_of(chart, symbols, space) -> ProductMatrix:
    """The symbol-set chart holding the set bits of ``chart`` (a closure's
    chart, or any (symbol, row, word) array over ``space`` whose planes
    ``symbols`` names in order), for checks against the cell-by-cell
    oracle."""
    names = list(symbols)
    out = ProductMatrix(space)
    rows, cols = nonzero_bits(chart)
    for tr, c in zip(rows.tolist(), cols.tolist()):
        t, r = divmod(tr, space.dim)
        out.cells.setdefault((r, c), set()).add(names[t])
    return out


def symbol_planes(T: ProductMatrix, symbol_ids: dict):
    """The inverse of ``chart_of``: the chart with T's cells, one plane per
    symbol of ``symbol_ids``, set by the same scatter as ``planes_of``."""
    chart = zeros(T.space.dim, len(symbol_ids))
    cells = [(symbol_ids[s], r, c) for (r, c), syms in T.cells.items() for s in syms]
    if cells:
        set_cells(chart, *zip(*cells))
    return chart


def product_chart(G, H, g: Grammar, space, **kwargs):
    """``plane_product`` of two charts as a full chart of ``g``'s symbols:
    the head planes it returns, and zeros elsewhere."""
    heads, planes = plane_product(G, H, rule_plan(g, space), **kwargs)
    chart = zeros(space.dim, len(g.symbol_ids))
    chart[heads] = planes
    return chart


def enumerated_role_mask(space, cfg, fo):
    """Reference for ``boolmat._role_mask``: the mask built by enumerating
    every non-decreasing 2fo-tuple of positions, dealing the positions at
    ``cfg`` to the row and the rest to the column, and setting the cell
    when the column sorts after the row."""
    picked = [t - 1 for t in sorted(cfg)]
    rest = [t for t in range(2 * fo) if t + 1 not in cfg]
    mask = zeros(space.dim)
    if not (1 <= len(picked) <= space.d and 1 <= len(rest) <= space.d):
        return mask
    cells = set()
    for e in itertools.combinations_with_replacement(range(space.n + 1), 2 * fo):
        row = tuple(e[t] for t in picked)
        col = tuple(e[t] for t in rest)
        if col > row:
            cells.add((space.ids[row], space.ids[col]))
    if cells:
        set_cells(mask, *zip(*cells))
    return mask


def start_rules(g: Grammar) -> tuple:
    """The binary rules of the start symbol, in rule-id order."""
    return tuple(sorted((r for r in g.binary_rules() if r.lhs == g.start),
                        key=lambda r: r.rid))


def searched_start_witness(clo, g: Grammar):
    """Reference for ``recognizer._start_witness``: the per-fact search it
    replaced, over every start rule of ``g``.  Each first child's fact of
    ``Closure.facts`` that begins at 0, in endpoint order, fixes the second
    child's spans, which one ``Closure.holds`` test decides."""
    n = clo.space.n
    facts = clo.facts()
    for r in start_rules(g):
        B, C = r.rhs
        (template,) = r.comp
        ends_with_b = template[-1].side == "b"
        for left in sorted(facts.get(B, ())):
            if left[0] != 0 or ends_with_b and left[-1] != n:
                continue
            spans = _spans_of(left)
            right = []
            for t, v in enumerate(template):
                if v.side == "g":
                    start = spans[template[t - 1].index - 1][1]
                    end = spans[template[t + 1].index - 1][0] if t + 1 < len(template) else n
                    right += (start, end)
            right = tuple(right)
            if clo.holds(C, right):
                return r, left, right
    return None


def fact_items(clo) -> set:
    """The facts of ``clo.facts()`` as the tabular oracle's items:
    ``(nonterminal, ((l, r), ...))``."""
    return {(nt, _spans_of(flat)) for nt, flats in clo.facts().items() for flat in flats}


def live_planes(chart):
    """``(ids, planes)`` of the planes of ``chart`` that have a bit: the
    delta form ``plane_product`` takes."""
    ids = [t for t, plane in enumerate(chart) if plane.any()]
    return ids, chart[ids]


# ---------------------------------------------------------------------------
# random grammars

def _random_comp(rng: random.Random, fa: int, fb: int, fc: int):
    """A valid composition: b1 first, sides in index order, every same-side
    adjacency broken by a template boundary, fa nonempty templates."""
    tail = [Var("b", i) for i in range(2, fb + 1)]
    gs = [Var("g", i) for i in range(1, fc + 1)]
    merged = [Var("b", 1)]
    while tail or gs:
        take_b = tail and (not gs or rng.random() < 0.5)
        merged.append(tail.pop(0) if take_b else gs.pop(0))
    mandatory = {
        p for p in range(1, len(merged)) if merged[p - 1].side == merged[p].side
    }
    if len(mandatory) > fa - 1:
        return None
    optional = [p for p in range(1, len(merged)) if p not in mandatory]
    extra = rng.sample(optional, fa - 1 - len(mandatory))
    cuts = sorted(mandatory | set(extra))
    out, prev = [], 0
    for cut in cuts + [len(merged)]:
        out.append(tuple(merged[prev:cut]))
        prev = cut
    return tuple(out)


def random_grammar(rng: random.Random, d_cap: int = 4) -> Grammar:
    names = ["S", "A", "B", "C"]
    fo = {"S": 1}
    for nm in names[1:]:
        fo[nm] = rng.randint(1, 3)
    rules = []

    def add_binary(lhs) -> bool:
        for _ in range(50):
            r1 = rng.choice(names[1:])
            r2 = rng.choice(names[1:])
            fa, fb, fc = fo[lhs], fo[r1], fo[r2]
            if fa >= fb + fc:
                continue
            comp = _random_comp(rng, fa, fb, fc)
            if comp is None:
                continue
            r = Rule(len(rules), lhs, (r1, r2), comp, None, (fa, fb, fc))
            if per_rule_d(r) > d_cap:
                continue
            rules.append(r)
            return True
        return False

    if not add_binary("S"):
        return random_grammar(rng, d_cap)
    for _ in range(rng.randint(1, 3)):
        add_binary(rng.choice(names[1:]))
    for nm in names[1:]:
        spans = []
        for _ in range(fo[nm]):
            spans.append(tuple(rng.choice("ab") for _ in range(rng.randint(0, 2))))
        if all(not s for s in spans):
            spans[0] = ("a",)
        rules.append(Rule(len(rules), nm, None, None, tuple(spans), (fo[nm], 0, 0)))
    g = Grammar("S", tuple(rules), fo, frozenset(fo), frozenset("ab"))
    problems = validate(g)
    assert not problems, problems
    return g


# ---------------------------------------------------------------------------
# the bundled sweep

def _all_strings(alphabet, max_len, min_len=1):
    for L in range(min_len, max_len + 1):
        yield from itertools.product(alphabet, repeat=L)


def sweep_sentences(name: str):
    if name == "cfg_anbn":
        return [list(t) for t in _all_strings("ab", 10)]
    if name == "count4":
        return [list(t) for t in _all_strings("abcd", 6)]
    if name == "itg_sep":
        out = []
        for u in _all_strings("xy", 3, min_len=0):
            for v in _all_strings("xy", 3, min_len=0):
                out.append(list(u) + ["#"] + list(v))
        return out
    if name == "dual_initial_demo":
        return [list(t) for t in _all_strings("ab", 6)]
    raise KeyError(name)


SWEEP_NAMES = ("cfg_anbn", "count4", "itg_sep", "dual_initial_demo")


@pytest.fixture(scope="session")
def sweep(grammars):
    """Recognize every sweep sentence three ways, and compare each run's
    closed facts with the tabular oracle's items of the grammar run, start
    symbol aside (a start fact the join accepted is no fact of the chart);
    collect disagreements, fact mismatches, every run and the accepted
    runs."""
    results = {}
    for name in SWEEP_NAMES:
        g = grammars[name]
        max_len = {"cfg_anbn": 10, "count4": 6, "itg_sep": 7, "dual_initial_demo": 6}[name]
        enumerated = enumerate_language(g, max_len)
        disagreements = []
        fact_mismatches = []
        runs = []
        for toks in sweep_sentences(name):
            res = run_recognition(g, toks)
            by_oracle, items = tabular_recognize(g, toks)
            by_enum = tuple(toks) in enumerated
            if not (res.accepted == by_oracle == by_enum):
                disagreements.append(
                    (name, " ".join(toks), res.accepted, by_oracle, by_enum)
                )
            work = res.grammar
            if work is not g:
                # the run's facts are the converted grammar's
                _, items = tabular_recognize(work, toks)
            held = {it for it in fact_items(res.closure) if it[0] != work.start}
            if held != {it for it in items if it[0] != work.start}:
                fact_mismatches.append((name, " ".join(toks)))
            runs.append(res)
        results[name] = {
            "grammar": g,
            "disagreements": disagreements,
            "fact_mismatches": fact_mismatches,
            "runs": runs,
            # kept so derivations can be rebuilt later
            "accepted": {res.tokens: res for res in runs if res.accepted},
            "sentences": len(runs),
        }
    return results
