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
from lcfrs.boolmat import nonzero_bits, plane_product, set_cells, zeros
from lcfrs.engine import ProductMatrix, pi_copy
from lcfrs.grammar import Grammar, Rule, Var, contact_rank, per_rule_d, validate
from lcfrs.oracle import enumerate_language, tabular_recognize
from lcfrs.recognizer import run_recognition, space_rank


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
    heads, planes = plane_product(G, H, g, space, **kwargs)
    chart = zeros(space.dim, len(g.symbol_ids))
    chart[heads] = planes
    return chart


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


def _chart_violations(chart) -> list:
    """Structural checks every published matrix must satisfy."""
    out = []
    if not chart.is_upper_triangular():
        out.append("not upper-triangular")
    if pi_copy(chart) != chart:
        out.append("not copy-complete at fixpoint")
    return out


SWEEP_NAMES = ("cfg_anbn", "count4", "itg_sep", "dual_initial_demo")


@pytest.fixture(scope="session")
def sweep(grammars):
    """Recognize every sweep sentence three ways; collect disagreements,
    structural violations, and the accepted sets."""
    results = {}
    for name in SWEEP_NAMES:
        g = grammars[name]
        max_len = {"cfg_anbn": 10, "count4": 6, "itg_sep": 7, "dual_initial_demo": 6}[name]
        enumerated = enumerate_language(g, max_len)
        disagreements = []
        violations = []
        accepted = {}
        for toks in sweep_sentences(name):
            res = run_recognition(g, toks)
            by_oracle, _ = tabular_recognize(g, toks)
            by_enum = tuple(toks) in enumerated
            if not (res.accepted == by_oracle == by_enum):
                disagreements.append(
                    (name, " ".join(toks), res.accepted, by_oracle, by_enum)
                )
            if res.accepted:
                # keep the closure so derivations can be rebuilt later
                accepted[tuple(toks)] = (res.closure, res.grammar)
            clo = res.closure
            bad = _chart_violations(chart_of(clo.chart, clo.symbol_ids, clo.space))
            if bad:
                violations.append((name, " ".join(toks), bad))
        results[name] = {
            "grammar": g,
            "disagreements": disagreements,
            "violations": violations,
            "accepted": accepted,
            "sentences": len(sweep_sentences(name)),
        }
    return results
