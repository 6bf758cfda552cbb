"""Transitive closure of seed matrices and the recognition entry point.

Recognition is closure of the seed matrix under the cell product.  When no
nonterminal is used in two different full-length endpoint configurations, a
single closure settles everything (in-matrix copy chains relay facts between
the splits that actually occur); otherwise closure alternates with a copying
pass until the matrix stops growing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .addresses import enumerate_space, splits_of_endpoints
from . import boolmat
from .boolmat import KERNEL_KIND, plane_product, scatter_planes, tables_for
from .engine import (
    CopySym,
    EngineUnsupported,
    ProductMatrix,
    _role_fits,
    engine_ready,
    pi_copy,
    seed,
)
from .grammar import (
    AnalysisReport,
    Grammar,
    GrammarError,
    analyze,
    configurations,
    contact_rank,
    is_balanced,
    is_single_initial,
    to_single_initial,
    validate,
)


@dataclass
class Closure:
    matrix: ProductMatrix
    muls: int = 0
    iterations: int = 0
    seconds: float = 0.0
    # one {"muls", "new_facts"} record per iteration: the multiplies it made
    # and the nonterminal facts it added
    rounds: list = field(default_factory=list)


def space_rank(g: Grammar) -> int:
    """Address length the engine needs: the grammar's contact rank, but never
    less than the widest lexical fact the seed must store."""
    d = contact_rank(g)
    for r in g.lexical_rules():
        d = max(d, g.fanout[r.lhs])
    return d


def closure_fixpoint(T: ProductMatrix, g: Grammar, tables=None) -> Closure:
    """Least fixpoint of X -> T | X*X, evaluated semi-naively on bit planes.

    T is split into symbol planes once.  The copy-symbol planes C never
    change, because products emit only nonterminals.  Each round multiplies
    only the terms of (X | C) * (X | C) that read a fact the round before
    added (D): every product term distributes over OR, and the terms that
    read no D fact were multiplied the round before.  Round 1 takes all of
    X as D, so it is the full product.  Round k therefore holds exactly the
    facts of round k of naive iteration, and ``iterations`` counts the same
    rounds, the last of which adds nothing.  The planes are scattered back
    into a copy of T once, at the end."""
    t0 = time.perf_counter()
    tab = tables or tables_for(g, T.space)
    # looked up on the module, so that a wrapper installed there sees it
    seeded = boolmat.symbol_planes(T)
    copies = {s: p for s, p in seeded.items() if isinstance(s, CopySym)}
    X = {s: p for s, p in seeded.items() if not isinstance(s, CopySym)}
    delta = X
    stats = {"muls": 0}
    rounds = []
    while True:
        before = stats["muls"]
        chart = {**X, **copies}
        fresh = {}
        for nt, bits in plane_product(chart, chart, g, tab, stats, delta).items():
            have = X.get(nt)
            if have is not None:
                bits = bits - have
            if bits.any():
                fresh[nt] = bits
        rounds.append({"muls": stats["muls"] - before,
                       "new_facts": sum(b.count() for b in fresh.values())})
        if not fresh:
            break
        for nt, bits in fresh.items():
            have = X.get(nt)
            X[nt] = bits if have is None else have | bits
        delta = fresh
    out = T.copy()
    scatter_planes({nt: bits - seeded[nt] if nt in seeded else bits
                    for nt, bits in X.items()}, out)
    return Closure(out, stats["muls"], len(rounds), time.perf_counter() - t0, rounds)


def _top_cell(space, n):
    return space.unmarked_ids[(0,)], space.unmarked_ids[(n,)]


def _run(g: Grammar, sentence, general: bool):
    """Recognition core; returns (accepted, chart, stats)."""
    tokens = tuple(sentence)
    n = len(tokens)
    space = enumerate_space(n, space_rank(g))
    tables = tables_for(g, space)
    T = seed(g, tokens, space)
    t0 = time.perf_counter()
    muls = iters = 0
    outer = 0
    rounds = []
    if general:
        while True:
            outer += 1
            clo = closure_fixpoint(pi_copy(T), g, tables)
            muls += clo.muls
            iters += clo.iterations
            rounds += clo.rounds
            if clo.matrix.fact_count() == T.fact_count():
                assert clo.matrix == T
                break
            T = clo.matrix
        chart = T
    else:
        outer = 1
        clo = closure_fixpoint(T, g, tables)
        muls, iters, rounds = clo.muls, clo.iterations, clo.rounds
        # the verdict cell has a unique split, but downstream consumers
        # (derivation extraction, invariant checks) expect the published
        # chart closed under equivalent-cell copying
        chart = pi_copy(clo.matrix)
    i, j = _top_cell(space, n)
    accepted = n > 0 and g.start in chart.get(i, j)
    stats = {
        "n": n,
        "dim": space.dim,
        "path": "general" if general else "single-closure",
        "kernel": KERNEL_KIND,
        "muls": muls,
        "iterations": iters,
        "outer_iterations": outer,
        "rounds": rounds,
        "facts": chart.fact_count(),
        "seconds": time.perf_counter() - t0,
    }
    return accepted, chart, stats


@dataclass
class RunResult:
    accepted: bool
    grammar: Grammar            # the grammar actually run (post-conversion)
    chart: ProductMatrix
    report: AnalysisReport
    stats: dict = field(default_factory=dict)


def run_recognition(g: Grammar, sentence) -> RunResult:
    """Validate, convert to single-initial if needed, dispatch on balance."""
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))
    converted = not is_single_initial(g)
    work = to_single_initial(g) if converted else g
    problems = engine_ready(work)
    if problems:
        raise EngineUnsupported("; ".join(problems))
    report = analyze(work)
    accepted, chart, stats = _run(work, sentence, is_balanced(work))
    stats["converted"] = converted
    return RunResult(accepted, work, chart, report, stats)


# ---------------------------------------------------------------------------
# derivation extraction

@dataclass
class DerivationNode:
    nonterminal: str
    rule: int
    spans: tuple                    # ((l, r), ...) covering this node
    children: tuple = ()

    def to_json(self) -> dict:
        return {
            "nonterminal": self.nonterminal,
            "rule": self.rule,
            "spans": [[l, r] for l, r in self.spans],
            "children": [c.to_json() for c in self.children],
        }


def _spans_of(flat):
    return tuple((flat[t], flat[t + 1]) for t in range(0, len(flat), 2))


def extract_derivation(chart: ProductMatrix, g: Grammar, sentence):
    """Backtrack a derivation tree out of a recognition chart.

    Returns None when the start symbol is absent from ((0),(n)).  A present
    start fact that cannot be rebuilt from the chart is a hard error: the
    chart lied.
    """
    tokens = tuple(sentence)
    n = len(tokens)
    if n == 0:
        return None
    space = chart.space
    addrs = space.addresses
    i0, j0 = _top_cell(space, n)
    if g.start not in chart.get(i0, j0):
        return None

    nt_cells = {}
    by_row: dict = {}
    by_col: dict = {}
    for (r, c), syms in chart.cells.items():
        if addrs[r].mark >= 0 or addrs[c].mark >= 0:
            continue
        nts = frozenset(s for s in syms if not isinstance(s, CopySym))
        if not nts:
            continue
        nt_cells[(r, c)] = nts
        by_row.setdefault(r, set()).add(c)
        by_col.setdefault(c, set()).add(r)

    rules = sorted(g.rules, key=lambda r: r.rid)
    memo: dict = {}

    def justify(nt, flat):
        key = (nt, flat)
        if key in memo:
            return memo[key]
        spans = _spans_of(flat)
        node = None
        for r in rules:
            if r.lhs != nt:
                continue
            if not r.is_binary:
                if len(r.words) == len(spans) and all(
                    tuple(tokens[l:h]) == w for (l, h), w in zip(spans, r.words)
                ):
                    node = DerivationNode(nt, r.rid, spans)
                    break
                continue
            cfg1, cfg2, cfg3 = configurations(r)
            B, C = r.rhs
            for row, col in sorted(splits_of_endpoints(flat, space.d)):
                i = space.unmarked_ids.get(row)
                j = space.unmarked_ids.get(col)
                if i is None or j is None:
                    continue
                for k in sorted(by_row.get(i, set()) & by_col.get(j, set())):
                    ia, ka, ja = addrs[i], addrs[k], addrs[j]
                    if B not in nt_cells.get((i, k), ()) or C not in nt_cells.get((k, j), ()):
                        continue
                    if not (
                        _role_fits(cfg2, 2 * r.fo[1], ia, ka, ia)
                        and _role_fits(cfg3, 2 * r.fo[2], ka, ja, ka)
                        and _role_fits(cfg1, 2 * r.fo[0], ia, ja, ia)
                    ):
                        continue
                    left = justify(B, tuple(sorted(ia.positions + ka.positions)))
                    if left is None:
                        continue
                    right = justify(C, tuple(sorted(ka.positions + ja.positions)))
                    if right is None:
                        continue
                    node = DerivationNode(nt, r.rid, spans, (left, right))
                    break
                if node is not None:
                    break
            if node is not None:
                break
        memo[key] = node
        return node

    root = justify(g.start, (0, n))
    if root is None:
        raise RuntimeError(
            "start fact present at ((0),(%d)) but no derivation rebuilds it; "
            "the chart is inconsistent" % n
        )
    return root
