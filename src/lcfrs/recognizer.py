"""Transitive closure of seed matrices and the recognition entry point.

Recognition is closure of the seed matrix under the cell product and under
copying each nonterminal fact to every cell that describes the same spans
(pi-copy).  Both distribute over union, so one semi-naive loop evaluates
them together: each round copies its new facts onto their equivalent cells,
and the next round multiplies the copies along with the products.

The closure runs at ``space_rank``, which leaves out the start rules when
the start symbol is on no right-hand side; those rules are then applied to
the closed chart by a join over their children's span facts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .addresses import enumerate_space, splits_of_endpoints
from . import boolmat
from .boolmat import BoolMatrix, KERNEL_KIND, plane_product, scatter_planes, tables_for
from .engine import (
    CopySym,
    EngineUnsupported,
    ProductMatrix,
    _role_fits,
    engine_ready,
    seed,
)
from .grammar import (
    AnalysisReport,
    Grammar,
    GrammarError,
    analyze,
    configurations,
    is_single_initial,
    space_rank,
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


def pi_copy(planes: dict, space) -> dict:
    """Plane form of ``engine.pi_copy``: each nonterminal plane with its
    facts also set on every cell whose addresses merge to the same
    endpoints.  Cells with a mark or an undefined merge copy nowhere.  The
    work grows with the facts given, not with the space."""
    addrs, ids = space.addresses, space.unmarked_ids
    out = {}
    for nt, bits in planes.items():
        flats = set()
        for r, c in bits.nonzero_cells():
            a, b = addrs[r], addrs[c]
            if (a.mark < 0 and b.mark < 0 and b.positions[0] > a.positions[0]
                    and not (len(a) + len(b)) % 2):
                flats.add(tuple(sorted(a.positions + b.positions)))
        cells = [(ids[row], ids[col])
                 for flat in flats for row, col in splits_of_endpoints(flat, space.d)]
        out[nt] = bits | BoolMatrix.from_cells(space.dim, cells) if cells else bits
    return out


def closure_fixpoint(T: ProductMatrix, g: Grammar) -> Closure:
    """Least fixpoint of X -> pi(X | X*X) above T, evaluated semi-naively on
    bit planes.  T must be closed under pi-copy, as every seed is.

    T is split into symbol planes once.  The copy-symbol planes C never
    change, because products emit only nonterminals.  Each round multiplies
    only the terms of (X | C) * (X | C) that read a fact the round before
    added (D), then copies its new facts to their equivalent cells.  Both
    steps distribute over OR, and X stays closed under copying, so the terms
    that read no D fact and the copies of older facts are in X already.
    Round 1 takes all of X as D.  Round k therefore holds exactly the facts
    of round k of naive iteration, and ``iterations`` counts the same
    rounds, the last of which adds nothing.  The planes are scattered back
    into a copy of T once, at the end."""
    tab = tables_for(g, T.space)
    t0 = time.perf_counter()
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
            if nt in X:
                bits = bits - X[nt]
            if bits.any():
                fresh[nt] = bits
        for nt, bits in pi_copy(fresh, T.space).items():
            fresh[nt] = bits - X[nt] if nt in X else bits
        rounds.append({"muls": stats["muls"] - before,
                       "new_facts": sum(b.count() for b in fresh.values())})
        if not fresh:
            break
        for nt, bits in fresh.items():
            X[nt] = X[nt] | bits if nt in X else bits
        delta = fresh
    out = T.copy()
    scatter_planes({nt: bits - seeded[nt] if nt in seeded else bits
                    for nt, bits in X.items()}, out)
    return Closure(out, stats["muls"], len(rounds), time.perf_counter() - t0, rounds)


def _top_cell(space, n):
    return space.unmarked_ids[(0,)], space.unmarked_ids[(n,)]


def _span_facts(chart: ProductMatrix, nts) -> dict:
    """``{nonterminal: set of sorted endpoint tuples}`` for the nonterminals
    in ``nts``, read off the chart's unmarked cells whose merge is defined."""
    addrs = chart.space.addresses
    out = {}
    for (r, c), syms in chart.cells.items():
        hit = nts.intersection(syms)
        if not hit:
            continue
        a, b = addrs[r], addrs[c]
        if a.mark >= 0 or b.mark >= 0 or b.positions[0] <= a.positions[0]:
            continue
        flat = tuple(sorted(a.positions + b.positions))
        for nt in hit:
            out.setdefault(nt, set()).add(flat)
    return out


def _start_witness(chart: ProductMatrix, g: Grammar, n: int):
    """The first ``(rule, left endpoints, right endpoints)``, in rule-id and
    then endpoint order, by which a binary start rule derives (0, n) from two
    facts of the chart; None when there is none.

    The start symbol has fan-out 1, so the rule's one template lays the
    children's spans end to end over (0, n): a first-child fact beginning at
    0 fixes every span of the second child, the gaps between its own spans
    and after its last one.  Each such fact costs one set lookup."""
    rules = sorted((r for r in g.binary_rules() if r.lhs == g.start), key=lambda r: r.rid)
    if not rules:
        return None
    facts = _span_facts(chart, {nt for r in rules for nt in r.rhs})
    for r in rules:
        B, C = r.rhs
        right_facts = facts.get(C)
        if not right_facts:
            continue
        (template,) = r.comp
        ends_with_b = template[-1].side == "b"
        for left in sorted(facts.get(B, ())):
            if left[0] != 0:
                break
            if ends_with_b and left[-1] != n:
                continue
            spans = _spans_of(left)
            right = []
            for t, v in enumerate(template):
                if v.side == "g":
                    start = spans[template[t - 1].index - 1][1]
                    end = spans[template[t + 1].index - 1][0] if t + 1 < len(template) else n
                    right += (start, end)
            right = tuple(right)
            if right in right_facts:
                return r, left, right
    return None


@dataclass
class RunResult:
    accepted: bool
    grammar: Grammar            # the grammar actually run (post-conversion)
    chart: ProductMatrix
    report: AnalysisReport
    stats: dict = field(default_factory=dict)


def run_recognition(g: Grammar, sentence) -> RunResult:
    """Validate, convert to single-initial if needed, and close the seed."""
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))
    converted = not is_single_initial(g)
    work = to_single_initial(g) if converted else g
    problems = engine_ready(work)
    if problems:
        raise EngineUnsupported("; ".join(problems))
    report = analyze(work)
    tokens = tuple(sentence)
    n = len(tokens)
    space = enumerate_space(n, space_rank(work))
    clo = closure_fixpoint(seed(work, tokens, space), work)
    i, j = _top_cell(space, n)
    accepted = n > 0 and (work.start in clo.matrix.get(i, j)
                          or _start_witness(clo.matrix, work, n) is not None)
    stats = {
        "n": n,
        "rank": space.d,
        "dim": space.dim,
        "kernel": KERNEL_KIND,
        "muls": clo.muls,
        "iterations": clo.iterations,
        "rounds": clo.rounds,
        "facts": clo.matrix.fact_count(),
        "seconds": clo.seconds,
        "converted": converted,
    }
    return RunResult(accepted, work, clo.matrix, report, stats)


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

    When the top cell ((0),(n)) holds the start symbol, the tree is rebuilt
    from that fact.  Otherwise its top node comes from ``_start_witness``,
    the start rule joined over two child facts of the chart, as
    ``run_recognition`` accepts it, and everything below that node is
    rebuilt from the chart.  Returns None when neither exists.  A start fact
    or witness that cannot be rebuilt from the chart is a hard error: the
    chart lied.
    """
    tokens = tuple(sentence)
    n = len(tokens)
    if n == 0:
        return None
    space = chart.space
    addrs = space.addresses
    i0, j0 = _top_cell(space, n)
    witness = None
    if g.start not in chart.get(i0, j0):
        witness = _start_witness(chart, g, n)
        if witness is None:
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

    if witness is None:
        root = justify(g.start, (0, n))
    else:
        r, left_flat, right_flat = witness
        children = (justify(r.rhs[0], left_flat), justify(r.rhs[1], right_flat))
        root = DerivationNode(g.start, r.rid, ((0, n),), children) if all(children) else None
    if root is None:
        raise RuntimeError(
            "start fact or start-rule witness present for (0, %d) but no "
            "derivation rebuilds it; the chart is inconsistent" % n
        )
    return root
