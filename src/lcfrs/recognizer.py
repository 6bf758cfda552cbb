"""Transitive closure of seed matrices and the recognition entry point.

Recognition is closure of the seed matrix under the cell product and under
copying each nonterminal fact to every cell that describes the same spans
(pi-copy).  Both distribute over union, so one semi-naive loop evaluates
them together: each round copies its new facts onto their equivalent cells,
and the next round multiplies the copies along with the products.

The closure runs at ``space_rank``, which leaves out the start rules when
the start symbol is on no right-hand side; those rules are then applied to
the closed chart by a join over their children's span facts.

A run stays on one chart from the seed to the verdict: a packed (symbol,
row, word) array with a plane per nonterminal, in the order of
``Grammar.symbol_ids``.  A closure round touches only its live planes,
the head planes its product wrote, so its work follows the planes that
can change rather than the whole chart.  Derivation extraction reads the
same closed chart.
``facts_of`` and ``planes_of`` are the one conversion between chart bits
and facts (sorted endpoint tuples): the seed, pi-copy and the start-rule
join all go through them.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .addresses import AddressSpace, cell_endpoints, enumerate_space
from .boolmat import (
    KERNEL_KIND, _mask, bit, nonzero_bits, plane_product, popcount, row_bits, set_cells, zeros,
)
from .engine import EngineUnsupported, engine_ready, lexical_facts
from .grammar import (
    Grammar,
    GrammarError,
    is_single_initial,
    space_rank,
    to_single_initial,
    validate,
)


@dataclass
class Closure:
    """A closed chart over ``space``: a packed (symbol, row, word) array
    with one plane per nonterminal of ``symbol_ids``, in that order."""
    chart: object
    symbol_ids: dict
    space: AddressSpace
    # one {"muls", "new_facts"} record per iteration: the multiplies it made
    # and the nonterminal facts it added
    rounds: list = field(default_factory=list)
    # milliseconds of the run spent fetching rule masks
    mask_ms: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def muls(self) -> int:
        return sum(r["muls"] for r in self.rounds)

    def fact_count(self) -> int:
        return popcount(self.chart)

    def holds(self, sym, endpoints: tuple) -> bool:
        """Does the chart hold ``sym`` over the spans of ``endpoints``?  The
        chart is closed under pi-copy, so one split of the endpoints tells;
        endpoints with no split in the space, and symbols outside the
        chart, are never held."""
        t = self.symbol_ids.get(sym)
        splits = self.space.split_ids(endpoints)
        return t is not None and bool(splits) and bit(self.chart[t], *splits[0])


def facts_of(chart, symbols, space: AddressSpace) -> dict:
    """``{nonterminal: set of sorted endpoint tuples}`` read off the set bits
    of ``chart`` whose merge is defined; ``symbols`` names the chart's
    planes in order.  A plane with no such bit gives no entry."""
    addrs = space.addresses
    dim = chart.shape[1]
    rows, cols = (a.tolist() for a in nonzero_bits(chart))
    out = {}
    lo = 0
    for t, nt in enumerate(symbols):
        # rows run across the planes in order: plane t holds t*dim to t*dim+dim-1
        base = t * dim
        hi = bisect_left(rows, base + dim, lo)
        flats = {cell_endpoints(addrs[r - base], addrs[c])
                 for r, c in zip(rows[lo:hi], cols[lo:hi])}
        flats.discard(None)
        if flats:
            out[nt] = flats
        lo = hi
    return out


def _set_facts(chart, facts: dict, symbol_ids: dict, space: AddressSpace):
    """``chart`` with every fact of ``facts`` set on every split of its
    endpoints, all set in place by one scatter; ``symbol_ids`` gives each
    nonterminal's plane.  A fact with no split in the space sets nothing."""
    cells = [(t, r, c) for nt, flats in facts.items() for t in (symbol_ids[nt],)
             for flat in flats for r, c in space.split_ids(flat)]
    if cells:
        tpc = np.fromiter(chain.from_iterable(cells), dtype=np.intp, count=3 * len(cells))
        set_cells(chart, tpc[0::3], tpc[1::3], tpc[2::3])
    return chart


def planes_of(facts: dict, symbol_ids: dict, space: AddressSpace):
    """The chart with every fact of ``facts`` set on every split of its
    endpoints, all set by one scatter; ``symbol_ids`` gives each
    nonterminal's plane.  A fact with no split in the space sets nothing."""
    return _set_facts(zeros(space.dim, len(symbol_ids)), facts, symbol_ids, space)


def pi_copy(chart, symbol_ids: dict, space: AddressSpace):
    """Plane form of ``engine.pi_copy``: a copy of the chart with each fact
    also set on every cell whose addresses merge to the same endpoints.
    Cells with an undefined merge copy nowhere.  ``symbol_ids`` names the
    chart's planes, which may be any subset of a grammar's: the closure
    passes only the planes a round wrote.  The work grows with the facts
    given, not with the space, and a chart with no bit is only copied."""
    out = chart.copy()
    if np.count_nonzero(chart):
        _set_facts(out, facts_of(chart, symbol_ids, space), symbol_ids, space)
    return out


def seed_planes(g: Grammar, sentence, space: AddressSpace):
    """Plane form of ``engine.seed``: the chart of lexical facts, all set by
    one scatter."""
    return planes_of(lexical_facts(g, sentence, space), g.symbol_ids, space)


# the rule masks the last closure fetched: (grammar, space, {(rule id, role): mask})
_masks_cache: dict = {}


def _masks_for(g: Grammar, space: AddressSpace) -> dict:
    """The masks dict ``plane_product`` fills for ``g`` over ``space``: the
    last closure's when it ran the same grammar object over the same space,
    else a fresh one, which replaces it.  Holding one entry keeps the cache
    within the masks of one run."""
    last = _masks_cache.get("last")
    if last is None or last[0] is not g or last[1] is not space:
        last = _masks_cache["last"] = (g, space, {})
    return last[2]


def closure_fixpoint(T, g: Grammar, space: AddressSpace) -> Closure:
    """Least fixpoint of X -> pi(X | X*X) above T, evaluated semi-naively on
    a chart.  T is the seed chart over ``space`` (``seed_planes``, or any
    chart of ``g``'s symbols).  It must be closed under pi-copy, as every
    seed is, and it is never written to.

    Each round multiplies only the terms of X * X that read a fact the round
    before added (D), then copies its new facts to their equivalent cells.
    Both steps distribute over OR, and X stays closed under copying, so the
    terms that read no D fact and the copies of older facts are in X
    already.  Round 1 takes all of X as D, that is, multiplies every term.
    Round k therefore holds exactly the facts of round k of naive
    iteration, and ``iterations`` counts the same rounds, the last of which
    adds nothing.  Each rule's masks are fetched once, and ``mask_ms`` is
    the time those fetches took; a run of the same grammar object over the
    same space as the run before reuses that run's fetched masks.

    A round touches only its live planes: the head planes the product
    wrote (``plane_product``'s ids), and of those, the ones that gained a
    fact become D, carried as (ids, planes).  The complement, AND, copy,
    count and OR into X run over those planes alone, so a plane that no
    binary rule heads, a lexical-only symbol, is never touched after the
    seed."""
    names = list(g.symbol_ids)
    X = T.copy()
    delta = None
    masks = _masks_for(g, space)
    stats = {"muls": 0, "mask_ms": 0.0}
    rounds = []
    while True:
        before = stats["muls"]
        heads, fresh = plane_product(X, X, g, space, stats, delta, masks)
        absent = X.take(heads, axis=0)
        np.invert(absent, out=absent)
        fresh &= absent
        fresh = pi_copy(fresh, {names[t]: p for p, t in enumerate(heads)}, space)
        fresh &= absent
        new_facts = popcount(fresh)
        rounds.append({"muls": stats["muls"] - before, "new_facts": new_facts})
        if not new_facts:
            break
        live = [p for p, plane in enumerate(fresh) if np.count_nonzero(plane)]
        if len(live) < len(heads):
            heads, fresh = [heads[p] for p in live], fresh.take(live, axis=0)
        for t, plane in zip(heads, fresh):
            X[t] |= plane
        delta = (heads, fresh)
    return Closure(X, g.symbol_ids, space, rounds, stats["mask_ms"])


def _start_witness(clo: Closure, g: Grammar, n: int):
    """The first ``(rule, left endpoints, right endpoints)``, in rule-id and
    then endpoint order, by which a binary start rule derives (0, n) from two
    facts of a closed chart; None when there is none.  Only the planes of
    the start rules' children are read.

    The start symbol has fan-out 1, so the rule's one template lays the
    children's spans end to end over (0, n): a first-child fact beginning at
    0 fixes every span of the second child, the gaps between its own spans
    and after its last one.  A fact beginning at 0 has a row address
    beginning at 0, and those are the ids below that of (1,).  Each such
    fact then costs a test of the second child's bit on one split of the
    spans it fixes."""
    rules = sorted((r for r in g.binary_rules() if r.lhs == g.start), key=lambda r: r.rid)
    firsts = sorted({r.rhs[0] for r in rules})
    starts_at_0 = clo.chart[[clo.symbol_ids[B] for B in firsts], :clo.space.ids[(1,)]]
    lefts_of = facts_of(starts_at_0, firsts, clo.space)
    for r in rules:
        B, C = r.rhs
        (template,) = r.comp
        ends_with_b = template[-1].side == "b"
        for left in sorted(lefts_of.get(B, ())):
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
            if clo.holds(C, right):
                return r, left, right
    return None


@dataclass
class RunResult:
    accepted: bool
    grammar: Grammar            # the grammar actually run (post-conversion)
    stats: dict
    closure: Closure = field(repr=False)


# grammar-only preparation, keyed by id(g) and checked by identity
_prepared_cache: dict = {}


def _prepare(g: Grammar):
    """``(grammar to run, converted, rank)`` for ``g``, computed once
    per grammar object.  A grammar that fails a check is not cached, so it
    raises on every call."""
    hit = _prepared_cache.get(id(g))
    if hit is not None and hit[0] is g:
        return hit[1]
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))
    converted = not is_single_initial(g)
    work = to_single_initial(g) if converted else g
    problems = engine_ready(work)
    if problems:
        raise EngineUnsupported("; ".join(problems))
    prepared = (work, converted, space_rank(work))
    if len(_prepared_cache) >= 64:
        _prepared_cache.clear()
    _prepared_cache[id(g)] = (g, prepared)
    return prepared


def run_recognition(g: Grammar, sentence) -> RunResult:
    """Validate, convert to single-initial if needed, and close the seed."""
    work, converted, rank = _prepare(g)
    tokens = tuple(sentence)
    n = len(tokens)
    t0 = time.perf_counter()
    space = enumerate_space(n, rank)
    t1 = time.perf_counter()
    seeded = seed_planes(work, tokens, space)
    t2 = time.perf_counter()
    clo = closure_fixpoint(seeded, work, space)
    t3 = time.perf_counter()
    accepted = n > 0 and (clo.holds(work.start, (0, n))
                          or _start_witness(clo, work, n) is not None)
    facts = popcount(seeded) + sum(r["new_facts"] for r in clo.rounds)
    t4 = time.perf_counter()
    stats = {
        "n": n,
        "rank": space.d,
        "dim": space.dim,
        "kernel": KERNEL_KIND,
        "muls": clo.muls,
        "iterations": clo.iterations,
        "rounds": clo.rounds,
        "facts": facts,
        "converted": converted,
        "phases": {
            "space": (t1 - t0) * 1000,
            "seed": (t2 - t1) * 1000,
            "masks": clo.mask_ms,
            "closure": (t3 - t2) * 1000 - clo.mask_ms,
            "readout": (t4 - t3) * 1000,
        },
    }
    return RunResult(accepted, work, stats, clo)


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


def extract_derivation(clo: Closure, g: Grammar, sentence):
    """Backtrack a derivation tree out of a closed chart (``RunResult.closure``).

    When the chart holds the start symbol over (0, n), the tree is rebuilt
    from that fact.  Otherwise its top node comes from ``_start_witness``,
    the start rule joined over two child facts of the chart, as
    ``run_recognition`` accepts it, and everything below that node is
    rebuilt from the chart.  Returns None when neither exists.  A start fact
    or witness that cannot be rebuilt from the chart is a hard error: the
    chart lied.

    A fact is rebuilt by the first rule, in id order, that derives it.  For
    a binary rule the splits (i, j) of its spans are tried in id order, and
    for each the middle addresses k in ascending order among the set bits
    of row i of the first child's plane; k is taken when the second child's
    bit at (k, j) is set, the rule's masks q2, q3 and q1 (the closure's)
    hold (i, k), (k, j) and (i, j), and both child facts rebuild in turn.
    The masks are tested in that order, so a mask is fetched only where the
    closure fetched it too.
    """
    tokens = tuple(sentence)
    n = len(tokens)
    if n == 0:
        return None
    space = clo.space
    addrs = space.addresses
    chart, ids = clo.chart, clo.symbol_ids

    witness = None
    if not clo.holds(g.start, (0, n)):
        witness = _start_witness(clo, g, n)
        if witness is None:
            return None

    rules = sorted(g.rules, key=lambda r: r.rid)
    masks: dict = {}
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
            B, C = r.rhs
            left, right = chart[ids[B]], chart[ids[C]]
            for i, j in sorted(space.split_ids(flat)):
                for k in row_bits(left[i]):
                    if not (
                        bit(right, k, j)
                        and bit(_mask(masks, space, r, 2), i, k)
                        and bit(_mask(masks, space, r, 3), k, j)
                        and bit(_mask(masks, space, r, 1), i, j)
                    ):
                        continue
                    left = justify(B, cell_endpoints(addrs[i], addrs[k]))
                    if left is None:
                        continue
                    right = justify(C, cell_endpoints(addrs[k], addrs[j]))
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
