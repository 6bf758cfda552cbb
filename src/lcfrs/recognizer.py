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
and facts (sorted endpoint tuples): the seed and pi-copy go through them,
and ``Closure.facts()`` reads a closed run's facts for its callers.
The start-rule join reads no facts: it gathers the children's bits at a
table of candidate cells kept on the space.
"""

from __future__ import annotations

import json
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import comb

import numpy as np

from .addresses import AddressSpace, cell_endpoints, enumerate_space, fits, split_patterns
from .boolmat import (
    KERNEL_KIND, RulePlan, _nwords, bit, nonzero_bits, plane_product, popcount, row_bits,
    rule_plan, set_cells, zeros,
)
from .grammar import (
    Grammar,
    GrammarError,
    configurations,
    is_single_initial,
    space_rank,
    to_single_initial,
    validate,
)


@dataclass
class Closure:
    """A closed chart over ``plan.space``: a packed (symbol, row, word)
    array with one plane per nonterminal of ``plan.symbol_ids``, in that
    order.  ``plan`` is the ``rule_plan`` the closure multiplied by."""
    chart: object
    plan: RulePlan
    # one {"muls", "new_facts"} record per iteration: the multiplies it made
    # and the chart bits it set, a fact once per cell that holds it
    rounds: list = field(default_factory=list)

    @property
    def space(self) -> AddressSpace:
        return self.plan.space

    @property
    def symbol_ids(self) -> dict:
        return self.plan.symbol_ids

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def muls(self) -> int:
        return sum(r["muls"] for r in self.rounds)

    def facts(self) -> dict:
        """``{nonterminal: set of sorted endpoint tuples}``: what the run
        derived, read off the closed chart by ``facts_of``.  A nonterminal
        with no fact has no entry.  A start fact that the start-rule join
        accepted is not among them; ``RunResult.accepted`` and
        ``RunResult.witness`` carry it."""
        return facts_of(self.chart, self.symbol_ids, self.space)

    def fact_count(self) -> int:
        """The chart's set bits.  The chart is closed under pi-copy, so each
        fact of ``facts()`` counts once per split of its endpoints
        (``space.split_ids``), not once."""
        return popcount(self.chart)

    def holds(self, sym, endpoints) -> bool:
        """Does the chart hold ``sym`` over the spans of ``endpoints``, a
        sequence of integers?  The chart is closed under pi-copy, so the
        first of ``split_ids`` tells.  Endpoints that are not integers,
        unsorted, outside 0..n or of no split, and symbols outside the
        chart, are never held."""
        t = self.symbol_ids.get(sym)
        try:
            endpoints = tuple(map(operator.index, endpoints))
        except TypeError:
            return False
        if t is None or not all(a <= b for a, b in zip((0, *endpoints),
                                                       (*endpoints, self.space.n))):
            return False
        splits = self.space.split_ids(endpoints)
        return bool(splits) and bit(self.chart[t], *splits[0])


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


def _set_facts(chart, facts: dict, space: AddressSpace):
    """``chart`` with every fact of ``facts`` (``{plane: sorted endpoint
    tuples}``) set on every split of its endpoints, in place by one
    scatter.  A fact with no split in the space sets nothing."""
    cells = [(t, r, c) for t, flats in facts.items()
             for flat in flats for r, c in space.split_ids(flat)]
    if cells:
        tpc = np.fromiter(chain.from_iterable(cells), dtype=np.intp, count=3 * len(cells))
        set_cells(chart, tpc[0::3], tpc[1::3], tpc[2::3])
    return chart


def planes_of(facts: dict, symbol_ids: dict, space: AddressSpace):
    """The chart with every fact of ``facts`` set on every split of its
    endpoints, all set by one scatter; ``symbol_ids`` gives each
    nonterminal's plane.  A fact with no split in the space sets nothing."""
    return _set_facts(zeros(space.dim, len(symbol_ids)),
                      {symbol_ids[nt]: flats for nt, flats in facts.items()}, space)


def pi_copy(chart, space: AddressSpace):
    """Plane form of ``oracle.pi_copy``: a copy of the chart with each fact
    also set on every cell whose addresses merge to the same endpoints, in
    the same plane.  Cells with an undefined merge copy nowhere.  The
    planes may be any stack over ``space``: the closure passes only the
    planes a round wrote.  The work grows with the facts given, not with
    the space, and a chart with no bit is only copied."""
    out = chart.copy()
    if np.count_nonzero(chart):
        _set_facts(out, facts_of(chart, range(len(chart)), space), space)
    return out


def _placements(words, tokens, at):
    """All ways to lay a lexical rule's span sequences over the sentence, in
    order and without overlap, each as its sorted endpoint tuple.  ``at``
    maps each token to its positions, so a span is matched only where its
    first token stands.  An empty span is a zero-width (p, p) anywhere at or
    after the previous span's end."""
    layouts = [()]
    for span in words:
        L = len(span)
        if L:
            hits = [(s, s + L) for s in at.get(span[0], ()) if tokens[s:s + L] == span]
        else:
            hits = [(p, p) for p in range(len(tokens) + 1)]
        layouts = [flat + hit for flat in layouts for hit in hits
                   if not flat or hit[0] >= flat[-1]]
        if not layouts:
            break
    return layouts


def seed_planes(g: Grammar, sentence, space: AddressSpace):
    """Plane form of ``oracle.seed``: each lexical rule's head over every
    layout ``_placements`` finds for its spans, all set by one scatter."""
    tokens = tuple(sentence)
    if space.n != len(tokens):
        raise ValueError("space built for n=%d, sentence has %d tokens" % (space.n, len(tokens)))
    lexical = g.lexical_rules()
    need = max((g.fanout[r.lhs] for r in lexical), default=1)
    if space.d < need:
        raise ValueError(
            "address length cap %d cannot hold fan-out-%d lexical facts" % (space.d, need)
        )
    at = {}
    for p, tok in enumerate(tokens):
        at.setdefault(tok, []).append(p)
    facts = {}
    for r in lexical:
        facts.setdefault(r.lhs, set()).update(_placements(r.words, tokens, at))
    return planes_of(facts, g.symbol_ids, space)


def closure_fixpoint(T, plan: RulePlan) -> Closure:
    """Least fixpoint of X -> pi(X | X*X) above T, evaluated semi-naively on
    a chart.  ``plan`` is the ``rule_plan`` of the grammar run over its
    space, and T is a seed chart of its shape (``seed_planes``, or any
    chart of the grammar's symbols).  It must be closed under pi-copy, as
    every seed is, and it is never written to.

    Each round multiplies only the terms of X * X that read a fact the round
    before added (D), then copies its new facts to their equivalent cells.
    Both steps distribute over OR, and X stays closed under copying, so the
    terms that read no D fact and the copies of older facts are in X
    already.  Round 1 takes all of X as D, that is, multiplies every term.
    Round k therefore holds exactly the facts of round k of naive
    iteration, and ``iterations`` counts the same rounds, the last of which
    adds nothing.  Every round's product reads the rules and their masks
    off ``plan``.

    A round touches only its live planes: the head planes the product
    wrote (``plane_product``'s ids), and of those, the ones that gained a
    fact become D, carried as (ids, planes).  The complement, AND, copy,
    count and OR into X run over those planes alone, so a plane that no
    binary rule heads, a lexical-only symbol, is never touched after the
    seed.  At rank 1 a fact has two endpoints and one split, the cell it
    is set on, so there is nothing to copy and ``pi_copy`` is not called."""
    space = plan.space
    X = T.copy()
    delta = None
    stats = {"muls": 0}
    rounds = []
    while True:
        before = stats["muls"]
        heads, fresh = plane_product(X, X, plan, stats, delta)
        absent = X.take(heads, axis=0)
        np.invert(absent, out=absent)
        fresh &= absent
        if space.d > 1:
            fresh = pi_copy(fresh, space)
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
    return Closure(X, plan, rounds)


def _build_join(space: AddressSpace, template: tuple, fo: tuple) -> tuple:
    """The join table of a start rule with one ``template`` and fan-outs
    ``fo`` over ``space``: ``(left words, left bits, right words, right
    bits)``, one entry per candidate, in the first child's endpoint order.

    The candidates are the first child's facts that begin at 0, and end at
    n when the template ends with the first child.  The start symbol has
    fan-out 1, so the template alternates b1 g1 b2 g2 ... over (0, n), and
    such a fact fixes the second child's endpoints: its own from the second
    on, then n.  An entry holds each fact's first split as the index of
    its word in a flattened (row, word) plane, an ``intp``, and the shift
    of its bit in that word, a ``uint64``, so the gathers take them as
    they are; a candidate with no first split of either fact is dropped."""
    n, d = space.n, space.d
    words = _nwords(space.dim)
    Lb, Lc = 2 * fo[1], 2 * fo[2]
    if Lb > 2 * d or Lc > 2 * d:
        none = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint64)
        return none + none
    pattern = row_at, col_at = next(split_patterns(Lb, d))
    # the rows that begin at 0 are a leading slice of their length
    k = len(row_at)
    rows = [a[:comb(n + k - 1, k - 1)] for a in space.by_length[k]]
    cols = space.by_length[len(col_at)]
    candidates = fits(pattern, rows, cols)
    if template[-1].side == "b":
        candidates &= cols[1][:, -1] == n
    ri, ci = candidates.nonzero()
    # the first child's endpoints, then n
    ends = [None] * Lb + [np.full(ri.size, n)]
    for at, pos, picked in ((row_at, rows[1], ri), (col_at, cols[1], ci)):
        for j, t in enumerate(at):
            ends[t] = pos[:, j].take(picked)
    right_row, right_col = space.first_split_ids(ends[1:Lc + 1])
    keep = right_col > right_row
    out = ()
    for row, col in ((rows[0].take(ri[keep]), cols[0].take(ci[keep])),
                     (right_row[keep], right_col[keep])):
        row, col = row.astype(np.intp), col.astype(np.intp)
        out += (row * words + (col >> 6), (col & 63).astype(np.uint64))
    return out


def _join_table(space: AddressSpace, r) -> tuple:
    """``_build_join`` for start rule ``r``, built on first use into
    ``space.joins`` under its template and fan-outs, and shared by
    sentences and re-parsed grammars over the space."""
    (template,) = r.comp
    key = template, r.fo
    got = space.joins.get(key)
    if got is None:
        got = space.joins[key] = _build_join(space, template, r.fo)
    return got


def _start_witness(clo: Closure):
    """The first ``(rule, left endpoints, right endpoints)``, in rule-id and
    then endpoint order, by which a start rule beyond the rank
    (``clo.plan.joined``) derives (0, n) from two facts of a closed chart
    over a sentence of length n; None when there is none.  Only the planes
    of those rules' children are read.

    Each start rule is one gather over its join table (``_join_table``):
    both children's bits at the first splits of every candidate pair, of
    which the first set in both is the witness.  The chart is closed under
    pi-copy, so a fact's first split holds it exactly when the chart does."""
    space, chart, ids = clo.space, clo.chart, clo.symbol_ids
    words = chart.shape[-1]
    addrs = space.addresses

    def fact(word, at):
        row, word = divmod(int(word), words)
        return cell_endpoints(addrs[row], addrs[64 * word + int(at)])

    for r in clo.plan.joined:
        left_words, left_bits, right_words, right_bits = _join_table(space, r)
        if not left_words.size:
            continue
        B, C = r.rhs
        hits = chart[ids[B]].reshape(-1).take(left_words) >> left_bits
        hits &= chart[ids[C]].reshape(-1).take(right_words) >> right_bits
        hits &= np.uint64(1)
        k = hits.argmax()
        if hits[k]:
            return r, fact(left_words[k], left_bits[k]), fact(right_words[k], right_bits[k])
    return None


@dataclass
class RunResult:
    accepted: bool
    grammar: Grammar            # the grammar actually run (post-conversion)
    stats: dict
    closure: Closure = field(repr=False)
    tokens: tuple               # the sentence run
    # the start-rule join's (rule, left endpoints, right endpoints) when it,
    # and not a start fact of the chart, accepted the sentence; else None
    witness: tuple | None


class EngineUnsupported(ValueError):
    """The grammar is valid but not executable by the matrix engine."""


def engine_ready(g: Grammar) -> list:
    """Reasons this grammar cannot run on the matrix engine (empty if fine).

    Every rule role must keep at least one endpoint on the surface: a child
    whose endpoints all combine would need a zero-length address.  The
    first child and the result row always keep endpoint 1, because every
    rule's first template starts with ``b1``, so only the second child and
    the result column are checked.
    """
    problems = []
    if not is_single_initial(g):
        problems.append("grammar is not single-initial; rewrite it first")
    for r in g.binary_rules():
        cfg1, _, cfg3 = configurations(r)
        if len(cfg3) == 2 * r.fo[2]:
            problems.append(
                "rule %d: second child is fully absorbed (no surface endpoint)" % r.rid
            )
        if len(cfg1) == 2 * r.fo[0]:
            problems.append(
                "rule %d: result column address would be empty" % r.rid
            )
    return problems


@lru_cache(maxsize=64)
def _prepare(g: Grammar):
    """``(grammar to run, converted, rank)`` for ``g``, computed once per
    grammar object (a grammar hashes by identity).  A grammar that fails a
    check is not cached, so it raises on every call."""
    problems = validate(g)
    if problems:
        raise GrammarError("; ".join(problems))
    converted = not is_single_initial(g)
    work = to_single_initial(g) if converted else g
    problems = engine_ready(work)
    if problems:
        raise EngineUnsupported("; ".join(problems))
    return work, converted, space_rank(work)


def run_recognition(g: Grammar, sentence) -> RunResult:
    """Validate, convert to single-initial if needed, close the seed, and
    read the verdict: the start symbol over (0, n) in the chart, or else a
    witness of the start-rule join."""
    work, converted, rank = _prepare(g)
    tokens = tuple(sentence)
    n = len(tokens)
    t0 = time.perf_counter()
    space = enumerate_space(n, rank)
    t1 = time.perf_counter()
    seeded = seed_planes(work, tokens, space)
    t2 = time.perf_counter()
    plan = rule_plan(work, space)
    t3 = time.perf_counter()
    clo = closure_fixpoint(seeded, plan)
    t4 = time.perf_counter()
    held = n > 0 and clo.holds(work.start, (0, n))
    witness = None if held or n == 0 else _start_witness(clo)
    accepted = held or witness is not None
    facts = clo.fact_count()
    t5 = time.perf_counter()
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
            "masks": (t3 - t2) * 1000,
            "closure": (t4 - t3) * 1000,
            "readout": (t5 - t4) * 1000,
        },
    }
    return RunResult(accepted, work, stats, clo, tokens, witness)


# ---------------------------------------------------------------------------
# derivation extraction

@dataclass
class DerivationNode:
    nonterminal: str
    rule: int
    spans: tuple                    # ((l, r), ...) covering this node
    children: tuple = ()

    def to_json(self) -> dict:
        """The tree as nested dicts, built without recursion."""
        root = {}
        todo = [(self, root)]
        while todo:
            node, out = todo.pop()
            kids = [{} for _ in node.children]
            out.update(nonterminal=node.nonterminal, rule=node.rule,
                       spans=[[l, r] for l, r in node.spans], children=kids)
            todo += zip(node.children, kids)
        return root

    def to_json_text(self) -> str:
        """The text of ``json.dumps(self.to_json(), indent=2)``, written
        without recursion, so a tree of any depth prints."""
        out = []
        # a node with its indent and the text after its closing brace, or
        # the text that closes a node's children
        todo = [(self, "", "")]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            node, pad, tail = item
            inner, deep = pad + "  ", pad + "    "
            spans = ",\n".join("%s[\n%s  %d,\n%s  %d\n%s]" % (deep, deep, l, deep, r, deep)
                               for l, r in node.spans)
            out.append('%s{\n%s"nonterminal": %s,\n%s"rule": %d,\n%s"spans": %s,\n%s"children": '
                       % (pad, inner, json.dumps(node.nonterminal), inner, node.rule, inner,
                          "[\n%s\n%s]" % (spans, inner) if spans else "[]", inner))
            if not node.children:
                out.append("[]\n%s}%s" % (pad, tail))
                continue
            out.append("[\n")
            todo.append("\n%s]\n%s}%s" % (inner, pad, tail))
            todo.append((node.children[-1], deep, ""))
            todo += ((child, deep, ",\n") for child in reversed(node.children[:-1]))
        return "".join(out)


def _spans_of(flat):
    return tuple((flat[t], flat[t + 1]) for t in range(0, len(flat), 2))


def extract_derivation(result: RunResult):
    """The first derivation a run's closed chart holds for its sentence, as
    a tree; None when the run rejected the sentence.

    Each fact takes its first candidate: the first rule, in id order, that
    derives it.  A lexical rule does when its words stand at the fact's
    spans.  For a binary rule the splits (i, j) of the fact that the rule's
    head mask q1 holds are taken in id order, and for each the middle
    addresses k in ascending order among the set bits of row i of the first
    child's plane; k is taken when the second child's bit at (k, j) is set
    and the rule's masks q2 and q3 hold (i, k) and (k, j) (all three masks
    are the closure's, from its ``plan``).  A rule beyond the space's rank,
    which the plan leaves out, derives no fact.  When the start-rule join
    accepted the sentence, the root's candidate is the run's ``witness``.

    No candidate is ever given up.  Every set bit of a closed chart is a
    fact of the least fixpoint, so each child a candidate names has a
    derivation of its own.  Every fact covers at least one token and a
    binary fact covers the tokens of both children, so a child covers
    fewer tokens than its parent and no derivation has a cycle.  So one
    worklist collects a ``(rule, child facts)`` entry per fact from the
    root down, and the nodes are built in ascending order of the tokens
    they cover: neither step recurses, and a tree of any depth is built.
    A fact with no candidate is a hard error: the chart is inconsistent.
    """
    if not result.accepted:
        return None
    g, tokens, clo = result.grammar, result.tokens, result.closure
    space, chart = clo.space, clo.chart
    addrs = space.addresses
    rules = sorted(g.rules, key=lambda r: r.rid)
    plan = {entry[0].rid: entry for entry in clo.plan.rules}

    def candidates(nt, flat):
        """Each ``(rule id, child facts)`` that derives ``nt`` over
        ``flat`` from facts the chart holds, in the order above."""
        spans = _spans_of(flat)
        for r in rules:
            if r.lhs != nt:
                continue
            if not r.is_binary:
                if len(r.words) == len(spans) and all(
                    tokens[l:h] == w for (l, h), w in zip(spans, r.words)
                ):
                    yield r.rid, ()
                continue
            if r.rid not in plan:
                continue
            B, C = r.rhs
            _, b, c, _, q1, q2, q3 = plan[r.rid]
            left, right = chart[b], chart[c]
            for i, j in sorted(space.split_ids(flat)):
                if not bit(q1, i, j):
                    continue
                for k in row_bits(left[i]):
                    if bit(right, k, j) and bit(q2, i, k) and bit(q3, k, j):
                        yield r.rid, ((B, cell_endpoints(addrs[i], addrs[k])),
                                      (C, cell_endpoints(addrs[k], addrs[j])))

    root = (g.start, (0, len(tokens)))
    if result.witness is None:
        entries, todo = {}, [root]
    else:
        r, left_flat, right_flat = result.witness
        kids = ((r.rhs[0], left_flat), (r.rhs[1], right_flat))
        entries, todo = {root: (r.rid, kids)}, list(kids)
    while todo:
        fact = todo.pop()
        entry = entries[fact] = next(candidates(*fact), None)
        if entry is None:
            raise RuntimeError(
                "no rule derives %s over %s from facts the chart holds; the chart "
                "is inconsistent" % fact)
        todo += entry[1]
    nodes = {}
    for fact in sorted(entries, key=lambda f: sum(f[1][1::2]) - sum(f[1][0::2])):
        rid, kids = entries[fact]
        nodes[fact] = DerivationNode(fact[0], rid, _spans_of(fact[1]),
                                     tuple(nodes[kid] for kid in kids))
    return nodes[root]
