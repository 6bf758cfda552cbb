"""Transitive closure of seed matrices and the recognition entry point.

Recognition is closure of the seed matrix under the cell product and under
copying each nonterminal fact to every cell that describes the same spans
(pi-copy).  Both distribute over union, so one semi-naive loop evaluates
them together: each round copies its new facts onto their equivalent cells,
and the next round multiplies the copies along with the products.

The closure runs at ``space_rank``, which leaves out the start rules when
the start symbol is on no right-hand side; those rules are then applied to
the closed chart by a join over their children's span facts.

A run stays on bit planes from the seed to the verdict, and derivation
extraction reads the same closed planes.  ``facts_of`` and ``planes_of`` are
the one conversion between plane bits and facts (sorted endpoint tuples):
the seed, pi-copy and the start-rule join all go through them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .addresses import AddressSpace, cell_endpoints, enumerate_space
from .boolmat import KERNEL_KIND, _mask, plane_product, planes_from_cells
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
    """A closed chart held as symbol planes over ``space``."""
    planes: dict
    space: AddressSpace
    # one {"muls", "new_facts"} record per iteration: the multiplies it made
    # and the nonterminal facts it added
    rounds: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def muls(self) -> int:
        return sum(r["muls"] for r in self.rounds)

    def fact_count(self) -> int:
        return sum(p.count() for p in self.planes.values())

    def holds(self, sym, endpoints: tuple) -> bool:
        """Does the chart hold ``sym`` over the spans of ``endpoints``?  The
        chart is closed under pi-copy, so one split of the endpoints tells;
        endpoints with no split in the space are never held."""
        plane = self.planes.get(sym)
        splits = self.space.split_ids(endpoints)
        return plane is not None and bool(splits) and plane.test(*splits[0])


def facts_of(planes: dict, space: AddressSpace, stop: int | None = None) -> dict:
    """``{nonterminal: set of sorted endpoint tuples}`` read off the set bits
    of ``planes`` whose merge is defined, from the rows below ``stop`` only
    when it is given.  A plane with no such bit gives no entry."""
    addrs = space.addresses
    out = {}
    for nt, bits in planes.items():
        flats = {cell_endpoints(addrs[r], addrs[c]) for r, c in bits.nonzero_cells(stop)}
        flats.discard(None)
        if flats:
            out[nt] = flats
    return out


def planes_of(facts: dict, space: AddressSpace) -> dict:
    """Nonterminal planes with every fact of ``facts`` set on every split of
    its endpoints, all set by one scatter.  A nonterminal none of whose
    facts has a split in the space gets no plane."""
    cells = {}
    for nt, flats in facts.items():
        got = [cell for flat in flats for cell in space.split_ids(flat)]
        if got:
            cells[nt] = got
    return planes_from_cells(space.dim, cells)


def pi_copy(planes: dict, space) -> dict:
    """Plane form of ``engine.pi_copy``: each nonterminal plane with its
    facts also set on every cell whose addresses merge to the same
    endpoints.  Cells with an undefined merge copy nowhere.  The work grows
    with the facts given, not with the space."""
    copies = planes_of(facts_of(planes, space), space)
    return {nt: bits | copies[nt] if nt in copies else bits for nt, bits in planes.items()}


def seed_planes(g: Grammar, sentence, space: AddressSpace) -> dict:
    """Plane form of ``engine.seed``: one plane of lexical facts per
    nonterminal, all set by one scatter."""
    return planes_of(lexical_facts(g, sentence, space), space)


def closure_fixpoint(T: dict, g: Grammar, space: AddressSpace) -> Closure:
    """Least fixpoint of X -> pi(X | X*X) above T, evaluated semi-naively on
    bit planes.  T is the seed as nonterminal planes over ``space``
    (``seed_planes``, or ``boolmat.symbol_planes`` of a chart).  It must be
    closed under pi-copy, as every seed is, and its planes are never
    written to.

    Each round multiplies only the terms of X * X that read a fact the round
    before added (D), then copies its new facts to their equivalent cells.
    Both steps distribute over OR, and X stays closed under copying, so the
    terms that read no D fact and the copies of older facts are in X
    already.  Round 1 takes all of X as D, that is, multiplies every term.
    Round k therefore holds exactly the facts of round k of naive
    iteration, and ``iterations`` counts the same rounds, the last of which
    adds nothing.  Each rule's masks are fetched once per run."""
    X = dict(T)
    delta = None
    masks = {}
    stats = {"muls": 0}
    rounds = []
    while True:
        before = stats["muls"]
        fresh = {}
        for nt, bits in plane_product(X, X, g, space, stats, delta, masks).items():
            if nt in X:
                bits = bits - X[nt]
            if bits.any():
                fresh[nt] = bits
        for nt, bits in pi_copy(fresh, space).items():
            fresh[nt] = bits - X[nt] if nt in X else bits
        rounds.append({"muls": stats["muls"] - before,
                       "new_facts": sum(b.count() for b in fresh.values())})
        if not fresh:
            break
        for nt, bits in fresh.items():
            X[nt] = X[nt] | bits if nt in X else bits
        delta = fresh
    return Closure(X, space, rounds)


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
    firsts = {r.rhs[0] for r in rules}
    lefts_of = facts_of({B: p for B, p in clo.planes.items() if B in firsts},
                        clo.space, clo.space.ids[(1,)])
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
    facts = sum(p.count() for p in seeded.values()) + sum(r["new_facts"] for r in clo.rounds)
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
        "seconds": t3 - t2,
        "converted": converted,
        "phases": {name: (b - a) * 1000 for name, a, b in (
            ("space", t0, t1), ("seed", t1, t2), ("closure", t2, t3), ("readout", t3, t4))},
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
    planes = clo.planes

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
            left_bits, right_bits = planes.get(B), planes.get(C)
            if left_bits is None or right_bits is None:
                continue
            for i, j in sorted(space.split_ids(flat)):
                for k in left_bits.row(i):
                    if not (
                        right_bits.test(k, j)
                        and _mask(masks, space, r, 2).test(i, k)
                        and _mask(masks, space, r, 3).test(k, j)
                        and _mask(masks, space, r, 1).test(i, j)
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
