"""Correctness oracles: a naive agenda chart parser, a bounded language
enumerator, and the cell-by-cell matrix product with its seed and copy.

The parser and the enumerator work on span tuples and string tuples
directly -- no addresses, no matrices -- so an engine bug and an oracle bug
are unlikely to coincide.  The cell product states the paper's product one
cell of symbol sets at a time.  The bit-plane run path is checked against
it bit for bit, so this module imports neither ``recognizer`` nor
``boolmat``, and lays out and splits its seed's spans by its own code.
"""

from __future__ import annotations

from collections import defaultdict

from .addresses import AddressSpace, cell_endpoints, splits_of_endpoints
from .grammar import Grammar, configurations


def _word_placements(words, tokens, n):
    """All ways the quoted span sequences can sit over the sentence.

    Spans come in order and may touch; an empty span is a zero-width (p, p)
    anywhere at or after the previous span's end.
    """
    out = []

    def walk(idx, floor, acc):
        if idx == len(words):
            out.append(tuple(acc))
            return
        w = words[idx]
        if not w:
            for p in range(floor, n + 1):
                acc.append((p, p))
                walk(idx + 1, p, acc)
                acc.pop()
            return
        L = len(w)
        for s in range(floor, n - L + 1):
            if tokens[s:s + L] == w:
                acc.append((s, s + L))
                walk(idx + 1, s + L, acc)
                acc.pop()

    walk(0, 0, [])
    return out


def _instantiate(r, bs, cs, n):
    """Parent span tuples a binary rule derives from child span tuples.

    Within a template consecutive variables must touch; templates are laid
    out left to right; an empty template is a free zero-width span.
    """
    pick = {"b": bs, "g": cs}
    fixed = []
    for t in r.comp:
        if not t:
            fixed.append(None)
            continue
        spans = [pick[v.side][v.index - 1] for v in t]
        for u, w in zip(spans, spans[1:]):
            if u[1] != w[0]:
                return []
        fixed.append((spans[0][0], spans[-1][1]))
    out = []

    def walk(idx, floor, acc):
        if idx == len(fixed):
            out.append(tuple(acc))
            return
        f = fixed[idx]
        if f is None:
            for p in range(floor, n + 1):
                acc.append((p, p))
                walk(idx + 1, p, acc)
                acc.pop()
            return
        if f[0] < floor:
            return
        acc.append(f)
        walk(idx + 1, f[1], acc)
        acc.pop()

    walk(0, 0, [])
    return out


def tabular_recognize(g: Grammar, sentence):
    """Agenda-based chart recognition; returns (accepted, chart).

    The chart is the full set of (nonterminal, span tuple) items.
    """
    tokens = tuple(sentence)
    n = len(tokens)
    items = set()
    agenda = []

    def push(it):
        if it not in items:
            items.add(it)
            agenda.append(it)

    for r in g.lexical_rules():
        for spans in _word_placements(r.words, tokens, n):
            push((r.lhs, spans))

    as_b = defaultdict(list)
    as_c = defaultdict(list)
    for r in g.binary_rules():
        as_b[r.rhs[0]].append(r)
        as_c[r.rhs[1]].append(r)

    seen = defaultdict(list)   # nt -> list of span tuples already popped
    while agenda:
        nt, spans = agenda.pop()
        seen[nt].append(spans)
        for r in as_b[nt]:
            for cs in seen[r.rhs[1]]:
                for parent in _instantiate(r, spans, cs, n):
                    push((r.lhs, parent))
        for r in as_c[nt]:
            for bs in seen[r.rhs[0]]:
                # avoid double-firing when both children are this very item
                if r.rhs[0] == nt and bs == spans:
                    continue
                for parent in _instantiate(r, bs, spans, n):
                    push((r.lhs, parent))

    accepted = (g.start, ((0, n),)) in items
    return accepted, frozenset(items)


def enumerate_language(g: Grammar, max_len: int):
    """Every sentence of length <= max_len the grammar derives.

    Bottom-up iteration of per-nonterminal yield sets (tuples of token
    tuples), pruned at max_len; returns a set of token tuples.
    """
    if max_len > 12:
        raise ValueError("max_len capped at 12 (the state space explodes)")
    yields = {nt: set() for nt in g.nonterminals}
    for r in g.lexical_rules():
        spans = tuple(r.words)
        if sum(len(w) for w in spans) <= max_len:
            yields[r.lhs].add(spans)

    changed = True
    while changed:
        changed = False
        for r in g.binary_rules():
            pick = {}
            for bs in list(yields[r.rhs[0]]):
                pick["b"] = bs
                for cs in list(yields[r.rhs[1]]):
                    pick["g"] = cs
                    total = sum(len(w) for w in bs) + sum(len(w) for w in cs)
                    if total > max_len:
                        continue
                    spans = tuple(
                        tuple(tok for v in t for tok in pick[v.side][v.index - 1])
                        for t in r.comp
                    )
                    if spans not in yields[r.lhs]:
                        yields[r.lhs].add(spans)
                        changed = True

    return {spans[0] for spans in yields[g.start] if len(spans) == 1}


# ---------------------------------------------------------------------------
# the cell product

class ProductMatrix:
    """Sparse square matrix of symbol sets, keyed by (row id, col id)."""

    __slots__ = ("space", "cells")

    def __init__(self, space: AddressSpace, cells=None):
        self.space = space
        self.cells = cells if cells is not None else {}

    def add(self, row_id: int, col_id: int, sym) -> None:
        self.cells.setdefault((row_id, col_id), set()).add(sym)

    def get(self, row_id: int, col_id: int) -> frozenset:
        return frozenset(self.cells.get((row_id, col_id), ()))

    def fact_count(self) -> int:
        return sum(len(s) for s in self.cells.values())

    def copy(self) -> "ProductMatrix":
        return ProductMatrix(self.space, {k: set(v) for k, v in self.cells.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ProductMatrix)
            and self.space is other.space
            and {k: v for k, v in self.cells.items() if v}
            == {k: v for k, v in other.cells.items() if v}
        )

    def is_upper_triangular(self) -> bool:
        addrs = self.space.addresses
        return all(
            not syms or addrs[r] < addrs[c]
            for (r, c), syms in self.cells.items()
        )

    def nonterminal_facts(self):
        """Yield (row address, col address, frozenset of nonterminals)."""
        addrs = self.space.addresses
        for (r, c), syms in self.cells.items():
            if syms:
                yield addrs[r], addrs[c], frozenset(syms)

    def dump(self) -> str:
        """One line per nonempty cell: ``row | col | sorted symbols``."""
        addrs = self.space.addresses
        lines = []
        for (r, c) in sorted(self.cells):
            syms = self.cells[(r, c)]
            if not syms:
                continue
            lines.append(" | ".join((",".join(map(str, addrs[r])),
                                     ",".join(map(str, addrs[c])),
                                     " ".join(sorted(syms)))))
        return "\n".join(lines)


def seed(g: Grammar, sentence, space: AddressSpace) -> ProductMatrix:
    """Seed matrix: each lexical rule's head over every placement of its
    spans, at every split of their endpoints."""
    tokens = tuple(sentence)
    ids = space.ids
    T = ProductMatrix(space)
    for r in g.lexical_rules():
        for spans in _word_placements(r.words, tokens, len(tokens)):
            flat = tuple(p for span in spans for p in span)
            for row, col in splits_of_endpoints(flat, space.d):
                T.add(ids[row], ids[col], r.lhs)
    return T


def _select(endpoints, cfg):
    return tuple(endpoints[t - 1] for t in sorted(cfg))


def _role_fits(cfg, fo2, left: tuple, right: tuple, keep: tuple) -> bool:
    """Does the (left, right) cell describe the child's spans with ``keep``
    carrying exactly the endpoints selected by ``cfg``?"""
    merged = cell_endpoints(left, right)
    return merged is not None and len(merged) == fo2 and _select(merged, cfg) == keep


def cell_product(R, S, i: tuple, k: tuple, j: tuple, g: Grammar):
    """Product of cell (i,k) by cell (k,j): the heads of the binary rules
    whose children are in R and S and whose roles the three addresses fit."""
    out = set()
    if not R or not S:
        return out
    for r in g.binary_rules():
        b, c = r.rhs
        if b not in R or c not in S:
            continue
        cfg1, cfg2, cfg3 = configurations(r)
        if (
            _role_fits(cfg2, 2 * r.fo[1], i, k, i)
            and _role_fits(cfg3, 2 * r.fo[2], k, j, k)
            and _role_fits(cfg1, 2 * r.fo[0], i, j, i)
        ):
            out.add(r.lhs)
    return out


def matrix_product(T1: ProductMatrix, T2: ProductMatrix, g: Grammar) -> ProductMatrix:
    """Cell-wise product summed over the shared address (reference path)."""
    if T1.space is not T2.space:
        raise ValueError("operands live in different address spaces")
    space = T1.space
    addrs = space.addresses
    by_row = {}
    for (k, j), syms in T2.cells.items():
        if syms:
            by_row.setdefault(k, []).append((j, syms))
    out = ProductMatrix(space)
    for (i, k), R in T1.cells.items():
        if not R:
            continue
        for j, S in by_row.get(k, ()):
            got = cell_product(R, S, addrs[i], addrs[k], addrs[j], g)
            if got:
                out.cells.setdefault((i, j), set()).update(got)
    return out


def pi_copy(T: ProductMatrix) -> ProductMatrix:
    """Copy every nonterminal to all cells describing the same spans.

    Cells whose merge is undefined are left untouched.
    """
    space = T.space
    addrs = space.addresses
    groups = {}
    for (r, c), syms in T.cells.items():
        flat = cell_endpoints(addrs[r], addrs[c])
        if syms and flat is not None:
            groups.setdefault(flat, set()).update(syms)
    out = T.copy()
    ids = space.ids
    for flat, nts in groups.items():
        for row, col in splits_of_endpoints(flat, space.d):
            cell = out.cells.setdefault((ids[row], ids[col]), set())
            cell.update(nts)
    return out
