"""Seed matrices and the non-associative cell product.

Matrices are square over an address space; each cell holds a set of symbols:
nonterminal names plus six copy symbols that only ever appear in seeds.  The
product of two cells applies binary rules (when the shared address carries
exactly the combining endpoints) and relays nonterminals along copy-symbol
cells, moving one position at a time between row and column addresses.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .addresses import (
    Address,
    AddressSpace,
    insert as addr_insert,
    remove as addr_remove,
    sort_key,
    splits_of_endpoints,
)
from .grammar import Grammar, configurations, is_single_initial


class CopySym(enum.Enum):
    FromRow = "FromRow"
    ToCol = "ToCol"
    UnmarkCol = "UnmarkCol"
    ToRow = "ToRow"
    FromCol = "FromCol"
    UnmarkRow = "UnmarkRow"

    def __str__(self):
        return self.value


# Members are singletons that compare by identity, so identity hashing is
# sound, and it runs in C where ``Enum.__hash__`` runs in Python; chart cells
# hash their copy symbols on every set operation.
CopySym.__hash__ = object.__hash__


def _symkey(sym):
    return sym.value if isinstance(sym, CopySym) else sym


class EngineUnsupported(ValueError):
    """The grammar is valid but not executable by the matrix engine."""


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

    def __hash__(self):  # pragma: no cover - matrices are not dict keys
        raise TypeError("ProductMatrix is unhashable")

    def is_upper_triangular(self) -> bool:
        addrs = self.space.addresses
        return all(
            not syms or sort_key(addrs[r]) < sort_key(addrs[c])
            for (r, c), syms in self.cells.items()
        )

    def nonterminal_facts(self):
        """Yield (row Address, col Address, frozenset of nonterminals)."""
        addrs = self.space.addresses
        for (r, c), syms in self.cells.items():
            nts = frozenset(s for s in syms if not isinstance(s, CopySym))
            if nts:
                yield addrs[r], addrs[c], nts

    def dump(self) -> str:
        """One line per nonempty cell: ``row | col | sorted symbols``."""
        addrs = self.space.addresses
        lines = []
        for (r, c) in sorted(self.cells):
            syms = self.cells[(r, c)]
            if not syms:
                continue
            lines.append(
                "%s | %s | %s"
                % (addrs[r], addrs[c], " ".join(sorted(map(_symkey, syms))))
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# seeding

@lru_cache(maxsize=64)
def copy_symbol_cells(space: AddressSpace):
    """The copy-symbol part of every seed over this space (grammar-free).

    Candidate cells are generated constructively and kept only when they land
    strictly above the diagonal; the order does the pruning, e.g. a position
    can move row->col only from the tail end of the row address.
    """
    out = []
    n, d = space.n, space.d
    ids = space.ids
    for a in space.addresses:
        key_a = sort_key(a)
        if a.mark >= 0:
            u = a.unmarked()
            if key_a < sort_key(u):
                out.append((ids[a], ids[u], CopySym.UnmarkCol))
            else:
                out.append((ids[u], ids[a], CopySym.UnmarkRow))
            continue
        if len(a) < d:
            for x in range(n + 1):
                marked = addr_insert(a, x, marked=True)
                if key_a < sort_key(marked):
                    out.append((ids[a], ids[marked], CopySym.ToCol))
                if sort_key(marked) < key_a:
                    out.append((ids[marked], ids[a], CopySym.ToRow))
        if len(a) >= 2:
            for x in set(a.positions):
                smaller = addr_remove(a, x)
                if sort_key(smaller) < key_a:
                    out.append((ids[smaller], ids[a], CopySym.FromRow))
                if key_a < sort_key(smaller):
                    out.append((ids[a], ids[smaller], CopySym.FromCol))
    return tuple(out)


def _placements(words, tokens, n):
    """All ways to lay a lexical rule's span sequences over the sentence."""
    per_span = []
    for span in words:
        L = len(span)
        if L == 0:
            per_span.append([(p, p) for p in range(n + 1)])
        else:
            per_span.append(
                [
                    (s, s + L)
                    for s in range(n - L + 1)
                    if tuple(tokens[s:s + L]) == span
                ]
            )
    out = []

    def walk(k, acc, floor):
        if k == len(per_span):
            out.append(tuple(acc))
            return
        for (l, r) in per_span[k]:
            if l >= floor:
                walk(k + 1, acc + [(l, r)], r)

    walk(0, [], 0)
    return out


def lexical_cells(g: Grammar, sentence, space: AddressSpace) -> dict:
    """``{nonterminal: [(row id, col id), ...]}``: the cells of the seed's
    lexical facts, each at every split of its spans (repeats allowed)."""
    tokens = tuple(sentence)
    if space.n != len(tokens):
        raise ValueError("space built for n=%d, sentence has %d tokens" % (space.n, len(tokens)))
    need = max((g.fanout[r.lhs] for r in g.lexical_rules()), default=1)
    if space.d < need:
        raise ValueError(
            "address length cap %d cannot hold fan-out-%d lexical facts" % (space.d, need)
        )
    out = {}
    for r in g.lexical_rules():
        for spans in _placements(r.words, tokens, space.n):
            flat = tuple(sorted(p for span in spans for p in span))
            cells = space.split_ids(flat)
            if cells:  # a fact no split of the space can hold adds no plane
                out.setdefault(r.lhs, []).extend(cells)
    return out


def seed(g: Grammar, sentence, space: AddressSpace) -> ProductMatrix:
    """Seed matrix: lexical facts at every split of their spans, plus the
    copy symbols of the space."""
    T = ProductMatrix(space)
    for nt, cells in lexical_cells(g, sentence, space).items():
        for row_id, col_id in cells:
            T.add(row_id, col_id, nt)
    for row_id, col_id, sym in copy_symbol_cells(space):
        T.add(row_id, col_id, sym)
    return T


# ---------------------------------------------------------------------------
# the cell product

def _select(endpoints, cfg):
    return tuple(endpoints[t - 1] for t in sorted(cfg))


def _role_fits(cfg, fo2, left: Address, right: Address, keep: Address) -> bool:
    """Does the (left, right) cell describe the child's spans with ``keep``
    carrying exactly the endpoints selected by ``cfg``?"""
    if right.positions[0] <= left.positions[0]:
        return False
    merged = sorted(left.positions + right.positions)
    if len(merged) != fo2:
        return False
    return _select(merged, cfg) == keep.positions


def cell_product(R, S, i: Address, k: Address, j: Address, g: Grammar):
    """Product of cell (i,k) by cell (k,j); emits only nonterminals."""
    out = set()
    if not R or not S:
        return out
    r_nts = [s for s in R if not isinstance(s, CopySym)]
    s_nts = [s for s in S if not isinstance(s, CopySym)]

    if r_nts and s_nts and i.mark < 0 and k.mark < 0 and j.mark < 0:
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

    if r_nts:
        if CopySym.ToCol in S and i.mark < 0 and j.mark >= 0 and j.marked_value in i.positions:
            out.update(r_nts)
        if CopySym.FromCol in S and i.mark >= 0 and i.marked_value not in j.positions:
            out.update(r_nts)
        if CopySym.UnmarkCol in S:
            size = len(i) + len(j)
            out.update(a for a in r_nts if size == 2 * g.fanout[a])
    if s_nts:
        if CopySym.ToRow in R and j.mark < 0 and i.mark >= 0 and i.marked_value in j.positions:
            out.update(s_nts)
        if CopySym.FromRow in R and j.mark >= 0 and j.marked_value not in i.positions:
            out.update(s_nts)
        if CopySym.UnmarkRow in R:
            size = len(i) + len(j)
            out.update(a for a in s_nts if size == 2 * g.fanout[a])
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


def union(T1: ProductMatrix, T2: ProductMatrix) -> ProductMatrix:
    if T1.space is not T2.space:
        raise ValueError("operands live in different address spaces")
    out = T1.copy()
    for cell, syms in T2.cells.items():
        if syms:
            out.cells.setdefault(cell, set()).update(syms)
    return out


def pi_copy(T: ProductMatrix) -> ProductMatrix:
    """Copy every nonterminal to all cells describing the same spans.

    Cells whose addresses carry a mark, or whose merge is undefined, are
    left untouched, as are copy symbols.
    """
    space = T.space
    addrs = space.addresses
    groups = {}
    for (r, c), syms in T.cells.items():
        a, b = addrs[r], addrs[c]
        if a.mark >= 0 or b.mark >= 0 or b.positions[0] <= a.positions[0]:
            continue
        if (len(a) + len(b)) % 2:
            continue
        nts = {s for s in syms if not isinstance(s, CopySym)}
        if not nts:
            continue
        flat = tuple(sorted(a.positions + b.positions))
        groups.setdefault(flat, set()).update(nts)
    out = T.copy()
    ids = space.unmarked_ids
    for flat, nts in groups.items():
        for row, col in splits_of_endpoints(flat, space.d):
            cell = out.cells.setdefault((ids[row], ids[col]), set())
            cell.update(nts)
    return out


# ---------------------------------------------------------------------------
# executability

def engine_ready(g: Grammar) -> list:
    """Reasons this grammar cannot run on the matrix engine (empty if fine).

    Every rule role must keep at least one endpoint on the surface: a child
    whose endpoints all combine would need a zero-length address.
    """
    problems = []
    if not is_single_initial(g):
        problems.append("grammar is not single-initial; rewrite it first")
    for r in g.binary_rules():
        cfg1, cfg2, cfg3 = configurations(r)
        if not cfg2:
            problems.append(
                "rule %d: first child is fully absorbed (no surface endpoint)" % r.rid
            )
        if len(cfg3) == 2 * r.fo[2]:
            problems.append(
                "rule %d: second child is fully absorbed (no surface endpoint)" % r.rid
            )
        if not cfg1:
            problems.append(
                "rule %d: result row address would be empty" % r.rid
            )
        if len(cfg1) == 2 * r.fo[0]:
            problems.append(
                "rule %d: result column address would be empty" % r.rid
            )
    return problems
