"""Seed matrices and the non-associative cell product.

Matrices are square over an address space; each cell holds a set of
nonterminals.  The product of two cells applies the binary rules whose
shared address carries exactly the combining endpoints.  ``pi_copy`` copies
every fact to all cells that describe the same spans.
"""

from __future__ import annotations

from .addresses import AddressSpace, cell_endpoints, splits_of_endpoints
from .grammar import Grammar, configurations, is_single_initial


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


# ---------------------------------------------------------------------------
# seeding

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


def lexical_facts(g: Grammar, sentence, space: AddressSpace) -> dict:
    """``{nonterminal: set of sorted endpoint tuples}``: the seed's lexical
    facts, for a sentence of ``space``'s length."""
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
    out = {}
    for r in lexical:
        for flat in _placements(r.words, tokens, at):
            out.setdefault(r.lhs, set()).add(flat)
    return out


def seed(g: Grammar, sentence, space: AddressSpace) -> ProductMatrix:
    """Seed matrix: lexical facts at every split of their spans."""
    T = ProductMatrix(space)
    for nt, flats in lexical_facts(g, sentence, space).items():
        for flat in flats:
            for row_id, col_id in space.split_ids(flat):
                T.add(row_id, col_id, nt)
    return T


# ---------------------------------------------------------------------------
# the cell product

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


# ---------------------------------------------------------------------------
# executability

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
