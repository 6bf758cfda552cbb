"""Dense bit-packed Boolean matrices, their multiply (the packed kernel, with
a dense reference beside it), and the rendering of the cell product as a
bundle of plain Boolean matrix products.

The cell product decomposes per symbol: one masked product per binary rule
and six mask-filtered products per nonterminal for the copy moves.  Every
mask is a property of cell addresses alone, so masks are cached per
(grammar, sentence length) and reused across sentences.
"""

from __future__ import annotations

import numpy as np
from functools import lru_cache
from itertools import combinations_with_replacement

from ._matmul_fallback import set_bits
from .addresses import AddressSpace
from .engine import CopySym, ProductMatrix, copy_symbol_cells
from .grammar import Grammar, configurations

try:  # compiled kernel if the extension built, else the numpy fallback
    from . import _matmul_kernel as _kernel
    KERNEL_KIND = "compiled"
except ImportError:  # pragma: no cover - depends on build environment
    from . import _matmul_fallback as _kernel
    KERNEL_KIND = "fallback"


# per-word set-bit count, in numpy 2.0 and later
_popcount = getattr(np, "bitwise_count", None)


def _nwords(dim: int) -> int:
    return max(1, (dim + 63) // 64)


def pack_rows(dense) -> np.ndarray:
    """uint8/bool (r, c) -> packed uint64 (r, words), little-endian bits."""
    dense = np.ascontiguousarray(dense, dtype=np.uint8)
    r, c = dense.shape
    nw = _nwords(c)
    by = np.packbits(dense, axis=1, bitorder="little")
    if by.shape[1] < nw * 8:
        by = np.pad(by, ((0, 0), (0, nw * 8 - by.shape[1])))
    return np.ascontiguousarray(by).view(np.uint64)


def unpack_rows(words, c: int) -> np.ndarray:
    by = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(by, axis=1, bitorder="little")[:, :c]


class BoolMatrix:
    """Square Boolean matrix, rows packed into uint64 words."""

    __slots__ = ("dim", "words")

    def __init__(self, dim: int, words=None):
        self.dim = dim
        if words is None:
            words = np.zeros((dim, _nwords(dim)), dtype=np.uint64)
        self.words = words

    @classmethod
    def from_dense(cls, dense) -> "BoolMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("need a square matrix")
        return cls(dense.shape[0], pack_rows(dense))

    @classmethod
    def from_cells(cls, dim: int, cells) -> "BoolMatrix":
        """The matrix whose set bits are the (row, col) pairs in ``cells``."""
        m = cls(dim)
        rc = np.array(cells, dtype=np.intp).reshape(-1, 2)
        rows, cols = rc[:, 0], rc[:, 1]
        bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        np.bitwise_or.at(m.words, (rows, cols >> 6), bits)
        return m

    @classmethod
    def identity(cls, dim: int) -> "BoolMatrix":
        return cls.from_dense(np.eye(dim, dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.dim)

    def set(self, i: int, j: int) -> None:
        self.words[i, j >> 6] |= np.uint64(1 << (j & 63))

    def test(self, i: int, j: int) -> bool:
        return bool((int(self.words[i, j >> 6]) >> (j & 63)) & 1)

    def any(self) -> bool:
        return bool(self.words.any())

    def count(self) -> int:
        if _popcount is not None:
            return int(_popcount(self.words).sum())
        nonzero = self.words[self.words != 0]
        return int(np.unpackbits(nonzero.view(np.uint8)).sum())

    def copy(self) -> "BoolMatrix":
        return BoolMatrix(self.dim, self.words.copy())

    def __and__(self, other) -> "BoolMatrix":
        return BoolMatrix(self.dim, self.words & other.words)

    def __or__(self, other) -> "BoolMatrix":
        return BoolMatrix(self.dim, self.words | other.words)

    def __sub__(self, other) -> "BoolMatrix":
        """The cells set here and not in ``other``."""
        return BoolMatrix(self.dim, self.words & ~other.words)

    def __eq__(self, other):
        return (
            isinstance(other, BoolMatrix)
            and self.dim == other.dim
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("BoolMatrix is unhashable")

    def nonzero_cells(self):
        """Set cells as (row, col) int pairs in row-major order."""
        rows, cols = set_bits(self.words, *np.nonzero(self.words))
        return list(zip(rows.tolist(), cols.tolist()))


# ---------------------------------------------------------------------------
# the two backends: a dense reference and the packed kernel the engine runs

def _mult_naive(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    prod = a.to_dense().astype(np.int64) @ b.to_dense().astype(np.int64)
    return BoolMatrix.from_dense(prod > 0)


def _mult_bitset(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    out = BoolMatrix(a.dim)
    _kernel.multiply_packed(a.words, b.words, out.words)
    return out


def bool_multiply(a: BoolMatrix, b: BoolMatrix, backend: str = "bitset") -> BoolMatrix:
    """C[i,j] = OR_k A[i,k] AND B[k,j]; both backends agree bit for bit."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch: %d vs %d" % (a.dim, b.dim))
    if backend == "naive":
        return _mult_naive(a, b)
    if backend == "bitset":
        return _mult_bitset(a, b)
    raise ValueError("unknown backend %r" % backend)


# ---------------------------------------------------------------------------
# address-indexed masks (string-independent, cached)

class _SpaceMasks:
    """Masks that depend only on the address space."""

    def __init__(self, space: AddressSpace):
        self.space = space
        dim = space.dim
        n = space.n
        length = np.fromiter((len(a) for a in space.addresses), np.int16, dim)
        unmarked = np.fromiter((a.mark < 0 for a in space.addresses), np.uint8, dim)
        member = np.zeros((n + 1, dim), dtype=np.uint8)   # x occurs in address
        markval = np.full(dim, -1, dtype=np.int32)
        for t, a in enumerate(space.addresses):
            for p in set(a.positions):
                member[p, t] = 1
            if a.mark >= 0:
                markval[t] = a.positions[a.mark]

        tocol = np.zeros((dim, dim), dtype=np.uint8)
        fromrow = np.zeros((dim, dim), dtype=np.uint8)
        torow = np.zeros((dim, dim), dtype=np.uint8)
        fromcol = np.zeros((dim, dim), dtype=np.uint8)
        for t in range(dim):
            x = markval[t]
            if x < 0:
                continue
            # column t marked with x: row must (not) contain x
            tocol[:, t] = member[x] & unmarked
            fromrow[:, t] = 1 - member[x]
            # row t marked with x: column must (not) contain x
            torow[t, :] = member[x] & unmarked
            fromcol[t, :] = 1 - member[x]
        self.p_tocol = BoolMatrix(dim, pack_rows(tocol))
        self.p_fromrow = BoolMatrix(dim, pack_rows(fromrow))
        self.p_torow = BoolMatrix(dim, pack_rows(torow))
        self.p_fromcol = BoolMatrix(dim, pack_rows(fromcol))
        self._pair_len = np.add.outer(length, length)
        self._size_cache = {}

    def size_mask(self, total: int) -> BoolMatrix:
        got = self._size_cache.get(total)
        if got is None:
            got = BoolMatrix(self.space.dim, pack_rows(self._pair_len == total))
            self._size_cache[total] = got
        return got


@lru_cache(maxsize=32)
def _space_masks(space: AddressSpace) -> _SpaceMasks:
    return _SpaceMasks(space)


@lru_cache(maxsize=64)
def _role_mask(space: AddressSpace, cfg: frozenset, fo: int) -> BoolMatrix:
    """Cells (left, right) whose merged endpoints, selected by ``cfg``, equal
    the row's address.  Built constructively from endpoint multisets.  The
    mask depends on the rule only through (cfg, fo), so it is shared by
    rules and by re-parsed grammars alike."""
    picked = [t - 1 for t in sorted(cfg)]
    rest = [t for t in range(2 * fo) if t + 1 not in cfg]
    if not (1 <= len(picked) <= space.d and 1 <= len(rest) <= space.d):
        return BoolMatrix(space.dim)
    ids = space.unmarked_ids
    cells = []
    for e in combinations_with_replacement(range(space.n + 1), 2 * fo):
        row = tuple([e[t] for t in picked])
        col = tuple([e[t] for t in rest])
        if col[0] > row[0]:
            cells.append((ids[row], ids[col]))
    return BoolMatrix.from_cells(space.dim, cells)


class EngineTables:
    """Per-(grammar, n) mask bundle for the Boolean rendering.  The per-rule
    masks are built when a product first needs them."""

    def __init__(self, g: Grammar, space: AddressSpace):
        self.grammar = g
        self.space = space
        base = _space_masks(space)
        self.p_tocol = base.p_tocol
        self.p_fromrow = base.p_fromrow
        self.p_torow = base.p_torow
        self.p_fromcol = base.p_fromcol
        self._size = base.size_mask

    def size_mask(self, total: int) -> BoolMatrix:
        return self._size(total)

    def rule_mask(self, r, role: int) -> BoolMatrix:
        """Mask q1 (role 1: head), q2 (role 2: first child) or q3 (role 3:
        second child) of binary rule ``r``."""
        return _role_mask(self.space, configurations(r)[role - 1], r.fo[role - 1])


_tables_cache: dict = {}


def tables_for(g: Grammar, space: AddressSpace) -> EngineTables:
    key = (id(g), space.n, space.d)
    hit = _tables_cache.get(key)
    if hit is not None and hit.grammar is g and hit.space is space:
        return hit
    if len(_tables_cache) > 64:
        _tables_cache.clear()
    tab = EngineTables(g, space)
    _tables_cache[key] = tab
    return tab


# ---------------------------------------------------------------------------
# symbol planes and the rendered product

def symbol_planes(T: ProductMatrix) -> dict:
    """One Boolean matrix per symbol occurring in T."""
    cells = {}
    for key, syms in T.cells.items():
        for s in syms:
            got = cells.get(s)
            if got is None:
                cells[s] = [key]
            else:
                got.append(key)
    dim = T.space.dim
    return {s: BoolMatrix.from_cells(dim, keys) for s, keys in cells.items()}


@lru_cache(maxsize=32)
def copy_planes(space: AddressSpace) -> dict:
    """The copy-symbol planes of every seed over ``space``.  Every run over
    the space shares them, and nothing writes to them.  They stay writable
    arrays all the same: the compiled kernel takes writable buffers only."""
    cells = {}
    for row, col, sym in copy_symbol_cells(space):
        cells.setdefault(sym, []).append((row, col))
    return {sym: BoolMatrix.from_cells(space.dim, keys) for sym, keys in cells.items()}


def scatter_planes(planes: dict, M: ProductMatrix) -> None:
    """Add every set bit of every plane to ``M`` as a symbol fact."""
    cells = M.cells
    for sym, bits in planes.items():
        for cell in bits.nonzero_cells():
            got = cells.get(cell)
            if got is None:
                cells[cell] = {sym}
            else:
                got.add(sym)


def _delta_factors(gf, hf, db, dc):
    """Operands of one rule's multiply that cover the terms reading a delta
    fact: db x hf and (gf - db) x dc, given the masked full planes gf, hf
    and masked delta planes db, dc (or None).  When both terms can be
    nonempty, one multiply of the full planes covers them and scans the
    same set bits of its left operand.  None when neither can."""
    new_b = db is not None and db.any()
    new_c = dc is not None and dc.any()
    old_b = gf - db if new_b else gf
    if new_c and old_b.any():
        return (gf, hf) if new_b else (gf, dc)
    return (db, hf) if new_b else None


def plane_product(G: dict, H: dict, g: Grammar, tables: EngineTables,
                  stats: dict | None = None, delta: dict | None = None) -> dict:
    """The cell product of two charts held as symbol planes (``{symbol:
    BoolMatrix}``), returned as nonterminal planes.  One masked multiply per
    binary rule, and up to six mask-filtered copy moves per nonterminal.

    Every term is (A & M1) x (B & M2) & M3, so the product distributes over
    OR in either operand.  Given ``delta``, nonterminal planes contained in
    both G and H, only terms that read a delta plane are multiplied: a rule
    whose one child has delta facts multiplies that child's delta plane by
    the other's full plane, a rule whose two children both have them
    multiplies the full planes, and only delta planes are copy-moved.  The
    result then holds every term of G x H that reads a delta fact, and
    nothing outside G x H."""
    tab = tables
    dim = tab.space.dim
    if any(p.dim != dim for p in G.values()) or any(p.dim != dim for p in H.values()):
        raise ValueError("planes and tables live in different address spaces")

    def mul(x: BoolMatrix, y: BoolMatrix) -> BoolMatrix:
        if stats is not None:
            stats["muls"] = stats.get("muls", 0) + 1
        return bool_multiply(x, y)

    acc: dict = {}

    def add(nt: str, bits: BoolMatrix) -> None:
        if not bits.any():
            return
        have = acc.get(nt)
        if have is None:
            acc[nt] = bits
        else:
            np.bitwise_or(have.words, bits.words, out=have.words)

    for r in g.binary_rules():
        b, c = r.rhs
        gb = G.get(b)
        hc = H.get(c)
        if gb is None or hc is None:
            continue
        if delta is not None and b not in delta and c not in delta:
            continue
        q2 = tab.rule_mask(r, 2)
        gf = gb & q2
        if not gf.any():
            continue
        q3 = tab.rule_mask(r, 3)
        hf = hc & q3
        if not hf.any():
            continue
        if delta is not None:
            db = delta.get(b)
            dc = delta.get(c)
            pair = _delta_factors(gf, hf, None if db is None else db & q2,
                                  None if dc is None else dc & q3)
            if pair is None:
                continue
            gf, hf = pair
        add(r.lhs, mul(gf, hf) & tab.rule_mask(r, 1))

    moved_left, moved_right = (G, H) if delta is None else (delta, delta)
    h_tocol = H.get(CopySym.ToCol)
    h_unmarkcol = H.get(CopySym.UnmarkCol)
    h_fromcol = H.get(CopySym.FromCol)
    g_fromrow = G.get(CopySym.FromRow)
    g_torow = G.get(CopySym.ToRow)
    g_unmarkrow = G.get(CopySym.UnmarkRow)
    nts = [s for s in set(moved_left) | set(moved_right) if not isinstance(s, CopySym)]
    for nt in sorted(nts):
        size = 2 * g.fanout[nt]
        gp = moved_left.get(nt)
        hp = moved_right.get(nt)
        if gp is not None:
            if h_tocol is not None:
                add(nt, mul(gp, h_tocol) & tab.p_tocol)
            if h_unmarkcol is not None:
                add(nt, mul(gp, h_unmarkcol) & tab.size_mask(size))
            if h_fromcol is not None:
                add(nt, mul(gp, h_fromcol) & tab.p_fromcol)
        if hp is not None:
            if g_fromrow is not None:
                add(nt, mul(g_fromrow, hp) & tab.p_fromrow)
            if g_torow is not None:
                add(nt, mul(g_torow, hp) & tab.p_torow)
            if g_unmarkrow is not None:
                add(nt, mul(g_unmarkrow, hp) & tab.size_mask(size))
    return acc


def product_via_boolean(T1: ProductMatrix, T2: ProductMatrix, g: Grammar,
                        tables: EngineTables | None = None,
                        stats: dict | None = None) -> ProductMatrix:
    """Same result as the cell-by-cell product, via Boolean multiplications."""
    if T1.space is not T2.space:
        raise ValueError("operands live in different address spaces")
    tab = tables or tables_for(g, T1.space)
    acc = plane_product(symbol_planes(T1), symbol_planes(T2), g, tab, stats)
    out = ProductMatrix(T1.space)
    scatter_planes(acc, out)
    return out
