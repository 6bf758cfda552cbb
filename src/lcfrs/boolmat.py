"""Dense bit-packed Boolean matrices, their multiply (the packed kernel, with
a dense reference beside it), and the rendering of the cell product as a
bundle of plain Boolean matrix products.

Rows are packed into uint64 words, little-endian bits.  A chart is one
(symbol, row, word) array: a packed plane per nonterminal of the grammar
run, in sorted order, all zeros for a symbol with no facts.

The cell product decomposes per binary rule into one masked product.  Every
mask is a property of cell addresses and of the rule's configuration alone,
so masks are cached per (address space, configuration) and shared across
sentences, rules and grammars.
"""

from __future__ import annotations

import numpy as np
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import itemgetter
from time import perf_counter

from . import _matmul_fallback as _kernel
from ._matmul_fallback import set_bits
from .addresses import AddressSpace
from .grammar import Grammar, Rule, configurations

# the one multiply kernel, named in ``stats["kernel"]`` and by the benchmark
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


def _bits(cols: np.ndarray) -> np.ndarray:
    """The word bit of each column index."""
    return np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))


def zeros(dim: int, *lead: int) -> np.ndarray:
    """Packed all-zero rows over ``dim`` columns: a (dim, word) matrix, or
    with ``lead`` = (symbols,) a (symbol, row, word) chart."""
    return np.zeros((*lead, dim, _nwords(dim)), dtype=np.uint64)


def set_cells(words: np.ndarray, *index) -> None:
    """Set the bits of packed ``words`` at ``index``, one index array per
    axis with columns last: (rows, cols) of a matrix, or (symbols, rows,
    cols) of a chart.  One scatter; repeats are allowed."""
    *lead, cols = (np.asarray(t, dtype=np.intp) for t in index)
    np.bitwise_or.at(words, (*lead, cols >> 6), _bits(cols))


def nonzero_bits(words: np.ndarray) -> tuple:
    """The (row, col) index arrays of the set bits of packed ``words``, in
    row-major order.  Rows run over all leading axes, so row ``t * dim + r``
    of a chart is row ``r`` of plane ``t``."""
    flat = words.reshape(-1)
    pos = flat.nonzero()[0]
    if not pos.size:
        return pos, pos
    return np.divmod(set_bits(flat, pos), 64 * words.shape[-1])


def bit(words: np.ndarray, i: int, j: int) -> bool:
    """Is bit (i, j) of packed matrix ``words`` set?"""
    return bool((int(words[i, j >> 6]) >> (j & 63)) & 1)


def row_bits(row: np.ndarray) -> list:
    """The set columns of one packed row, ascending."""
    out = []
    for base, word in enumerate(row.tolist()):
        while word:
            low = word & -word
            out.append(64 * base + low.bit_length() - 1)
            word ^= low
    return out


def popcount(words: np.ndarray) -> int:
    """The number of set bits in packed ``words``."""
    if _popcount is not None:
        return int(_popcount(words).sum())
    nonzero = words[words != 0]
    return int(np.unpackbits(nonzero.view(np.uint8)).sum())


class BoolMatrix:
    """Square Boolean matrix, rows packed into uint64 words: the operand
    type of ``bool_multiply``."""

    __slots__ = ("dim", "words")

    def __init__(self, dim: int, words=None):
        self.dim = dim
        self.words = zeros(dim) if words is None else words

    @classmethod
    def from_dense(cls, dense) -> "BoolMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("need a square matrix")
        return cls(dense.shape[0], pack_rows(dense))

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, BoolMatrix)
            and self.dim == other.dim
            and bool(np.array_equal(self.words, other.words))
        )


# ---------------------------------------------------------------------------
# the two backends: a dense reference and the packed kernel the engine runs

def _mult_naive(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    # float64 counts exactly below 2**53, far above any dimension, and its
    # product runs on BLAS where an integer one does not
    prod = a.to_dense().astype(np.float64) @ b.to_dense().astype(np.float64)
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

def _picker(idx: list):
    """``e -> tuple(e[t] for t in idx)``.  ``itemgetter`` returns a bare
    item for a single index, so that case is wrapped in a 1-tuple."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda e: (get(e),)


@lru_cache(maxsize=64)
def _role_mask(space: AddressSpace, cfg: frozenset, fo: int) -> np.ndarray:
    """Cells (left, right) whose merged endpoints, selected by ``cfg``, equal
    the row's address, as a packed (row, word) matrix.  Built constructively
    from endpoint multisets.  The mask depends on the rule only through
    (cfg, fo), so it is shared by rules and by re-parsed grammars alike."""
    picked = [t - 1 for t in sorted(cfg)]
    rest = [t for t in range(2 * fo) if t + 1 not in cfg]
    mask = zeros(space.dim)
    if not (1 <= len(picked) <= space.d and 1 <= len(rest) <= space.d):
        return mask
    row_of, col_of = _picker(picked), _picker(rest)
    ids = space.ids
    rows, cols = [], []
    for e in combinations_with_replacement(range(space.n + 1), 2 * fo):
        row = row_of(e)
        col = col_of(e)
        if col > row:
            rows.append(ids[row])
            cols.append(ids[col])
    set_cells(mask, rows, cols)
    return mask


def rule_mask(space: AddressSpace, r: Rule, role: int) -> np.ndarray:
    """Mask q1 (role 1: head), q2 (role 2: first child) or q3 (role 3:
    second child) of binary rule ``r``."""
    return _role_mask(space, configurations(r)[role - 1], r.fo[role - 1])


# ---------------------------------------------------------------------------
# the rendered product

def _masked(plane, mask):
    """``plane & mask``, or None when that has no bit or ``plane`` is None."""
    if plane is None:
        return None
    got = plane & mask
    return got if np.count_nonzero(got) else None


def _mask(masks: dict, space: AddressSpace, r: Rule, role: int,
          stats: dict | None = None) -> np.ndarray:
    """``rule_mask(space, r, role)``, fetched into ``masks`` on first use.
    The fetch's milliseconds are added to ``stats["mask_ms"]`` when given."""
    key = (r.rid, role)
    got = masks.get(key)
    if got is None:
        t0 = perf_counter()
        got = masks[key] = rule_mask(space, r, role)
        if stats is not None:
            stats["mask_ms"] = stats.get("mask_ms", 0.0) + (perf_counter() - t0) * 1000
    return got


def plane_product(G: np.ndarray, H: np.ndarray, g: Grammar, space: AddressSpace,
                  stats: dict | None = None, delta: tuple | None = None,
                  masks: dict | None = None) -> tuple:
    """The cell product of two charts over ``space``, as the planes it
    writes: ``(heads, planes)``.  ``heads`` lists the ids of the head planes
    of the rules it multiplied, in the order the rules first wrote them,
    and ``planes`` is a (head, row, word) array of those planes in that
    order.  Every other plane of the product is all zeros, and a listed
    plane may be too, when a head mask clears its bits.  A chart is a
    packed (symbol, row, word) array with one plane per nonterminal, in the
    order of ``g.symbol_ids``.  One masked multiply per binary rule.

    Every term is (A & M1) x (B & M2) & M3, so the product distributes over
    OR in either operand.  ``delta`` is a chart contained in both G and H,
    given as this function returns its own: (ids, planes), with no bit
    outside the listed planes.  Given it, only terms that read a delta fact
    are multiplied: a rule whose one child has delta facts multiplies that
    child's delta plane by the other's full plane, and a rule whose two
    children both have them multiplies the full planes.  The result then
    holds every term of G x H that reads a delta fact, and nothing outside
    G x H.

    ``masks`` is a dict a caller keeps across products of one grammar over
    one space: each rule's masks are fetched into it the first time the
    rule needs them, and read from it after that.  Until a rule's masks
    are fetched, the rule is skipped before the fetch when a child plane it
    reads has no bit; after that, its masked planes' own test skips it.
    ``stats`` counts the multiplies in ``"muls"`` and the fetch time in
    ``"mask_ms"``."""
    ids = g.symbol_ids
    dim = space.dim
    shape = (len(ids), dim, _nwords(dim))
    if G.shape != shape or H.shape != shape:
        raise ValueError("charts of shape %s and %s, not %s for this grammar and space"
                         % (G.shape, H.shape, shape))
    if masks is None:
        masks = {}
    d_of = {} if delta is None else dict(zip(*delta))
    rules = g.binary_rules()
    # one slot per rule bounds the heads; slots no rule writes stay untouched
    out = zeros(dim, len(rules))
    heads = []
    for r in rules:
        b, c = ids[r.rhs[0]], ids[r.rhs[1]]
        db, dc = d_of.get(b), d_of.get(c)
        if delta is not None and db is None and dc is None:
            continue
        # until its masks are fetched, a rule whose child plane has no bit is
        # skipped before the fetch; count_nonzero tests a plane for a bit at
        # a third of any()'s call cost
        if (r.rid, 2) not in masks and not (np.count_nonzero(G[b]) and np.count_nonzero(H[c])):
            continue
        # a delta plane lies inside the full one, so a masked delta plane
        # with a bit stands in for the full plane's test
        q2 = _mask(masks, space, r, 2, stats)
        db = _masked(db, q2)
        gf = _masked(G[b], q2) if db is None else None
        if db is None and gf is None:
            continue
        q3 = _mask(masks, space, r, 3, stats)
        dc = _masked(dc, q3)
        hf = _masked(H[c], q3) if dc is None else None
        if dc is None and hf is None:
            continue
        if delta is not None and db is None and dc is None:
            continue
        # the terms reading a delta fact are db x H and G x dc: one child's
        # delta plane times the other's full plane, or, when both children
        # have delta facts, the full planes, which hold both
        if db is not None and dc is not None:
            left, right = G[b] & q2, H[c] & q3
        else:
            left = gf if db is None else db
            right = hf if dc is None else dc
        if stats is not None:
            stats["muls"] = stats.get("muls", 0) + 1
        # the first product into a head goes straight into its slot
        h = ids[r.lhs]
        first = h not in heads
        if first:
            heads.append(h)
        bits = out[len(heads) - 1] if first else zeros(dim)
        _kernel.multiply_packed(left, right, bits)
        bits &= _mask(masks, space, r, 1, stats)
        if not first:
            out[heads.index(h)] |= bits
    return heads, out[:len(heads)]
