"""Dense bit-packed Boolean matrices, their multiply (the packed kernel, with
a dense reference beside it), and the rendering of the cell product as a
bundle of plain Boolean matrix products.

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


def planes_from_cells(dim: int, cells_by_sym: dict) -> dict:
    """``{symbol: BoolMatrix}`` with the (row, col) cells that
    ``cells_by_sym`` lists for each symbol set (repeats allowed).  The
    planes are views of one (symbol, row, word) array, filled by a single
    scatter."""
    if not cells_by_sym:
        return {}
    rows, cols, sizes = [], [], []
    for cells in cells_by_sym.values():
        for r, c in cells:
            rows.append(r)
            cols.append(c)
        sizes.append(len(cells))
    stack = np.zeros((len(sizes), dim, _nwords(dim)), dtype=np.uint64)
    layers = np.repeat(np.arange(len(sizes)), sizes)
    cols = np.array(cols, dtype=np.intp)
    np.bitwise_or.at(stack, (layers, np.array(rows, dtype=np.intp), cols >> 6), _bits(cols))
    return {s: BoolMatrix(dim, stack[t]) for t, s in enumerate(cells_by_sym)}


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
        return planes_from_cells(dim, {None: cells})[None]

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

    def row(self, i: int) -> list:
        """The set columns of row ``i``, ascending."""
        out = []
        for base, word in enumerate(self.words[i].tolist()):
            while word:
                low = word & -word
                out.append(64 * base + low.bit_length() - 1)
                word ^= low
        return out

    def nonzero_cells(self, stop: int | None = None):
        """Set cells as (row, col) int pairs in row-major order, from the
        rows below ``stop`` only when it is given."""
        words = self.words if stop is None else self.words[:stop]
        rows, cols = set_bits(words, *np.nonzero(words))
        return list(zip(rows.tolist(), cols.tolist()))


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
def _role_mask(space: AddressSpace, cfg: frozenset, fo: int) -> BoolMatrix:
    """Cells (left, right) whose merged endpoints, selected by ``cfg``, equal
    the row's address.  Built constructively from endpoint multisets.  The
    mask depends on the rule only through (cfg, fo), so it is shared by
    rules and by re-parsed grammars alike."""
    picked = [t - 1 for t in sorted(cfg)]
    rest = [t for t in range(2 * fo) if t + 1 not in cfg]
    mask = BoolMatrix(space.dim)
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
    cols = np.array(cols, dtype=np.intp)
    np.bitwise_or.at(mask.words, (np.array(rows, dtype=np.intp), cols >> 6), _bits(cols))
    return mask


def rule_mask(space: AddressSpace, r: Rule, role: int) -> BoolMatrix:
    """Mask q1 (role 1: head), q2 (role 2: first child) or q3 (role 3:
    second child) of binary rule ``r``."""
    return _role_mask(space, configurations(r)[role - 1], r.fo[role - 1])


# ---------------------------------------------------------------------------
# the rendered product

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


def _mask(masks: dict, space: AddressSpace, r: Rule, role: int,
          stats: dict | None = None) -> BoolMatrix:
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


def plane_product(G: dict, H: dict, g: Grammar, space: AddressSpace,
                  stats: dict | None = None, delta: dict | None = None,
                  masks: dict | None = None) -> dict:
    """The cell product of two charts held as nonterminal planes
    (``{nonterminal: BoolMatrix}`` over ``space``), returned as nonterminal
    planes.  One masked multiply per binary rule.

    Every term is (A & M1) x (B & M2) & M3, so the product distributes over
    OR in either operand.  Given ``delta``, planes contained in both G and
    H, only terms that read a delta plane are multiplied: a rule whose one
    child has delta facts multiplies that child's delta plane by the other's
    full plane, and a rule whose two children both have them multiplies the
    full planes.  The result then holds every term of G x H that reads a
    delta fact, and nothing outside G x H.

    ``masks`` is a dict a caller keeps across products of one grammar over
    one space: each rule's masks are fetched into it the first time the
    rule needs them, and read from it after that.  ``stats`` counts the
    multiplies in ``"muls"`` and the fetch time in ``"mask_ms"``."""
    dim = space.dim
    if any(p.dim != dim for p in G.values()) or any(p.dim != dim for p in H.values()):
        raise ValueError("planes live in a different address space")
    if masks is None:
        masks = {}

    acc: dict = {}
    for r in g.binary_rules():
        b, c = r.rhs
        gb = G.get(b)
        hc = H.get(c)
        if gb is None or hc is None:
            continue
        if delta is not None and b not in delta and c not in delta:
            continue
        q2 = _mask(masks, space, r, 2, stats)
        gf = gb & q2
        if not gf.any():
            continue
        q3 = _mask(masks, space, r, 3, stats)
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
        if stats is not None:
            stats["muls"] = stats.get("muls", 0) + 1
        bits = bool_multiply(gf, hf) & _mask(masks, space, r, 1, stats)
        if not bits.any():
            continue
        have = acc.get(r.lhs)
        if have is None:
            acc[r.lhs] = bits
        else:
            np.bitwise_or(have.words, bits.words, out=have.words)
    return acc

