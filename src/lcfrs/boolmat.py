"""Dense bit-packed Boolean matrices, their multiply (the packed kernel, with
a dense reference beside it), and the rendering of the cell product as a
bundle of plain Boolean matrix products.

Rows are packed into uint64 words, little-endian bits.  A chart is one
(symbol, row, word) array: a packed plane per nonterminal of the grammar
run, in sorted order, all zeros for a symbol with no facts.

The cell product decomposes per binary rule into one masked product.  Every
mask is a property of cell addresses and of the rule's configuration alone,
so each is built once per address space, kept on the space
(``AddressSpace.masks``), and shared by every sentence, rule and grammar
run over it.  A mask is built by array comparisons over the space's
per-length address arrays, never by walking position tuples.  A run
resolves its rules and their masks once, as a ``rule_plan``, which every
round's ``plane_product`` and derivation extraction read, and whose
``joined`` start rules the start-rule join applies to the closed chart.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _matmul_fallback as _kernel
from ._matmul_fallback import set_bits
from .addresses import AddressSpace, fits
from .grammar import Grammar, Rule, configurations, per_rule_d

# the one multiply kernel, named in ``stats["kernel"]`` and by the benchmark
KERNEL_KIND = "fallback"

# cells of a mask built at once: bounds its build's temporaries to a few MB
_MASK_BLOCK = 1 << 20


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


def row_bits(words: list) -> list:
    """The set columns of one packed row, given as its words as Python
    integers (``row.tolist()``), ascending."""
    out = []
    for base, word in enumerate(words):
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
# address-indexed masks (string-independent, kept on the space)

def _role_mask(space: AddressSpace, cfg: frozenset, fo: int) -> np.ndarray:
    """The cells (row, column) that ``fits`` a role, as a packed (row, word)
    matrix: of the ``2 * fo`` merged endpoints, the row takes those that
    ``cfg`` numbers from 1 and the column the rest.  The rows go
    ``_MASK_BLOCK`` cells at a time, which bounds the temporaries, and each
    block is packed straight into its mask rows."""
    mask = zeros(space.dim)
    pattern = row_at, col_at = (tuple(t - 1 for t in sorted(cfg)),
                                tuple(t for t in range(2 * fo) if t + 1 not in cfg))
    if not (1 <= len(row_at) <= space.d and 1 <= len(col_at) <= space.d):
        return mask
    row_ids, row_pos = space.by_length[len(row_at)]
    cols = space.by_length[len(col_at)]
    width = 64 * mask.shape[1]
    step = max(1, _MASK_BLOCK // width)
    for lo in range(0, row_ids.size, step):
        rows = row_ids[lo:lo + step]
        dense = np.zeros((rows.size, width), dtype=bool)
        dense[:, cols[0]] = fits(pattern, (rows, row_pos[lo:lo + step]), cols)
        mask[rows] = np.packbits(dense, axis=1, bitorder="little").view(np.uint64)
    return mask


def rule_mask(space: AddressSpace, r: Rule, role: int) -> np.ndarray:
    """Mask q1 (role 1: head), q2 (role 2: first child) or q3 (role 3:
    second child) of binary rule ``r``.  It depends on the rule only through
    its configuration and fan-out in that role, so it is built on first use
    into ``space.masks`` under that key and shared by rules, sentences and
    re-parsed grammars.  ``rule_plan`` is its one caller on the run path."""
    key = configurations(r)[role - 1], r.fo[role - 1]
    got = space.masks.get(key)
    if got is None:
        got = space.masks[key] = _role_mask(space, *key)
    return got


class RulePlan(NamedTuple):
    """What a run of a grammar over ``space`` multiplies and joins, fixed
    before its first round (``rule_plan``)."""
    space: AddressSpace
    symbol_ids: dict        # ``Grammar.symbol_ids``: the chart's planes
    shape: tuple            # (symbol, row, word) of the run's charts
    # one (rule, first child plane, second child plane, head plane, q1, q2,
    # q3) entry per binary rule within the space's rank, in rule order
    rules: tuple
    # the start rules beyond the rank, in rule-id order: the start-rule
    # join applies them
    joined: tuple


def rule_plan(g: Grammar, space: AddressSpace) -> RulePlan:
    """The plan of a run of ``g`` over ``space``, its masks from
    ``rule_mask``.  The one place that compares a rule's ``per_rule_d``
    with the space's rank: a rule beyond it is left out of ``rules``, as a
    child mask of it is all zeros there, and a start rule beyond it goes to
    ``joined``."""
    ids = g.symbol_ids
    rules, joined = [], []
    for r in g.binary_rules():
        if per_rule_d(r) <= space.d:
            rules.append((r, ids[r.rhs[0]], ids[r.rhs[1]], ids[r.lhs],
                          rule_mask(space, r, 1), rule_mask(space, r, 2),
                          rule_mask(space, r, 3)))
        elif r.lhs == g.start:
            joined.append(r)
    return RulePlan(space, ids, (len(ids), space.dim, _nwords(space.dim)), tuple(rules),
                    tuple(sorted(joined, key=lambda r: r.rid)))


# ---------------------------------------------------------------------------
# the rendered product

def plane_product(G: np.ndarray, H: np.ndarray, plan: RulePlan,
                  stats: dict | None = None, delta: tuple | None = None) -> tuple:
    """The cell product of two charts, as the planes it writes: ``(heads,
    planes)``.  ``heads`` lists the ids of the head planes of the rules it
    multiplied, in the order the rules first wrote them, and ``planes`` is
    a (head, row, word) array of those planes in that order.  Every other
    plane of the product is all zeros, and a listed plane may be too, when
    a head mask clears its bits.  ``plan`` is a ``rule_plan``, and a chart
    is a packed (symbol, row, word) array of its shape.  One masked
    multiply per rule of the plan.

    Every term is (A & M1) x (B & M2) & M3, so the product distributes over
    OR in either operand.  ``delta`` is a chart contained in both G and H,
    given as this function returns its own: (ids, planes), with no bit
    outside the listed planes.  Given it, only terms that read a delta fact
    are multiplied: a rule whose one child has delta facts multiplies that
    child's delta plane by the other's full plane, and a rule whose two
    children both have them multiplies the full planes, unless no delta
    fact of either child meets its mask.  The result then
    holds every term of G x H that reads a delta fact, and nothing outside
    G x H.  A rule is skipped when a masked operand has no bit.  ``stats``
    counts the multiplies in ``"muls"``."""
    shape, rules = plan.shape, plan.rules
    if G.shape != shape or H.shape != shape:
        raise ValueError("charts of shape %s and %s, not %s for this grammar and space"
                         % (G.shape, H.shape, shape))
    d_of = {} if delta is None else dict(zip(*delta))
    # one slot per rule bounds the heads; slots no rule writes stay untouched
    out = zeros(shape[1], len(rules))
    heads = []
    for _, b, c, h, q1, q2, q3 in rules:
        db, dc = d_of.get(b), d_of.get(c)
        if delta is not None and db is None and dc is None:
            continue
        both = db is not None and dc is not None
        # count_nonzero tests a plane for a bit at a third of any()'s call cost
        left = (G[b] if db is None or both else db) & q2
        if not np.count_nonzero(left):
            continue
        right = (H[c] if dc is None or both else dc) & q3
        if not np.count_nonzero(right):
            continue
        # the full planes read a delta fact only where one fits its mask
        if both and not (np.count_nonzero(db & left) or np.count_nonzero(dc & right)):
            continue
        if stats is not None:
            stats["muls"] = stats.get("muls", 0) + 1
        # the first product into a head goes straight into its slot
        first = h not in heads
        if first:
            heads.append(h)
        bits = out[len(heads) - 1] if first else zeros(shape[1])
        _kernel.multiply_packed(left, right, bits)
        bits &= q1
        if not first:
            out[heads.index(h)] |= bits
    return heads, out[:len(heads)]
