"""The packed-row Boolean multiply kernel, in numpy.

Operands are packed uint64 rows, little-endian bit order inside each word.
The product is a row-sparse (Gustavson) product built from whole-array
operations, so its cost tracks the set bits of the left operand that meet
a nonempty row of the right one, not its dimension.  The module keeps the
name it had beside a compiled kernel, because the benchmark imports it by
that name.
"""

import numpy as np

# words of the right operand gathered at once; bounds the temporaries of a
# dense left operand (32 MB), engine planes fit in one block
_BLOCK_WORDS = 1 << 22


def set_bits(words, rows, cols):
    """Coordinates (i, j) of the set bits in the words at (``rows``,
    ``cols``) of packed ``words``, which are nonzero words in row-major
    order as ``np.nonzero(words)`` lists them.  Only those words are
    unpacked, and the pairs come out in row-major order too."""
    by = words[rows, cols].view(np.uint8).reshape(-1, 8)
    hit, bit = np.nonzero(np.unpackbits(by, axis=1, bitorder="little"))
    return rows[hit], cols[hit] * 64 + bit


def _live_rows(b, words):
    """Packed mask (``words`` uint64) of the rows of ``b`` with a set bit."""
    by = np.packbits(b.any(axis=1), bitorder="little")
    live = np.zeros(words * 8, dtype=np.uint8)
    live[:by.size] = by
    return live.view(np.uint64)


def multiply_packed(a, b, out):
    """out |= a x b over the Boolean semiring (packed uint64 rows)."""
    # a bit of a whose row of b is empty adds nothing: drop it before unpacking
    a = a & _live_rows(b, a.shape[1])
    rows, cols = np.nonzero(a)
    if not rows.size:
        return None
    step = max(1, _BLOCK_WORDS // (64 * b.shape[1]))
    for lo in range(0, rows.size, step):
        i, k = set_bits(a, rows[lo:lo + step], cols[lo:lo + step])
        starts = np.flatnonzero(np.concatenate(([True], i[1:] != i[:-1])))
        out[i[starts]] |= np.bitwise_or.reduceat(b[k], starts, axis=0)
    return None
