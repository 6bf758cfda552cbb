"""The packed-row Boolean multiply kernel, in numpy.

Operands are packed uint64 rows, little-endian bit order inside each word.
The product is a row-sparse (Gustavson) product: each set bit (i, k) of the
left operand ORs row k of the right operand into row i of the output.  Its
fixed cost is one scan of the left operand's nonzero words, the unpacking
of those words into bit coordinates, one gather of the right rows they name
and one scatter-OR of the gathered rows into the output, which handles
repeated output rows itself.  So the cost tracks the left operand's set
bits, not its dimension, and a product of a few bits makes a few numpy
calls.

The gathered rows are the one temporary that grows with the operand, so
the left operand's nonzero words are taken ``_BLOCK_WORDS // (64 * words)``
at a time: a dense left operand then never gathers more than
``_BLOCK_WORDS`` words (32 MB) at once.  Planes of sentences of length
7-8 fit in one block; at length 63-96 a plane can take several.

The module keeps the name it had beside a compiled kernel, because the
benchmark imports it by that name.
"""

import numpy as np

# words of the right operand gathered at once; bounds the temporaries of a
# dense left operand (32 MB), engine planes fit in one block
_BLOCK_WORDS = 1 << 22


def set_bits(flat, pos):
    """Flat bit indices of the set bits in the words at ``pos`` of the 1-D
    packed ``flat``, where bit t of word w has index 64 * w + t.  ``pos``
    lists nonzero words in ascending order, as ``flat.nonzero()`` does;
    only those words are unpacked, and the indices come out ascending."""
    bits = np.unpackbits(flat[pos].view(np.uint8), bitorder="little").nonzero()[0]
    return (pos[bits >> 6] << 6) | (bits & 63)


def multiply_packed(a, b, out):
    """out |= a x b over the Boolean semiring (packed uint64 rows)."""
    flat = a.reshape(-1)
    pos = flat.nonzero()[0]
    bits_per_row = 64 * a.shape[1]
    # each word holds at most 64 bits, so a block gathers at most
    # _BLOCK_WORDS words of b
    step = max(1, _BLOCK_WORDS // (64 * b.shape[1]))
    for lo in range(0, pos.size, step):
        i, k = np.divmod(set_bits(flat, pos[lo:lo + step]), bits_per_row)
        np.bitwise_or.at(out, i, b[k])
    return None
