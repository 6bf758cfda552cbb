"""Matrix index machinery: sorted position sequences.

Rows and columns of every matrix in this package are addresses — short,
nonempty, non-decreasing tuples of string positions, ordered as tuples are:
lexicographically, shorter prefixes first.  This module defines the merge
of a row/column pair into the sorted endpoints of the spans it denotes, and
the enumerated, totally ordered index space for a given sentence length and
maximum address length.

A merge is defined when the column sorts after the row.  The column's
minimum is then not below the row's, so the row holds the minimum of the
merged endpoints; the two minima may tie, as they do for a fact whose
first span is empty.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement


def cell_endpoints(row: tuple, col: tuple):
    """The sorted endpoints of the spans a row and a column address denote,
    or None when their merge is undefined: an odd combined length, or the
    column not sorting after the row."""
    if col <= row or (len(row) + len(col)) % 2:
        return None
    return tuple(sorted(row + col))


def splits_of_endpoints(endpoints, d):
    """All (row, col) position-tuple pairs that merge back to ``endpoints``.

    ``endpoints`` must be sorted.  The row keeps the global minimum; both
    sides are nonempty, at most ``d`` long, and the column must sort after
    the row (otherwise the merge is undefined).
    """
    e = tuple(endpoints)
    L = len(e)
    out = set()
    rest = range(1, L)
    for rsize in range(max(1, L - d), min(d, L - 1) + 1):
        for picked in combinations(rest, rsize - 1):
            chosen = set(picked)
            row = (e[0],) + tuple(e[t] for t in picked)
            col = tuple(e[t] for t in rest if t not in chosen)
            if col > row:
                out.add((row, col))
    return out


class AddressSpace:
    """The full ordered index set for sentence length ``n`` and max length ``d``.

    ``addresses`` is the sorted list of position tuples; ``ids`` maps each
    to its rank, which doubles as its row/column index in every matrix.
    There are ``sum(comb(n + L, L) for L in 1..d)`` of them.

    ``masks`` holds the rule masks built over this space by
    ``boolmat.rule_mask``, and ``mask_ms`` the milliseconds they took.
    """

    def __init__(self, n: int, d: int):
        if n < 0 or d < 1:
            raise ValueError("need n >= 0 and d >= 1")
        self.n = n
        self.d = d
        self.addresses = sorted(
            pos
            for length in range(1, d + 1)
            for pos in combinations_with_replacement(range(n + 1), length)
        )
        self.ids = {a: t for t, a in enumerate(self.addresses)}
        self.dim = len(self.addresses)
        self._split_ids = {}
        self.masks = {}
        self.mask_ms = 0.0

    def split_ids(self, endpoints: tuple) -> tuple:
        """``splits_of_endpoints(endpoints, d)`` as (row id, col id) pairs,
        kept per space: seeds and copies meet the same endpoints again."""
        got = self._split_ids.get(endpoints)
        if got is None:
            ids = self.ids
            got = self._split_ids[endpoints] = tuple(
                (ids[row], ids[col]) for row, col in splits_of_endpoints(endpoints, self.d))
        return got

    def __repr__(self):
        return "AddressSpace(n=%d, d=%d, dim=%d)" % (self.n, self.d, self.dim)


@lru_cache(maxsize=64)
def enumerate_space(n: int, d: int) -> AddressSpace:
    """Build (or fetch the cached) address space for (n, d)."""
    return AddressSpace(n, d)
