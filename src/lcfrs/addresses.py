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

The splits of sorted endpoints back into (row, column) pairs come from one
table of split patterns, ``split_patterns``: which sorted positions go to
the row and which to the column.  ``splits_of_endpoints`` applies it to
tuples, and ``AddressSpace.split_ids`` to ids.  Which address pairs merge
by a pattern is one predicate, ``fits``, which the rule masks and the
start-rule join tables evaluate by broadcasting over the space's
per-length address arrays rather than by walking position tuples.
``AddressSpace.ids_of`` finds the ids of a batch of addresses given as
position columns.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement
from operator import itemgetter

import numpy as np


def cell_endpoints(row: tuple, col: tuple):
    """The sorted endpoints of the spans a row and a column address denote,
    or None when their merge is undefined: an odd combined length, or the
    column not sorting after the row."""
    if col <= row or (len(row) + len(col)) % 2:
        return None
    return tuple(sorted(row + col))


def split_patterns(L: int, d: int):
    """The ways to deal ``L`` sorted endpoints to a row and a column, as
    (row positions, column positions) index tuples: the row keeps position
    0, the global minimum, and both sides are nonempty and at most ``d``
    long.  Tied endpoints can make two patterns give the same pair."""
    rest = range(1, L)
    for rsize in range(max(1, L - d), min(d, L - 1) + 1):
        for picked in combinations(rest, rsize - 1):
            yield (0, *picked), tuple(t for t in rest if t not in picked)


def fits(pattern: tuple, rows: tuple, cols: tuple) -> np.ndarray:
    """Which row/column address pairs merge by ``pattern``, a (row
    positions, column positions) pair of index tuples as ``split_patterns``
    yields them: a boolean (row, column) array.  ``rows`` and ``cols`` are
    (ids, positions) arrays as ``AddressSpace.by_length`` holds them, of the
    pattern's two lengths.  A pair fits when the column sorts after the row
    and the merge, which puts the row's positions at the pattern's row
    positions and the column's at the rest, is non-decreasing.  Each
    address is sorted already, so only neighbouring merged positions from
    opposite sides are compared; ids are ranks in tuple order, so the
    column test compares ids."""
    (row_ids, row_pos), (col_ids, col_pos) = rows, cols
    row_at, col_at = pattern
    merged = [None] * (len(row_at) + len(col_at))
    for i, t in enumerate(row_at):
        merged[t] = row_pos[:, i, None]
    for j, t in enumerate(col_at):
        merged[t] = col_pos[:, j]
    out = col_ids > row_ids[:, None]
    for t in range(len(merged) - 1):
        if (t in row_at) != (t + 1 in row_at):
            out &= merged[t] <= merged[t + 1]
    return out


def splits_of_endpoints(endpoints, d):
    """All (row, col) position-tuple pairs that merge back to ``endpoints``.

    ``endpoints`` must be sorted.  The pairs are those of ``split_patterns``
    whose column sorts after the row (otherwise the merge is undefined).
    An odd number of endpoints is the merge of no pair.
    """
    e = tuple(endpoints)
    out = set()
    if len(e) % 2:
        return out
    for row_at, col_at in split_patterns(len(e), d):
        row = tuple(e[t] for t in row_at)
        col = tuple(e[t] for t in col_at)
        if col > row:
            out.add((row, col))
    return out


def _picker(idx: tuple):
    """``e -> tuple(e[t] for t in idx)``.  ``itemgetter`` returns a bare
    item for a single index, so that case is wrapped in a 1-tuple."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda e: (get(e),)


class AddressSpace:
    """The full ordered index set for sentence length ``n`` and max length ``d``.

    ``addresses`` is the sorted list of position tuples; ``ids`` maps each
    to its rank, which doubles as its row/column index in every matrix.
    There are ``sum(comb(n + L, L) for L in 1..d)`` of them.

    ``masks`` holds the rule masks built over this space by
    ``boolmat.rule_mask``, which every run's ``boolmat.rule_plan`` reads;
    ``joins`` holds the start-rule join tables of
    ``recognizer._join_table``.  ``by_length``, which ``ids_of`` searches,
    and the split-pattern tables behind ``split_ids`` are built on first
    use and kept here too.
    """

    def __init__(self, n: int, d: int):
        if n < 0 or d < 1:
            raise ValueError("need n >= 0 and d >= 1")
        self.n = n
        self.d = d
        # one list per length, each in tuple order; ``by_length`` reads them
        self._of_length = [list(combinations_with_replacement(range(n + 1), length))
                           for length in range(1, d + 1)]
        self.addresses = sorted(chain.from_iterable(self._of_length))
        self.ids = {a: t for t, a in enumerate(self.addresses)}
        self.dim = len(self.addresses)
        self._patterns = {}
        self._split_ids = {}
        self.masks = {}
        self.joins = {}

    @cached_property
    def by_length(self) -> dict:
        """``{L: (ids, positions)}`` for L in 1..d: the ids of the addresses
        of length L, ascending, and their positions as a (count, L) array
        with contiguous columns.  Read off the enumeration by numpy, with
        no loop over addresses, in the narrowest unsigned types that hold
        them: the mask builds compare them, and narrow types compare
        several times faster."""
        ids = self.ids
        id_type, pos_type = np.min_scalar_type(self.dim), np.min_scalar_type(self.n)
        return {L: (np.fromiter(map(ids.__getitem__, addrs), dtype=id_type, count=len(addrs)),
                    np.asfortranarray(np.fromiter(chain.from_iterable(addrs), dtype=pos_type,
                                                  count=L * len(addrs)).reshape(-1, L)))
                for L, addrs in enumerate(self._of_length, 1)}

    def ids_of(self, columns) -> np.ndarray:
        """The ids of a batch of addresses of one length L, 1 <= L <= d,
        given as L equal-length integer arrays: ``columns[k]`` holds every
        address's position k, and each must be an address of the space.
        Within a length, the base-(n + 1) keys of the positions rise in
        tuple order, as the ids do, so one ``searchsorted`` of the batch's
        keys into those of ``by_length[L]`` finds them."""
        ids, pos = self.by_length[len(columns)]
        base = self.n + 1
        keys, want = np.zeros(len(ids), dtype=np.int64), np.zeros(len(columns[0]), dtype=np.int64)
        for k, column in enumerate(columns):
            keys = keys * base + pos[:, k]
            want = want * base + column
        return ids.take(keys.searchsorted(want))

    def first_split_ids(self, columns) -> tuple:
        """The (row ids, column ids) of the first split pattern of a batch
        of sorted endpoints, given as 2 <= L <= 2d position columns as
        ``ids_of`` takes them.  Where the column id is not above the row
        id, the split is undefined."""
        row_at, col_at = next(split_patterns(len(columns), self.d))
        return (self.ids_of([columns[t] for t in row_at]),
                self.ids_of([columns[t] for t in col_at]))

    def split_ids(self, endpoints: tuple) -> tuple:
        """``splits_of_endpoints(endpoints, d)`` as (row id, col id) pairs:
        the space's split patterns for that many endpoints, applied and
        kept when the column id is above the row id.  Kept per space: seeds
        and copies meet the same endpoints again.  An odd number of
        endpoints has no pair."""
        got = self._split_ids.get(endpoints)
        if got is None:
            L = len(endpoints)
            if L % 2:
                return ()
            patterns = self._patterns.get(L)
            if patterns is None:
                patterns = self._patterns[L] = [
                    (_picker(row_at), _picker(col_at))
                    for row_at, col_at in split_patterns(L, self.d)]
            ids = self.ids
            pairs = {}
            for row_of, col_of in patterns:
                row, col = ids[row_of(endpoints)], ids[col_of(endpoints)]
                if col > row:
                    pairs[row, col] = None
            got = self._split_ids[endpoints] = tuple(pairs)
        return got

    def __repr__(self):
        return "AddressSpace(n=%d, d=%d, dim=%d)" % (self.n, self.d, self.dim)


@lru_cache(maxsize=64)
def enumerate_space(n: int, d: int) -> AddressSpace:
    """Build (or fetch the cached) address space for (n, d)."""
    return AddressSpace(n, d)
