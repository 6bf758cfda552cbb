"""Matrix index machinery: position sequences with an optional mark.

Rows and columns of every matrix in this package are addresses — short
non-decreasing sequences of string positions, at most one of which may be
marked.  This module defines their total order, merging of a row/column
pair into the span list it denotes, insertion/removal of single positions,
and the enumerated, totally ordered index space for a given sentence
length and maximum address length.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, combinations_with_replacement


class Address:
    """A non-decreasing tuple of positions with an optional marked element.

    ``mark`` is the index of the marked element, or -1 for none.  The mark is
    normalized onto the last element of its run of equal values, so (2, 7^, 7)
    and (2, 7, 7^) are the same address.
    """

    __slots__ = ("positions", "mark")

    def __init__(self, positions, mark=-1):
        positions = tuple(positions)
        if not positions:
            raise ValueError("empty address")
        if any(b < a for a, b in zip(positions, positions[1:])):
            raise ValueError("positions must be non-decreasing: %r" % (positions,))
        if mark >= 0:
            if not mark < len(positions):
                raise ValueError("mark index out of range")
            v = positions[mark]
            while mark + 1 < len(positions) and positions[mark + 1] == v:
                mark += 1
        elif mark != -1:
            raise ValueError("mark must be an index or -1")
        self.positions = positions
        self.mark = mark

    @property
    def marked_value(self):
        return None if self.mark < 0 else self.positions[self.mark]

    def is_marked(self):
        return self.mark >= 0

    def unmarked(self):
        """The same positions with the mark dropped."""
        return Address(self.positions) if self.mark >= 0 else self

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        return (
            isinstance(other, Address)
            and self.positions == other.positions
            and self.mark == other.mark
        )

    def __hash__(self):
        return hash((self.positions, self.mark))

    def __repr__(self):
        return "Address(%s)" % str(self)

    def __str__(self):
        out = []
        for t, p in enumerate(self.positions):
            out.append("%d^" % p if t == self.mark else str(p))
        return ",".join(out)

    def __lt__(self, other):
        return sort_key(self) < sort_key(other)


def sort_key(addr: Address):
    """Total-order key: positions lexicographically (shorter prefixes first),
    then a mark tie-break for equal position tuples.

    The tie-break places a mark-on-last-element address *before* its unmarked
    twin and any other marked variant *after* it.  Both directions are needed:
    the two unmark symbols live on opposite sides of the diagonal, and which
    side a marked/unmarked twin pair lands on must depend on where the mark
    sits (a mark acquired by appending at the end comes off via a column
    unmark; one acquired mid-sequence comes off via a row unmark).
    """
    if addr.mark < 0:
        rank = 1
    elif addr.mark == len(addr.positions) - 1:
        rank = 0
    else:
        rank = 2 + addr.mark
    return (addr.positions, rank)


def compare(a: Address, b: Address) -> int:
    """-1, 0, or 1 as ``a`` sorts before, equal to, or after ``b``."""
    ka, kb = sort_key(a), sort_key(b)
    return -1 if ka < kb else (0 if ka == kb else 1)


def insert(addr: Address, pos: int, marked: bool = False) -> Address:
    """Insert one position (stable: after any equal values)."""
    if marked and addr.mark >= 0:
        raise ValueError("cannot insert a second mark into %s" % addr)
    idx = bisect_right(addr.positions, pos)
    positions = addr.positions[:idx] + (pos,) + addr.positions[idx:]
    if marked:
        mark = idx
    elif addr.mark >= 0 and idx <= addr.mark:
        mark = addr.mark + 1
    else:
        mark = addr.mark
    return Address(positions, mark)


def remove(addr: Address, pos: int, marked: bool = False) -> Address:
    """Remove one occurrence of ``pos`` (the last one of matching markedness)."""
    if marked:
        if addr.mark < 0 or addr.positions[addr.mark] != pos:
            raise ValueError("no marked %d in %s" % (pos, addr))
        idx = addr.mark
        mark = -1
    else:
        idx = -1
        for t, p in enumerate(addr.positions):
            if p == pos and t != addr.mark:
                idx = t
        if idx < 0:
            raise ValueError("no unmarked %d in %s" % (pos, addr))
        mark = addr.mark - 1 if addr.mark > idx else addr.mark
    positions = addr.positions[:idx] + addr.positions[idx + 1:]
    return Address(positions, mark)


def merge_m(i: Address, j: Address):
    """Merge a row and a column address into the ordered span list they denote.

    Returns a tuple of (left, right) pairs, or None when undefined: any mark,
    an odd combined length, or the column's minimum not exceeding the row's.
    """
    if i.mark >= 0 or j.mark >= 0:
        return None
    if min(j.positions) <= min(i.positions):
        return None
    merged = sorted(i.positions + j.positions)
    if len(merged) % 2:
        return None
    return tuple((merged[t], merged[t + 1]) for t in range(0, len(merged), 2))


def splits_of_endpoints(endpoints, d):
    """All (row, col) position-tuple pairs that merge back to ``endpoints``.

    ``endpoints`` must be sorted.  The row keeps the global minimum; both
    sides are nonempty, at most ``d`` long, and the column's minimum must be
    strictly larger than the row's (otherwise the merge is undefined).
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
            if col[0] > row[0]:
                out.add((row, col))
    return out


class AddressSpace:
    """The full ordered index set for sentence length ``n`` and max length ``d``.

    ``addresses`` is sorted by the total order; ``ids`` maps an address to its
    rank, which doubles as its row/column index in every matrix, and
    ``unmarked_ids`` maps the positions tuple of an unmarked address to it.
    """

    def __init__(self, n: int, d: int):
        if n < 0 or d < 1:
            raise ValueError("need n >= 0 and d >= 1")
        self.n = n
        self.d = d
        self.addresses = sorted(self._generate(n, d), key=sort_key)
        self.ids = {a: t for t, a in enumerate(self.addresses)}
        self.unmarked_ids = {a.positions: t for a, t in self.ids.items() if a.mark < 0}
        self.dim = len(self.addresses)
        self._split_ids = {}

    @staticmethod
    def _generate(n, d):
        for length in range(1, d + 1):
            for pos in combinations_with_replacement(range(n + 1), length):
                yield Address(pos)
                for t in range(length):
                    # one marked variant per run of equal values
                    if t + 1 == length or pos[t + 1] != pos[t]:
                        yield Address(pos, t)

    def split_ids(self, endpoints: tuple) -> tuple:
        """``splits_of_endpoints(endpoints, d)`` as (row id, col id) pairs,
        kept per space: seeds and copies meet the same endpoints again."""
        got = self._split_ids.get(endpoints)
        if got is None:
            ids = self.unmarked_ids
            got = self._split_ids[endpoints] = tuple(
                (ids[row], ids[col]) for row, col in splits_of_endpoints(endpoints, self.d))
        return got

    def equivalent_cells(self, i: Address, j: Address):
        """All unmarked (row, col) address pairs merging to the same spans."""
        spans = merge_m(i, j)
        if spans is None:
            raise ValueError("merge undefined for (%s, %s)" % (i, j))
        flat = tuple(sorted(p for span in spans for p in span))
        return {
            (Address(row), Address(col))
            for row, col in splits_of_endpoints(flat, self.d)
        }

    def __repr__(self):
        return "AddressSpace(n=%d, d=%d, dim=%d)" % (self.n, self.d, self.dim)


@lru_cache(maxsize=64)
def enumerate_space(n: int, d: int) -> AddressSpace:
    """Build (or fetch the cached) address space for (n, d)."""
    return AddressSpace(n, d)
