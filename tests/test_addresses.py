import itertools
from math import comb

from hypothesis import given, strategies as st

from lcfrs.addresses import (
    AddressSpace,
    cell_endpoints,
    enumerate_space,
    splits_of_endpoints,
)

# large enough for every address these tests rank
SPACE = enumerate_space(9, 3)


def rank(*positions):
    return SPACE.ids[positions]


class TestOrdering:
    """Ids rank addresses as tuples: lexicographically, shorter prefixes
    first."""

    def test_lexicographic(self):
        assert rank(1, 4) < rank(1, 8)

    def test_min_decides(self):
        assert rank(1) < rank(2, 7)

    def test_prefix_sorts_first(self):
        assert rank(4, 5) < rank(4, 5, 8)

    def test_equal(self):
        assert SPACE.addresses[rank(3, 9)] == (3, 9)
        assert rank(3, 3) != rank(3)

    @given(
        st.lists(
            st.tuples(st.lists(st.integers(0, 6), min_size=1, max_size=3)),
            min_size=2,
            max_size=6,
        )
    )
    def test_total_order_is_transitive(self, raw):
        addrs = [tuple(sorted(p)) for (p,) in raw]
        ranked = sorted(addrs, key=SPACE.ids.get)
        assert ranked == sorted(addrs)


class TestMerge:
    def test_two_span_merge(self):
        assert cell_endpoints((1, 8), (4, 5)) == (1, 4, 5, 8)

    def test_whole_string(self):
        assert cell_endpoints((0,), (9,)) == (0, 9)

    def test_undefined_unless_col_sorts_after_row(self):
        assert cell_endpoints((4, 5), (1, 8)) is None
        assert cell_endpoints((3,), (3,)) is None
        assert cell_endpoints((2, 4), (2, 3)) is None

    def test_tied_minimum_is_defined(self):
        # a first span that is empty puts the minimum on both sides
        assert cell_endpoints((0, 0), (0, 1)) == (0, 0, 0, 1)
        assert cell_endpoints((2,), (2, 2, 5)) == (2, 2, 2, 5)

    def test_undefined_for_odd_total(self):
        assert cell_endpoints((1,), (4, 5)) is None

    def test_zero_width_spans(self):
        assert cell_endpoints((2, 2), (5, 5)) == (2, 2, 5, 5)


class TestSpace:
    def test_tiny_space_contents(self):
        sp = enumerate_space(1, 1)
        assert sp.addresses == [(0,), (1,)]
        assert sp.ids == {(0,): 0, (1,): 1}

    def test_unmarked_count_for_singletons(self):
        for n in range(5):
            assert enumerate_space(n, 1).dim == n + 1

    def test_interleaved_pair_order(self):
        sp = enumerate_space(8, 2)
        assert sp.ids[(1, 8)] < sp.ids[(2, 7)]

    def test_ids_are_sorted_ranks(self):
        sp = enumerate_space(4, 2)
        assert sp.addresses == sorted(sp.addresses)
        assert all(sp.ids[a] == t for t, a in enumerate(sp.addresses))

    def test_addresses_are_nonempty_and_non_decreasing(self):
        sp = enumerate_space(3, 3)
        assert all(a and list(a) == sorted(a) for a in sp.addresses)
        assert (3, 3) in sp.ids and (2, 1) not in sp.ids
        assert len(set(sp.addresses)) == sp.dim

    def test_dim_closed_form(self):
        # the dimension is known without enumerating the space: multisets
        # of 1..d positions out of n + 1
        for n in range(17):
            for d in (1, 2, 3):
                want = sum(comb(n + L, L) for L in range(1, d + 1))
                assert enumerate_space(n, d).dim == want, (n, d)

    def test_by_length_arrays_are_the_addresses_of_each_length(self):
        for n, d in ((0, 1), (0, 3), (4, 2), (5, 3)):
            sp = enumerate_space(n, d)
            assert sorted(sp.by_length) == list(range(1, d + 1))
            for L, (ids, pos) in sp.by_length.items():
                want = [t for t, a in enumerate(sp.addresses) if len(a) == L]
                assert ids.tolist() == want, (n, d, L)
                assert pos.shape == (len(want), L)
                assert [tuple(p) for p in pos.tolist()] == [sp.addresses[t] for t in want]

    def test_enumeration_is_deterministic(self):
        a = enumerate_space(3, 2)
        b = enumerate_space.__wrapped__(3, 2)  # bypass the cache
        assert a.addresses == b.addresses
        assert a.ids == b.ids


class TestEquivalentCells:
    def test_contains_alternate_split(self):
        cells = splits_of_endpoints(cell_endpoints((1, 8), (4, 5)), 2)
        assert ((1, 4), (5, 8)) in cells
        assert ((1, 8), (4, 5)) in cells

    def test_top_cell_is_singleton_for_d1(self):
        assert splits_of_endpoints(cell_endpoints((0,), (6,)), 1) == {((0,), (6,))}

    def test_minimum_stays_in_row(self):
        for row, col in splits_of_endpoints((1, 4, 5, 8), 2):
            assert 1 in row
            assert cell_endpoints(row, col) == (1, 4, 5, 8)

    def test_merge_defined_implies_row_before_col(self):
        sp = enumerate_space(4, 2)
        for i, j in itertools.product(sp.addresses, repeat=2):
            if cell_endpoints(i, j) is not None:
                assert i < j

    def test_undefined_merge_has_no_split(self):
        assert cell_endpoints((4, 5), (1, 8)) is None
        assert ((4, 5), (1, 8)) not in splits_of_endpoints((1, 4, 5, 8), 2)

    def test_tied_minimum_splits(self):
        assert splits_of_endpoints((0, 0, 0, 1), 2) == {((0, 0), (0, 1))}
        assert splits_of_endpoints((0, 0, 0, 1), 3) == {
            ((0,), (0, 0, 1)),
            ((0, 0), (0, 1)),
            ((0, 0, 0), (1,)),
        }
        for d in (2, 3):
            for row, col in splits_of_endpoints((0, 0, 0, 1), d):
                assert cell_endpoints(row, col) == (0, 0, 0, 1)

    def test_split_ids_are_the_ids_of_the_splits(self):
        # the space applies the split patterns to ids and
        # splits_of_endpoints to tuples: the same pairs, once each, for
        # every sorted endpoint tuple of length 1..2d, tied ones included.
        # An even number of endpoints splits into exactly the cells whose
        # addresses merge to them
        checked = 0
        for d in (1, 2, 3):
            for n in range(7):
                sp = enumerate_space(n, d)
                merges = {}
                for i, j in itertools.product(sp.addresses, repeat=2):
                    e = cell_endpoints(i, j)
                    if e is not None:
                        merges.setdefault(e, set()).add((sp.ids[i], sp.ids[j]))
                for L in range(1, 2 * d + 1):
                    for e in itertools.combinations_with_replacement(range(n + 1), L):
                        got = sp.split_ids(e)
                        want = {(sp.ids[r], sp.ids[c]) for r, c in splits_of_endpoints(e, d)}
                        assert len(got) == len(set(got)) and set(got) == want, (n, d, e)
                        if L % 2 == 0:
                            assert want == merges.get(e, set()), (n, d, e)
                        # the first split, where there is one, is the row
                        # then the column: the start-rule join reads each
                        # fact at such a split
                        if got:
                            row, col = (sp.addresses[t] for t in got[0])
                            assert row + col == e, (n, d, e)
                        checked += len(want)
        assert checked

    def test_odd_endpoint_counts_have_no_split(self):
        # an odd number of endpoints is the merge of no cell, however the
        # split patterns would deal them: (0, 0, 0) at d = 2 once gave
        # ((0,), (0, 0))
        assert splits_of_endpoints((0, 0, 0), 2) == set()
        checked = 0
        for d in (1, 2, 3):
            for n in range(7):
                sp = AddressSpace(n, d)
                for L in range(1, 2 * d + 2, 2):
                    for e in itertools.combinations_with_replacement(range(n + 1), L):
                        assert splits_of_endpoints(e, d) == set(), (n, d, e)
                        assert sp.split_ids(e) == (), (n, d, e)
                        checked += 1
        assert checked > 1000

    def test_splits_cover_all_row_col_partitions(self):
        got = splits_of_endpoints((1, 4, 5, 8), 2)
        assert got == {
            ((1, 4), (5, 8)),
            ((1, 5), (4, 8)),
            ((1, 8), (4, 5)),
        }
