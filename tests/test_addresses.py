import itertools

import pytest
from hypothesis import given, strategies as st

from lcfrs.addresses import (
    Address,
    compare,
    enumerate_space,
    merge_m,
    sort_key,
    splits_of_endpoints,
)


def A(*positions):
    return Address(positions)


class TestAddress:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Address(())

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Address((2, 1))

    def test_duplicates_allowed(self):
        assert A(3, 3).positions == (3, 3)


class TestOrdering:
    def test_lexicographic(self):
        assert compare(A(1, 4), A(1, 8)) == -1

    def test_min_decides(self):
        assert compare(A(1), A(2, 7)) == -1

    def test_prefix_sorts_first(self):
        assert compare(A(4, 5), A(4, 5, 8)) == -1

    def test_equal(self):
        assert compare(A(3, 9), A(3, 9)) == 0

    @given(
        st.lists(
            st.tuples(st.lists(st.integers(0, 6), min_size=1, max_size=3)),
            min_size=2,
            max_size=6,
        )
    )
    def test_total_order_is_transitive(self, raw):
        addrs = [Address(sorted(p)) for (p,) in raw]
        ranked = sorted(addrs, key=sort_key)
        for x, y in zip(ranked, ranked[1:]):
            assert compare(x, y) <= 0


class TestMerge:
    def test_two_span_merge(self):
        assert merge_m(A(1, 8), A(4, 5)) == ((1, 4), (5, 8))

    def test_whole_string(self):
        assert merge_m(A(0), A(9)) == ((0, 9),)

    def test_undefined_when_col_min_not_larger(self):
        assert merge_m(A(4, 5), A(1, 8)) is None
        assert merge_m(A(3), A(3)) is None

    def test_undefined_for_odd_total(self):
        assert merge_m(A(1), A(4, 5)) is None

    def test_zero_width_spans(self):
        assert merge_m(A(2, 2), A(5, 5)) == ((2, 2), (5, 5))


class TestSpace:
    def test_tiny_space_contents(self):
        sp = enumerate_space(1, 1)
        assert sp.addresses == [A(0), A(1)]
        assert sp.ids == {(0,): 0, (1,): 1}

    def test_unmarked_count_for_singletons(self):
        for n in range(5):
            assert enumerate_space(n, 1).dim == n + 1

    def test_interleaved_pair_order(self):
        sp = enumerate_space(8, 2)
        assert sp.ids[(1, 8)] < sp.ids[(2, 7)]

    def test_ids_are_sorted_ranks(self):
        sp = enumerate_space(4, 2)
        keys = [sort_key(a) for a in sp.addresses]
        assert keys == sorted(keys)
        assert all(sp.ids[a.positions] == t for t, a in enumerate(sp.addresses))

    def test_enumeration_is_deterministic(self):
        a = enumerate_space(3, 2)
        b = enumerate_space.__wrapped__(3, 2)  # bypass the cache
        assert [sort_key(x) for x in a.addresses] == [
            sort_key(x) for x in b.addresses
        ]
        assert a.ids == b.ids


class TestEquivalentCells:
    def test_contains_alternate_split(self):
        sp = enumerate_space(8, 2)
        cells = sp.equivalent_cells(A(1, 8), A(4, 5))
        assert (A(1, 4), A(5, 8)) in cells
        assert (A(1, 8), A(4, 5)) in cells

    def test_top_cell_is_singleton_for_d1(self):
        sp = enumerate_space(6, 1)
        assert sp.equivalent_cells(A(0), A(6)) == {(A(0), A(6))}

    def test_minimum_stays_in_row(self):
        sp = enumerate_space(8, 2)
        for row, col in sp.equivalent_cells(A(1, 8), A(4, 5)):
            assert 1 in row.positions
            assert merge_m(row, col) == ((1, 4), (5, 8))

    def test_merge_defined_implies_row_before_col(self):
        sp = enumerate_space(4, 2)
        for i, j in itertools.product(sp.addresses, repeat=2):
            if merge_m(i, j) is not None:
                assert compare(i, j) == -1

    def test_undefined_merge_raises(self):
        sp = enumerate_space(8, 2)
        with pytest.raises(ValueError):
            sp.equivalent_cells(A(4, 5), A(1, 8))

    def test_splits_cover_all_row_col_partitions(self):
        got = splits_of_endpoints((1, 4, 5, 8), 2)
        assert got == {
            ((1, 4), (5, 8)),
            ((1, 5), (4, 8)),
            ((1, 8), (4, 5)),
        }
