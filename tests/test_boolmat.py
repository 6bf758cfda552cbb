import dataclasses
import random
from bisect import bisect_right

import numpy as np
import pytest

from lcfrs import _matmul_fallback, boolmat
from lcfrs.addresses import enumerate_space
from lcfrs.boolmat import (
    KERNEL_KIND,
    BoolMatrix,
    _mult_naive,
    bit,
    bool_multiply,
    nonzero_bits,
    pack_rows,
    plane_product,
    popcount,
    row_bits,
    rule_mask,
    rule_plan,
    set_cells,
    unpack_rows,
    zeros,
)
from lcfrs.grammar import configurations, is_single_initial, parse_grammar, to_single_initial
from lcfrs.oracle import _role_fits, matrix_product, seed
from lcfrs.recognizer import engine_ready

from conftest import (
    BOTH_CHILDREN_GROW, enumerated_role_mask, full_rank, live_planes, product_chart,
    random_grammar, symbol_planes, union,
)

BACKENDS = ("naive", "bitset")


def random_bool(dim, rng, density=0.2):
    return BoolMatrix.from_dense([[rng.random() < density for _ in range(dim)]
                                  for _ in range(dim)])


def cells_matrix(dim, cells):
    """The matrix whose set bits are the (row, col) pairs in ``cells``."""
    m = BoolMatrix(dim)
    if cells:
        set_cells(m.words, *zip(*cells))
    return m


def cells(words):
    """The set bits of packed ``words`` as int tuples, in row-major order."""
    return list(zip(*(a.tolist() for a in nonzero_bits(words))))


def or_into(held, m):
    """``held`` with the bits of ``m`` added, as a new matrix."""
    return BoolMatrix(held.dim, held.words | m.words)


class TestBoolMatrix:
    def test_set_test_count(self):
        m = BoolMatrix(70)
        assert not m.words.any()
        set_cells(m.words, [0, 69, 69], [0, 64, 64])
        assert bit(m.words, 0, 0) and bit(m.words, 69, 64)
        assert not bit(m.words, 0, 1)
        assert popcount(m.words) == 2

    def test_popcount_without_bitwise_count(self, monkeypatch):
        # numpy before 2.0 has no bitwise_count; the fallback counts the same
        rng = np.random.default_rng(3)
        words = pack_rows(rng.random((70, 130)) < 0.3)
        want = popcount(words)
        monkeypatch.setattr(boolmat, "_popcount", None)
        assert popcount(words) == want == int(unpack_rows(words, 130).sum())

    def test_dense_round_trip(self):
        rng = random.Random(0)
        for dim in (1, 5, 64, 65):
            m = random_bool(dim, rng)
            assert BoolMatrix.from_dense(m.to_dense()) == m

    def test_nonzero_cells(self):
        m = cells_matrix(10, [(9, 0), (3, 7)])
        assert cells(m.words) == [(3, 7), (9, 0)]

    def test_padding_bits_stay_clear(self):
        # dims off the word boundary must not leak bits into the padding
        m = cells_matrix(3, [(i, j) for i in range(3) for j in range(3)])
        assert popcount(m.words) == 9
        assert int(m.words[0, 0]) == 0b111


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for cols in (1, 63, 64, 65, 200):
            dense = rng.random((5, cols)) < 0.3
            words = pack_rows(dense)
            assert words.dtype == np.uint64
            back = unpack_rows(words, cols)
            assert back.tolist() == dense.tolist()


class TestMultiply:
    def test_identity_is_neutral(self):
        rng = random.Random(3)
        m = random_bool(33, rng)
        eye = BoolMatrix.from_dense(np.eye(33, dtype=np.uint8))
        for backend in BACKENDS:
            assert bool_multiply(eye, m, backend) == m
            assert bool_multiply(m, eye, backend) == m

    def test_known_product(self):
        a = cells_matrix(3, [(0, 1)])
        b = cells_matrix(3, [(1, 2)])
        c = bool_multiply(a, b)
        assert bit(c.words, 0, 2) and popcount(c.words) == 1

    @pytest.mark.parametrize("dim", [1, 7, 37, 64, 100, 130])
    def test_backends_agree(self, dim):
        rng = random.Random(dim)
        a, b = random_bool(dim, rng), random_bool(dim, rng)
        assert bool_multiply(a, b, "bitset") == bool_multiply(a, b, "naive")

    def test_dense_blowup_still_exact(self):
        # saturated operands overflow nothing: counts are capped before use
        dim = 96
        a = BoolMatrix.from_dense(np.ones((dim, dim), dtype=np.uint8))
        for backend in BACKENDS:
            assert popcount(bool_multiply(a, a, backend).words) == dim * dim

    def test_associative(self):
        rng = random.Random(4)
        a, b, c = (random_bool(20, rng) for _ in range(3))
        left = bool_multiply(bool_multiply(a, b), c)
        right = bool_multiply(a, bool_multiply(b, c))
        assert left == right

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bool_multiply(BoolMatrix(3), BoolMatrix(4))

    def test_bad_backend(self):
        m = BoolMatrix(2)
        with pytest.raises(ValueError):
            bool_multiply(m, m, "magic")

    def test_kernel_kind_reported(self):
        assert KERNEL_KIND == "fallback"
        assert boolmat._kernel is _matmul_fallback


KERNEL_DIMS = [1, 63, 64, 65, 130, 714]


def _fallback_product(a: BoolMatrix, b: BoolMatrix, out: BoolMatrix) -> BoolMatrix:
    # the kernel called on its own, outside bool_multiply
    _matmul_fallback.multiply_packed(a.words, b.words, out.words)
    return out


def _kernel_operands(dim):
    rng = np.random.default_rng(dim)
    full_row = np.zeros((dim, dim), dtype=bool)
    full_row[dim // 2] = True
    word_tops = np.zeros((dim, dim), dtype=bool)
    word_tops[:, 63::64] = True          # bit 63 of every word
    sparse = rng.random((dim, dim)) < 1.0 / dim
    dense = rng.random((dim, dim)) < 0.2
    zero = np.zeros((dim, dim), dtype=bool)
    yield "zero-left", zero, dense
    yield "full-row", full_row, dense
    yield "word-tops", word_tops, dense
    yield "word-tops-right", dense, word_tops
    yield "sparse", sparse, sparse
    yield "dense", dense, dense


class TestFallbackKernel:
    @pytest.mark.parametrize("dim", KERNEL_DIMS)
    def test_matches_naive(self, dim):
        for label, da, db in _kernel_operands(dim):
            a, b = BoolMatrix.from_dense(da), BoolMatrix.from_dense(db)
            got = _fallback_product(a, b, BoolMatrix(dim))
            assert got == _mult_naive(a, b), label

    @pytest.mark.parametrize("dim", KERNEL_DIMS)
    def test_ors_into_out(self, dim):
        rng = np.random.default_rng(dim + 1)
        a = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.05)
        b = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.05)
        held = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.1)
        got = _fallback_product(a, b, BoolMatrix(dim, held.words.copy()))
        assert got == or_into(held, _mult_naive(a, b))

    def test_blocks_split_inside_a_row(self, monkeypatch):
        # a block of one word at a time splits rows across blocks
        monkeypatch.setattr(_matmul_fallback, "_BLOCK_WORDS", 64 * 3)
        rng = np.random.default_rng(5)
        for dim in (65, 130):
            a = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.3)
            b = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.3)
            assert _fallback_product(a, b, BoolMatrix(dim)) == _mult_naive(a, b)
        # dense left rows: each spans three blocks, and every block's bits
        # OR into the same output row
        dim = 130
        da = np.zeros((dim, dim), dtype=bool)
        da[7] = True
        da[50, ::3] = True
        a = BoolMatrix.from_dense(da)
        b = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.05)
        held = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.05)
        got = _fallback_product(a, b, BoolMatrix(dim, held.words.copy()))
        assert got == or_into(held, _mult_naive(a, b))

    def test_every_left_bit_hits_an_empty_row(self):
        # column k of a is set only where row k of b is empty: nothing to add
        dim = 130
        a = cells_matrix(dim, [(i, k) for i in range(0, dim, 3) for k in (1, 64, 129)])
        b = cells_matrix(dim, [(k, j) for k in (0, 2, 65) for j in range(dim)])
        held = cells_matrix(dim, [(5, 7)])
        assert _fallback_product(a, b, BoolMatrix(dim, held.words.copy())) == held
        assert _mult_naive(a, b) == BoolMatrix(dim)

    @pytest.mark.parametrize("dim", (1, 63, 64, 65, 130))
    def test_mix_of_empty_and_live_rows(self, dim):
        rng = np.random.default_rng(dim + 7)
        da = rng.random((dim, dim)) < 0.2
        db = rng.random((dim, dim)) < 0.2
        db[rng.random(dim) < 0.6] = False      # most rows of b empty
        a, b = BoolMatrix.from_dense(da), BoolMatrix.from_dense(db)
        words = a.words.copy()
        assert _fallback_product(a, b, BoolMatrix(dim)) == _mult_naive(a, b)
        assert np.array_equal(a.words, words)  # the left operand is not written

    @pytest.mark.parametrize("dim", (1, 63, 64, 65, 130))
    def test_out_already_holding_bits(self, dim):
        rng = np.random.default_rng(dim + 9)
        db = rng.random((dim, dim)) < 0.3
        db[::2] = False
        a = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.1)
        b = BoolMatrix.from_dense(db)
        held = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.1)
        got = _fallback_product(a, b, BoolMatrix(dim, held.words.copy()))
        assert got == or_into(held, _mult_naive(a, b))


class TestScatter:
    @pytest.mark.parametrize("dim", KERNEL_DIMS)
    def test_nonzero_cells_matches_dense(self, dim):
        for label, da, _ in _kernel_operands(dim):
            m = BoolMatrix.from_dense(da)
            want = [(int(i), int(j)) for i, j in zip(*np.nonzero(da))]
            assert cells(m.words) == want, label
            assert popcount(m.words) == int(da.sum()), label

    @pytest.mark.parametrize("dim", KERNEL_DIMS)
    def test_row_matches_nonzero_cells(self, dim):
        for label, da, _ in _kernel_operands(dim):
            m = BoolMatrix.from_dense(da)
            want = [[] for _ in range(dim)]
            for r, c in cells(m.words):
                want[r].append(c)
            assert [row_bits(words) for words in m.words.tolist()] == want, label

    def test_set_cells_with_duplicates(self):
        chart = zeros(70, 2)
        set_cells(chart, [1, 0, 0, 0, 1], [69, 3, 3, 3, 3], [69, 64, 64, 0, 64])
        # chart rows count across planes: row 3 of plane 1 is row 73
        assert cells(chart) == [(3, 0), (3, 64), (73, 64), (139, 69)]
        set_cells(chart, [], [], [])
        assert popcount(chart) == 4

    def test_symbol_planes_match_cell_by_cell(self, grammars):
        g = grammars["count4"]
        toks = "a b c d".split()
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        T = union(T, matrix_product(T, T, g))
        ids = g.symbol_ids
        want = zeros(sp.dim, len(ids))
        for (r, c), syms in T.cells.items():
            for s in syms:
                want[ids[s], r, c >> 6] |= np.uint64(1 << (c & 63))
        assert want.any()
        assert np.array_equal(symbol_planes(T, ids), want)


def _planes_after_one_product(g, toks):
    sp = enumerate_space(len(toks), full_rank(g))
    T = seed(g, toks, sp)
    return T, union(T, matrix_product(T, T, g)), sp


class TestFactors:
    def test_lexical_rules_contribute_nothing(self, grammars):
        g = grammars["cfg_anbn"]
        T, T2, sp = _planes_after_one_product(g, ["a", "a", "b", "b"])
        lexical = dataclasses.replace(g, rules=tuple(g.lexical_rules()))
        binary = dataclasses.replace(g, rules=tuple(g.binary_rules()))
        planes = symbol_planes(T, g.symbol_ids)
        assert planes.any()
        stats = {}
        heads, got = plane_product(planes, planes, rule_plan(lexical, sp), stats=stats)
        assert heads == [] and got.shape == (0, sp.dim, planes.shape[2])
        assert stats.get("muls", 0) == 0
        for chart in (planes, symbol_planes(T2, g.symbol_ids)):
            assert np.array_equal(product_chart(chart, chart, g, sp),
                                  product_chart(chart, chart, binary, sp))

    def test_empty_left_operand(self, grammars):
        g = grammars["cfg_anbn"]
        _, T2, sp = _planes_after_one_product(g, ["a", "a", "b", "b"])
        stats = {}
        empty = zeros(sp.dim, len(g.symbol_ids))
        assert not product_chart(empty, symbol_planes(T2, g.symbol_ids), g, sp, stats=stats).any()
        assert stats.get("muls", 0) == 0

    def test_factors_stay_above_diagonal(self, grammars):
        g = grammars["count4"]
        _, T2, sp = _planes_after_one_product(g, ["a", "b", "c", "d"])
        chart = symbol_planes(T2, g.symbol_ids)
        for _ in range(3):
            got = product_chart(chart, chart, g, sp)
            rows, cols = nonzero_bits(got)
            assert rows.size and (rows % sp.dim < cols).all()
            chart = chart | got

    def test_space_mismatch_raises(self, grammars):
        g = grammars["cfg_anbn"]
        small = symbol_planes(seed(g, ["a", "b"], enumerate_space(2, 1)), g.symbol_ids)
        with pytest.raises(ValueError):
            plane_product(small, small, rule_plan(g, enumerate_space(3, 1)))
        with pytest.raises(ValueError):     # one plane short of the grammar's symbols
            plane_product(small[1:], small[1:], rule_plan(g, enumerate_space(2, 1)))

    def test_plane_product_matches_cell_by_cell(self, grammars):
        for name, sentence in (("count4", "a b c d"), ("itg_sep", "x y # y x")):
            g = grammars[name]
            T, T2, sp = _planes_after_one_product(g, sentence.split())
            for left, right in ((T, T2), (T2, T), (T2, T2)):
                ids = g.symbol_ids
                G, H = symbol_planes(left, ids), symbol_planes(right, ids)
                want = symbol_planes(matrix_product(left, right, g), ids)
                assert np.array_equal(product_chart(G, H, g, sp), want), name
                # it lists every plane with bits, each once
                heads, _ = plane_product(G, H, rule_plan(g, sp))
                assert len(set(heads)) == len(heads), name
                assert set(live_planes(want)[0]) <= set(heads), name

    def test_delta_terms_complete_the_old_product(self, grammars):
        # semi-naive step: the terms reading a new fact, together with the
        # product of the old chart, make up the product of the new chart
        both_grow = parse_grammar(BOTH_CHILDREN_GROW)
        for name, g, sentence in (
            ("count4", grammars["count4"], "a a b c d d"),
            ("itg_sep", grammars["itg_sep"], "x y # y x"),
            ("both_grow", both_grow, "a a b a b"),
        ):
            toks = sentence.split()
            sp = enumerate_space(len(toks), full_rank(g))
            T = seed(g, toks, sp)
            for step in range(3):
                grown = union(T, matrix_product(T, T, g))
                old, new = symbol_planes(T, g.symbol_ids), symbol_planes(grown, g.symbol_ids)
                full = product_chart(new, new, g, sp)
                part = product_chart(new, new, g, sp, delta=live_planes(new & ~old))
                label = (name, step)
                assert np.array_equal(product_chart(old, old, g, sp) | part, full), label
                assert not (part & ~full).any(), label
                T = grown
            stats = {}
            plane_product(new, new, rule_plan(g, sp), stats=stats,
                          delta=live_planes(np.zeros_like(new)))
            assert stats.get("muls", 0) == 0


def _cell_by_cell_mask(sp, cfg, fo):
    """The mask of ``cfg`` and ``fo`` over ``sp`` by its definition: every
    (row, col) address pair of the right lengths tested by ``_role_fits``.
    A column that does not sort after the row has no merge, so only the
    columns after it are tested."""
    fo2 = 2 * fo
    want = np.zeros((sp.dim, sp.dim), dtype=np.uint8)
    rows = [i for i in sp.addresses if len(i) == len(cfg)]
    cols = [j for j in sp.addresses if len(j) == fo2 - len(cfg)]
    for i in rows:
        for j in cols[bisect_right(cols, i):]:
            if _role_fits(cfg, fo2, i, j, i):
                want[sp.ids[i], sp.ids[j]] = 1
    return pack_rows(want)


def _runnable_random_keys():
    """``{(cfg, fo): rank}`` over every role of every rule of the random
    grammars the engine runs, each at the largest rank that fits all the
    rules of a grammar it occurs in."""
    keys = {}
    for case in range(300):
        g = random_grammar(random.Random(case), d_cap=4)
        work = g if is_single_initial(g) else to_single_initial(g)
        if engine_ready(work):
            continue
        for r in work.binary_rules():
            for key in zip(configurations(r), r.fo):
                keys[key] = max(keys.get(key, 1), full_rank(work))
    return keys


class TestRoleMask:
    def test_matches_cell_by_cell(self, grammars):
        checked = 0
        for name, g in grammars.items():
            d = full_rank(g if is_single_initial(g) else to_single_initial(g))
            for n in range(9):
                sp = enumerate_space(n, d)
                for r in g.binary_rules():
                    for role, cfg in zip((1, 2, 3), configurations(r)):
                        want = _cell_by_cell_mask(sp, cfg, r.fo[role - 1])
                        got = rule_mask(sp, r, role)
                        assert np.array_equal(got, want), (name, n, r.rid, role)
                        checked += want.any()
        assert checked

    def test_random_grammar_configurations_match_cell_by_cell(self):
        # every configuration the runnable random grammars' rules take, with
        # ties and empty spans, at n = 0-8.  Fan-out 4 comes only from the
        # single-initial rewrite, and its cell-by-cell masks at n = 8 take
        # seconds, so it stops at n = 5
        keys = _runnable_random_keys()
        assert {1, 2, 3, 4} <= {fo for _, fo in keys}
        checked = 0
        for (cfg, fo), d in sorted(keys.items(), key=lambda k: (k[0][1], sorted(k[0][0]))):
            for n in range(9 if fo < 4 else 6):
                sp = enumerate_space(n, d)
                want = _cell_by_cell_mask(sp, cfg, fo)
                assert np.array_equal(boolmat._role_mask(sp, cfg, fo), want), (sorted(cfg), fo, d, n)
                checked += want.any()
        assert checked

    def test_large_spaces_match_the_enumeration(self, grammars):
        # spot checks beyond the cell-by-cell sizes against the mask built
        # by enumerating position tuples
        checked = 0
        for name, g in grammars.items():
            work = g if is_single_initial(g) else to_single_initial(g)
            keys = {(cfg, fo) for r in work.binary_rules()
                    for cfg, fo in zip(configurations(r), r.fo)}
            for n in (12, 14, 16):
                sp = enumerate_space(n, full_rank(work))
                for cfg, fo in sorted(keys, key=lambda k: (k[1], sorted(k[0]))):
                    want = enumerated_role_mask(sp, cfg, fo)
                    assert np.array_equal(boolmat._role_mask(sp, cfg, fo), want), (name, n, cfg)
                    checked += want.any()
        assert checked

    def test_blocks_give_the_one_block_mask(self, monkeypatch):
        # a block of a single row builds the same mask as one block
        sp = enumerate_space(7, 3)
        whole = {key: boolmat._role_mask(sp, *key)
                 for key in ((frozenset({1, 3}), 2), (frozenset({1, 2, 5}), 3), (frozenset({1}), 1))}
        monkeypatch.setattr(boolmat, "_MASK_BLOCK", 1)
        for key, mask in whole.items():
            assert np.array_equal(boolmat._role_mask(sp, *key), mask), key


class TestReduction:
    @pytest.mark.parametrize(
        "name,sentence",
        [
            ("cfg_anbn", "a a b b"),
            ("cfg_anbn", "a b a"),
            ("count4", "a b c d"),
            ("itg_sep", "x y # y x"),
            ("tag_style", "x y"),
        ],
    )
    def test_matches_reference_product(self, grammars, name, sentence):
        g = grammars[name]
        toks = sentence.split()
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        ref = matrix_product(T, T, g)
        stats = {}
        planes = symbol_planes(T, g.symbol_ids)
        got = product_chart(planes, planes, g, sp, stats=stats)
        assert np.array_equal(got, symbol_planes(ref, g.symbol_ids))
        assert stats["muls"] > 0

    def test_agrees_on_powers(self, grammars):
        g = grammars["count4"]
        toks = "a b c d".split()
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        for _ in range(3):
            ref = matrix_product(T, T, g)
            planes = symbol_planes(T, g.symbol_ids)
            assert np.array_equal(product_chart(planes, planes, g, sp),
                                  symbol_planes(ref, g.symbol_ids))
            T = union(T, ref)
