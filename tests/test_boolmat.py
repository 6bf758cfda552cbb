import dataclasses
import random

import numpy as np
import pytest

from lcfrs import _matmul_fallback, boolmat
from lcfrs.addresses import enumerate_space
from lcfrs.boolmat import (
    KERNEL_KIND,
    BoolMatrix,
    _mult_naive,
    bool_multiply,
    pack_rows,
    plane_product,
    rule_mask,
    unpack_rows,
)
from lcfrs.engine import _role_fits, matrix_product, seed
from lcfrs.grammar import configurations, is_single_initial, parse_grammar, to_single_initial

from conftest import BOTH_CHILDREN_GROW, full_rank, symbol_planes, union

BACKENDS = ("naive", "bitset")


def random_bool(dim, rng, density=0.2):
    m = BoolMatrix(dim)
    for i in range(dim):
        for j in range(dim):
            if rng.random() < density:
                m.set(i, j)
    return m


class TestBoolMatrix:
    def test_set_test_count(self):
        m = BoolMatrix(70)
        assert not m.any()
        m.set(0, 0)
        m.set(69, 64)
        m.set(69, 64)
        assert m.test(0, 0) and m.test(69, 64)
        assert not m.test(0, 1)
        assert m.count() == 2
        assert m.any()

    def test_dense_round_trip(self):
        rng = random.Random(0)
        for dim in (1, 5, 64, 65):
            m = random_bool(dim, rng)
            assert BoolMatrix.from_dense(m.to_dense()) == m

    def test_and_or(self):
        rng = random.Random(1)
        a, b = random_bool(40, rng), random_bool(40, rng)
        da, db = a.to_dense(), b.to_dense()
        assert (a & b).to_dense().tolist() == (da & db).tolist()
        assert (a | b).to_dense().tolist() == (da | db).tolist()

    def test_nonzero_cells(self):
        m = BoolMatrix(10)
        m.set(3, 7)
        m.set(9, 0)
        assert sorted(m.nonzero_cells()) == [(3, 7), (9, 0)]

    def test_identity(self):
        eye = BoolMatrix.identity(6)
        assert eye.count() == 6
        assert all(eye.test(i, i) for i in range(6))

    def test_padding_bits_stay_clear(self):
        # dims off the word boundary must not leak bits into the padding
        m = BoolMatrix(3)
        for i in range(3):
            for j in range(3):
                m.set(i, j)
        assert m.count() == 9
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
        eye = BoolMatrix.identity(33)
        for backend in BACKENDS:
            assert bool_multiply(eye, m, backend) == m
            assert bool_multiply(m, eye, backend) == m

    def test_known_product(self):
        a = BoolMatrix(3)
        a.set(0, 1)
        b = BoolMatrix(3)
        b.set(1, 2)
        c = bool_multiply(a, b)
        assert c.test(0, 2) and c.count() == 1

    @pytest.mark.parametrize("dim", [1, 7, 37, 64, 100, 130])
    def test_backends_agree(self, dim):
        rng = random.Random(dim)
        a, b = random_bool(dim, rng), random_bool(dim, rng)
        assert bool_multiply(a, b, "bitset") == bool_multiply(a, b, "naive")

    def test_dense_blowup_still_exact(self):
        # saturated operands overflow nothing: counts are capped before use
        dim = 96
        a = BoolMatrix(dim)
        for i in range(dim):
            for j in range(dim):
                a.set(i, j)
        for backend in BACKENDS:
            assert bool_multiply(a, a, backend).count() == dim * dim

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
        got = _fallback_product(a, b, held.copy())
        assert got == (_mult_naive(a, b) | held)

    def test_blocks_split_inside_a_row(self, monkeypatch):
        # a block of one word at a time splits rows across blocks
        monkeypatch.setattr(_matmul_fallback, "_BLOCK_WORDS", 64 * 3)
        rng = np.random.default_rng(5)
        for dim in (65, 130):
            a = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.3)
            b = BoolMatrix.from_dense(rng.random((dim, dim)) < 0.3)
            assert _fallback_product(a, b, BoolMatrix(dim)) == _mult_naive(a, b)

    def test_every_left_bit_hits_an_empty_row(self):
        # column k of a is set only where row k of b is empty: nothing to add
        dim = 130
        a = BoolMatrix.from_cells(dim, [(i, k) for i in range(0, dim, 3) for k in (1, 64, 129)])
        b = BoolMatrix.from_cells(dim, [(k, j) for k in (0, 2, 65) for j in range(dim)])
        held = BoolMatrix.from_cells(dim, [(5, 7)])
        assert _fallback_product(a, b, held.copy()) == held
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
        assert _fallback_product(a, b, held.copy()) == (_mult_naive(a, b) | held)


class TestScatter:
    @pytest.mark.parametrize("dim", KERNEL_DIMS)
    def test_nonzero_cells_matches_dense(self, dim):
        for label, da, _ in _kernel_operands(dim):
            m = BoolMatrix.from_dense(da)
            want = [(int(i), int(j)) for i, j in zip(*np.nonzero(da))]
            assert m.nonzero_cells() == want, label
            assert m.count() == int(da.sum()), label

    @pytest.mark.parametrize("dim", KERNEL_DIMS)
    def test_row_matches_nonzero_cells(self, dim):
        for label, da, _ in _kernel_operands(dim):
            m = BoolMatrix.from_dense(da)
            want = [[] for _ in range(dim)]
            for r, c in m.nonzero_cells():
                want[r].append(c)
            assert [m.row(i) for i in range(dim)] == want, label

    def test_from_cells_with_duplicates(self):
        m = BoolMatrix.from_cells(70, [(3, 64), (3, 64), (3, 0), (69, 69)])
        assert m.nonzero_cells() == [(3, 0), (3, 64), (69, 69)]
        assert BoolMatrix.from_cells(70, []) == BoolMatrix(70)

    def test_symbol_planes_match_cell_by_cell(self, grammars):
        g = grammars["count4"]
        toks = "a b c d".split()
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        T = union(T, matrix_product(T, T, g))
        want = {}
        for (r, c), syms in T.cells.items():
            for s in syms:
                want.setdefault(s, BoolMatrix(sp.dim)).set(r, c)
        got = symbol_planes(T)
        assert set(got) == set(want)
        assert all(got[s] == want[s] for s in want)


def _planes_after_one_product(g, toks):
    sp = enumerate_space(len(toks), full_rank(g))
    T = seed(g, toks, sp)
    return T, union(T, matrix_product(T, T, g)), sp


def _or_planes(*plane_dicts):
    out = {}
    for planes in plane_dicts:
        for s, bits in planes.items():
            out[s] = out[s] | bits if s in out else bits
    return out


class TestFactors:
    def test_lexical_rules_contribute_nothing(self, grammars):
        g = grammars["cfg_anbn"]
        T, T2, sp = _planes_after_one_product(g, ["a", "a", "b", "b"])
        lexical = dataclasses.replace(g, rules=tuple(g.lexical_rules()))
        binary = dataclasses.replace(g, rules=tuple(g.binary_rules()))
        planes = symbol_planes(T)
        assert planes
        stats = {}
        assert plane_product(planes, planes, lexical, sp, stats=stats) == {}
        assert stats.get("muls", 0) == 0
        for chart in (planes, symbol_planes(T2)):
            assert plane_product(chart, chart, g, sp) == plane_product(chart, chart, binary, sp)

    def test_empty_left_operand(self, grammars):
        g = grammars["cfg_anbn"]
        _, T2, sp = _planes_after_one_product(g, ["a", "a", "b", "b"])
        stats = {}
        assert plane_product({}, symbol_planes(T2), g, sp, stats=stats) == {}
        assert stats.get("muls", 0) == 0

    def test_factors_stay_above_diagonal(self, grammars):
        g = grammars["count4"]
        _, T2, sp = _planes_after_one_product(g, ["a", "b", "c", "d"])
        chart = symbol_planes(T2)
        for _ in range(3):
            got = plane_product(chart, chart, g, sp)
            assert got
            for nt, bits in got.items():
                assert all(r < c for r, c in bits.nonzero_cells()), nt
            chart = _or_planes(chart, got)

    def test_space_mismatch_raises(self, grammars):
        g = grammars["cfg_anbn"]
        small = seed(g, ["a", "b"], enumerate_space(2, 1))
        with pytest.raises(ValueError):
            plane_product(symbol_planes(small), {}, g, enumerate_space(3, 1))

    def test_plane_product_matches_cell_by_cell(self, grammars):
        for name, sentence in (("count4", "a b c d"), ("itg_sep", "x y # y x")):
            g = grammars[name]
            T, T2, sp = _planes_after_one_product(g, sentence.split())
            for left, right in ((T, T2), (T2, T), (T2, T2)):
                got = plane_product(symbol_planes(left), symbol_planes(right), g, sp)
                assert got == symbol_planes(matrix_product(left, right, g)), name

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
                old, new = symbol_planes(T), symbol_planes(grown)
                delta = {s: new[s] - old[s] if s in old else new[s] for s in new}
                delta = {s: bits for s, bits in delta.items() if bits.any()}
                full = plane_product(new, new, g, sp)
                part = plane_product(new, new, g, sp, delta=delta)
                label = (name, step)
                assert _or_planes(plane_product(old, old, g, sp), part) == full, label
                assert all((bits - full[s]).count() == 0 for s, bits in part.items()), label
                T = grown
            stats = {}
            plane_product(new, new, g, sp, stats=stats, delta={})
            assert stats.get("muls", 0) == 0


class TestRoleMask:
    def test_matches_cell_by_cell(self, grammars):
        checked = 0
        for name, g in grammars.items():
            d = full_rank(g if is_single_initial(g) else to_single_initial(g))
            for n in range(9):
                sp = enumerate_space(n, d)
                for r in g.binary_rules():
                    for role, cfg in zip((1, 2, 3), configurations(r)):
                        fo2 = 2 * r.fo[role - 1]
                        want = BoolMatrix(sp.dim)
                        for i in sp.addresses:
                            if len(i) != len(cfg):
                                continue
                            for j in sp.addresses:
                                if len(i) + len(j) == fo2 and _role_fits(cfg, fo2, i, j, i):
                                    want.set(sp.ids[i], sp.ids[j])
                        assert rule_mask(sp, r, role) == want, (name, n, r.rid, role)
                        checked += want.any()
        assert checked


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
        planes = symbol_planes(T)
        assert plane_product(planes, planes, g, sp, stats=stats) == symbol_planes(ref)
        assert stats["muls"] > 0

    def test_agrees_on_powers(self, grammars):
        g = grammars["count4"]
        toks = "a b c d".split()
        sp = enumerate_space(len(toks), full_rank(g))
        T = seed(g, toks, sp)
        for _ in range(3):
            ref = matrix_product(T, T, g)
            planes = symbol_planes(T)
            assert plane_product(planes, planes, g, sp) == symbol_planes(ref)
            T = union(T, ref)
