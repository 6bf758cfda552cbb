import hashlib
import random
import re

import pytest

from lcfrs.addresses import cell_endpoints, enumerate_space, splits_of_endpoints
from lcfrs.grammar import configurations, parse_grammar, to_single_initial
from lcfrs.oracle import ProductMatrix, cell_product, matrix_product, pi_copy, seed
from lcfrs.recognizer import engine_ready

from conftest import chart_of, random_grammar, union

CFG_AB = "start S\nS -> A B : b1 g1\nA -> : 'a'\nB -> : 'b'\n"


def spans_of(i, j):
    """The (left, right) spans a row and a column address denote, or None
    when their merge is undefined."""
    flat = cell_endpoints(i, j)
    return None if flat is None else tuple(zip(flat[::2], flat[1::2]))


def facts(matrix):
    """{(row address, col address, symbol)} over nonempty cells."""
    addrs = matrix.space.addresses
    return {
        (addrs[r], addrs[c], s)
        for (r, c), syms in matrix.cells.items()
        for s in syms
    }


class TestSeed:
    def test_scan_covers_every_equivalent_cell(self, grammars):
        g = grammars["count4"]
        sp = enumerate_space(4, 3)
        T = seed(g, ["a", "b", "c", "d"], sp)
        # 'a'...'c' can only sit at spans (0,1) and (2,3)
        want = ((0, 1), (2, 3))
        for i in sp.addresses:
            for j in sp.addresses:
                spans = spans_of(i, j)
                if spans is None:
                    continue
                has = "X" in T.get(sp.ids[i], sp.ids[j])
                assert has == (spans == want), (i, j)

    def test_empty_span_words_anchor_anywhere_rightward(self, grammars):
        g = grammars["itg_sep"]
        sp = enumerate_space(3, 3)
        T = seed(g, ["x", "#", "y"], sp)
        got = {(i, j) for i, j, s in facts(T) if s == "M"}
        spans_seen = {spans_of(i, j) for i, j in got}
        assert ((1, 2), (2, 2)) in spans_seen
        assert ((1, 2), (3, 3)) in spans_seen
        assert all(s[0] == (1, 2) for s in spans_seen)

    def test_no_match_no_fact(self, grammars):
        g = grammars["count4"]
        sp = enumerate_space(2, 3)
        T = seed(g, ["a", "a"], sp)
        assert not [f for f in facts(T) if f[2] == "B"]

    def test_strictly_upper_triangular(self, grammars):
        g = grammars["count4"]
        sp = enumerate_space(3, 3)
        T = seed(g, ["a", "b", "c"], sp)
        assert T.is_upper_triangular()
        assert all((r, c) for (r, c) in T.cells if r < c)


class TestCellProduct:
    def test_binary_rule_fires(self, grammars):
        g = grammars["cfg_anbn"]
        got = cell_product({"A"}, {"B"}, (0,), (1,), (2,), g)
        assert got == {"S"}
        # no rule combines A with S
        assert cell_product({"A"}, {"S"}, (0,), (1,), (3,), g) == set()

    def test_empty_operands(self, grammars):
        g = grammars["cfg_anbn"]
        assert cell_product(set(), {"S"}, (0,), (1,), (2,), g) == set()
        assert cell_product({"A"}, set(), (0,), (1,), (2,), g) == set()


class TestMatrixProduct:
    def test_cfg_sentence(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(2, 1)
        T = seed(g, ["a", "b"], sp)
        P = matrix_product(T, T, g)
        assert "S" in P.get(sp.ids[(0,)], sp.ids[(2,)])

    def test_space_mismatch_raises(self, grammars):
        g = grammars["cfg_anbn"]
        T1 = ProductMatrix(enumerate_space(2, 1))
        T2 = ProductMatrix(enumerate_space(3, 1))
        with pytest.raises(ValueError):
            matrix_product(T1, T2, g)

    def test_annihilates_empty(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(2, 1)
        T = seed(g, ["a", "b"], sp)
        empty = ProductMatrix(sp)
        assert matrix_product(T, empty, g).fact_count() == 0
        assert matrix_product(empty, T, g).fact_count() == 0

    def _random_submatrix(self, rng, pool):
        out = ProductMatrix(pool.space)
        for cell, syms in pool.cells.items():
            chosen = {s for s in syms if rng.random() < 0.6}
            if chosen and rng.random() < 0.8:
                out.cells[cell] = chosen
        return out

    def test_distributes_over_union(self, grammars):
        g = grammars["count4"]
        sp = enumerate_space(4, 3)
        T = seed(g, ["a", "b", "c", "d"], sp)
        pool = union(T, matrix_product(T, T, g))
        rng = random.Random(5)
        for _ in range(3):
            M1 = self._random_submatrix(rng, pool)
            M2 = self._random_submatrix(rng, pool)
            M3 = self._random_submatrix(rng, pool)
            left = matrix_product(M1, union(M2, M3), g)
            split = union(matrix_product(M1, M2, g), matrix_product(M1, M3, g))
            assert left == split
            right = matrix_product(union(M1, M2), M3, g)
            split2 = union(matrix_product(M1, M3, g), matrix_product(M2, M3, g))
            assert right == split2

    def test_union_idempotent_commutative(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(2, 1)
        T = seed(g, ["a", "b"], sp)
        P = matrix_product(T, T, g)
        assert union(T, T) == T
        assert union(T, P) == union(P, T)


class TestPiCopy:
    def test_fact_reaches_every_equivalent_split(self):
        sp = enumerate_space(8, 3)
        T = ProductMatrix(sp)
        T.add(sp.ids[(1, 8)], sp.ids[(2, 7)], "B")
        pi = pi_copy(T)
        for row, col in splits_of_endpoints((1, 2, 7, 8), 3):
            assert "B" in pi.get(sp.ids[row], sp.ids[col])

    def test_idempotent(self):
        sp = enumerate_space(6, 2)
        T = ProductMatrix(sp)
        T.add(sp.ids[(0, 3)], sp.ids[(1, 2)], "Z")
        once = pi_copy(T)
        assert pi_copy(once) == once


class TestFirstEndpoint:
    def test_first_child_and_result_row_keep_endpoint_1(self, grammars):
        # every rule's first template starts with b1, so endpoint 1 is on
        # the surface of both the first child and the head: neither address
        # can be empty, and ``engine_ready`` does not check them
        cases = list(grammars.values())
        cases += [random_grammar(random.Random(seed), d_cap=4) for seed in range(300)]
        checked = 0
        for g in cases:
            for h in (g, to_single_initial(g)):
                for r in h.binary_rules():
                    cfg1, cfg2, _ = configurations(r)
                    assert 1 in cfg1 and 1 in cfg2, (h.start, str(r))
                    checked += 1
        assert checked > 600


class TestEngineReady:
    def test_bundled_grammars_run(self, grammars):
        for name in ("cfg_anbn", "count4", "tag_style", "itg_sep"):
            assert engine_ready(grammars[name]) == [], name

    def test_dual_initial_rejected(self, grammars):
        problems = engine_ready(grammars["dual_initial_demo"])
        assert any("single-initial" in p for p in problems)

    def test_absorbed_result_rejected(self):
        # the head keeps every endpoint, which would leave an empty column
        # address; the second child is then fully absorbed, and that one
        # check refuses the rule
        g = parse_grammar(
            "start S\nS -> Z M : b1 g1 b2\n"
            "Z -> : 'x' , 'x'\nM -> : '#'\n"
        )
        assert engine_ready(g) == [
            "rule 0: second child is fully absorbed (no surface endpoint)"]


class TestDump:
    def test_line_format_and_order(self, grammars):
        g = grammars["cfg_anbn"]
        sp = enumerate_space(2, 1)
        T = seed(g, ["a", "b"], sp)
        lines = T.dump().splitlines()
        assert lines
        assert all(re.fullmatch(r"[^|]+ \| [^|]+ \| .+", ln) for ln in lines)
        assert lines == ["0 | 1 | A", "1 | 2 | B"]
        by_str = {",".join(map(str, a)): t for t, a in enumerate(sp.addresses)}
        cells = [
            (by_str[ln.split(" | ")[0]], by_str[ln.split(" | ")[1]])
            for ln in lines
        ]
        assert cells == sorted(cells)

    def test_bundled_charts_unchanged(self, grammars):
        # the published charts, dumped, are fixed figures: they must not
        # depend on how symbols hash
        from lcfrs.recognizer import run_recognition

        want = {
            ("count4", "a b c d"): (
                6, "acf8c066708dc1fa40e17a016a1ad5ee496737c01df99741cc3f92b2ce812581"),
            ("itg_sep", "x y # y x"): (
                14, "018f5e171d8b700a276c0aeb4055097e38ece1614aa666b02f1fbf1bff07ab70"),
        }
        for (name, sentence), (lines, digest) in want.items():
            clo = run_recognition(grammars[name], sentence.split()).closure
            text = chart_of(clo.chart, clo.symbol_ids, clo.space).dump()
            assert len(text.splitlines()) == lines, name
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name
