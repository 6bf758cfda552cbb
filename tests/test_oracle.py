import importlib.util
import itertools
import os

import pytest

from lcfrs import bundled

from lcfrs.grammar import parse_grammar
from lcfrs.oracle import enumerate_language, tabular_recognize

EMPTY_LANG = "start S\nS -> A B : b1 g1\nA -> A B : b1 g1\nB -> : 'b'\n"


def count4_closed_form(toks):
    """a^m b^k c^m d^k with m, k >= 1."""
    s = "".join(toks)
    m = len(s) - len(s.lstrip("a"))
    rest = s[m:]
    k = len(rest) - len(rest.lstrip("b"))
    return (
        m >= 1
        and k >= 1
        and s == "a" * m + "b" * k + "c" * m + "d" * k
    )


class TestTabular:
    def test_cfg_examples(self, grammars):
        g = grammars["cfg_anbn"]
        assert tabular_recognize(g, "a a b b".split())[0]
        assert not tabular_recognize(g, "a b a".split())[0]
        assert not tabular_recognize(g, [])[0]

    def test_count4_matches_closed_form(self, grammars):
        g = grammars["count4"]
        for length in range(1, 7):
            for toks in itertools.product("abcd", repeat=length):
                got, _ = tabular_recognize(g, toks)
                assert got == count4_closed_form(toks), toks

    def test_itg_examples(self, grammars):
        g = grammars["itg_sep"]
        assert tabular_recognize(g, "x y # y x".split())[0]
        assert tabular_recognize(g, "x # x".split())[0]
        assert not tabular_recognize(g, "x # y".split())[0]
        assert not tabular_recognize(g, "x y #".split())[0]

    def test_item_set_is_exact(self, grammars):
        g = grammars["cfg_anbn"]
        accepted, items = tabular_recognize(g, ["a", "b"])
        assert accepted
        assert items == frozenset(
            {
                ("A", ((0, 1),)),
                ("B", ((1, 2),)),
                ("S", ((0, 2),)),
            }
        )

    def test_discontinuous_items_recorded(self, grammars):
        g = grammars["count4"]
        _, items = tabular_recognize(g, "a b c d".split())
        assert ("A", ((0, 1), (2, 3))) in items
        assert ("B", ((1, 2), (3, 4))) in items

    def test_empty_language_rejects_all(self):
        g = parse_grammar(EMPTY_LANG)
        for toks in itertools.product("b", repeat=3):
            assert not tabular_recognize(g, toks)[0]


class TestEnumerate:
    def test_cfg_language_to_six(self, grammars):
        got = enumerate_language(grammars["cfg_anbn"], 6)
        assert got == {
            ("a", "b"),
            ("a", "a", "b", "b"),
            ("a", "a", "a", "b", "b", "b"),
        }

    def test_demo_is_a_singleton(self, grammars):
        got = enumerate_language(grammars["dual_initial_demo"], 6)
        assert got == {("a", "b", "a", "a", "b", "a")}

    def test_count4_matches_closed_form(self, grammars):
        got = enumerate_language(grammars["count4"], 6)
        want = {
            toks
            for length in range(1, 7)
            for toks in itertools.product("abcd", repeat=length)
            if count4_closed_form(toks)
        }
        assert got == want

    def test_empty_language(self):
        assert enumerate_language(parse_grammar(EMPTY_LANG), 5) == set()

    def test_length_guard(self, grammars):
        with pytest.raises(ValueError):
            enumerate_language(grammars["cfg_anbn"], 13)

    def test_agrees_with_tabular(self, grammars):
        g = grammars["itg_sep"]
        lang = enumerate_language(g, 5)
        for u in itertools.product("xy", repeat=2):
            toks = list(u) + ["#"] + list(reversed(u))
            assert (tuple(toks) in lang) == tabular_recognize(g, toks)[0]


def _scale_script():
    """``scripts/scale.py``, loaded as a module."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "scale.py")
    spec = importlib.util.spec_from_file_location("scale", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestScalingFamilies:
    def test_the_swap_is_a_near_miss(self):
        # each family's construction at n = 7-8 is a member, and its swap
        # at n//2 - 1, n//2, which scripts/scale.py times, is not
        scale = _scale_script()
        checked = set()
        for family, (name, sentence, _) in scale.FAMILIES.items():
            g = bundled.load(name)
            for n in (7, 8):
                toks = sentence(n)
                if len(toks) != n:
                    continue
                assert tabular_recognize(g, toks)[0], (family, toks)
                miss = scale.near_miss(toks)
                assert sorted(miss) == sorted(toks) and miss != toks, (family, miss)
                assert not tabular_recognize(g, miss)[0], (family, miss)
                checked.add(family)
        assert checked == set(scale.FAMILIES)
