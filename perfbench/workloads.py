"""Seeded operation lists for the three workloads.

Every list is built from ``random.Random("<workload>/<seed>")`` alone, so the
same seed gives the same operations.  The composition of each list is fixed
(how many members, near-misses and random non-members, at which lengths);
the seed only picks the instances inside each stratum and the order.  The
strata are chosen so that operations inside one stratum cost about the same
on today's engine, which keeps the medians and the 75th percentile on the
same kind of operation whatever the seed (see README.md).

Each operation carries its expected verdict and where that verdict came
from: ``construction`` (a closed form or the way the sentence was built) or
``oracle`` (``lcfrs.oracle.tabular_recognize``, which shares no code with
the matrix engine).  No engine output is ever used as a reference.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

WORKLOADS = ("count4-closure", "itg-general", "cli-mixed")

COUNT4_N = 8
ITG_HALF = 3          # u # v with |u| = |v| = 3, so n = 7


@dataclass(frozen=True)
class Op:
    grammar: str                  # bundled grammar name
    tokens: tuple
    expected: bool
    source: str                   # "construction" or "oracle"
    kind: str                     # stratum, for the README and failure reports
    command: str = ""             # cli-mixed only: "parse" or "recognize"


# ---------------------------------------------------------------------------
# closed forms

_COUNT4_RE = re.compile(r"^(a+)(b+)(c+)(d+)$")


def count4_member(tokens) -> bool:
    """a^m b^k c^m d^k with m, k >= 1."""
    m = _COUNT4_RE.match("".join(tokens)) if all(len(t) == 1 for t in tokens) else None
    return bool(m) and len(m.group(1)) == len(m.group(3)) and len(m.group(2)) == len(m.group(4))


def _has_pair(tokens, first, later) -> bool:
    return any(t == first and later in tokens[i + 1:] for i, t in enumerate(tokens))


# ---------------------------------------------------------------------------
# count4-closure

def _count4_block(m: int, k: int) -> list:
    return ["a"] * m + ["b"] * k + ["c"] * m + ["d"] * k


def _count4_random(rng: random.Random, pairs: int) -> tuple:
    """A random non-member of length COUNT4_N with exactly ``pairs`` of the
    two lexical pairings (an a before a c, a b before a d).  Sentences with
    both an "aa" and a "cc" (or "bb" and "dd") are redrawn: they let the
    recursive A/B rules fire and cost like a member, which would blur the
    strata."""
    while True:
        t = tuple(rng.choice("abcd") for _ in range(COUNT4_N))
        s = "".join(t)
        if ("aa" in s and "cc" in s) or ("bb" in s and "dd" in s):
            continue
        if _has_pair(t, "a", "c") + _has_pair(t, "b", "d") != pairs:
            continue
        if not count4_member(t):
            return t


def count4_ops(rng: random.Random) -> list:
    """40 sentences of length 8: 12 members, 6 near-misses, 22 random.

    The counts place the median inside the 16 sentences that cost like a
    random sentence with both pairings, and the 75th percentile inside the
    six copies of the middle member shape, so each quantile rests on many
    operations of one cost spread over the pass."""
    ops = []
    for (m, k), copies in (((1, 3), 3), ((2, 2), 6), ((3, 1), 3)):
        ops += [Op("count4", tuple(_count4_block(m, k)), True, "construction", "member")] * copies
    for m, k in ((2, 2), (3, 1)):
        # one adjacent swap at each block boundary
        for cut in (m - 1, m + k - 1, 2 * m + k - 1):
            t = _count4_block(m, k)
            t[cut], t[cut + 1] = t[cut + 1], t[cut]
            ops.append(Op("count4", tuple(t), False, "construction", "near-miss"))
    for pairs, copies in ((1, 9), (2, 13)):
        for _ in range(copies):
            ops.append(Op("count4", _count4_random(rng, pairs), False,
                          "construction", "random-%d-pair" % pairs))
    for op in ops:
        if count4_member(op.tokens) != op.expected:
            raise AssertionError("count4 list built wrong: %r" % (op,))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# itg-general

def _random_tree(rng: random.Random, lo: int, hi: int, inverted: list):
    """A random binary bracketing of leaves lo..hi-1; returns the target
    order of the leaves, inverting node i when ``inverted`` says so."""
    if hi - lo == 1:
        return [lo]
    mid = rng.randrange(lo + 1, hi)
    left = _random_tree(rng, lo, mid, inverted)
    right = _random_tree(rng, mid, hi, inverted)
    flip = inverted.pop(0)
    return right + left if flip else left + right


def _itg_member(rng: random.Random, outcome: str) -> tuple:
    """u # v where v is u reordered by a random ITG tree.  ``outcome`` picks
    the stratum: "straight" (v == u), "inverted" (v == reversed u) or
    "mixed" (neither), redrawing tree and u until it matches."""
    while True:
        u = [rng.choice("xy") for _ in range(ITG_HALF)]
        if outcome != "mixed" and (len(set(u)) == 1 or u == u[::-1]):
            continue            # v would be both straight and inverted
        flips = {"straight": [0, 0], "inverted": [1, 1]}.get(outcome)
        if flips is None:
            flips = [rng.randrange(2), rng.randrange(2)]
        order = _random_tree(rng, 0, ITG_HALF, list(flips))
        v = [u[i] for i in order]
        got = "straight" if v == u else "inverted" if v == u[::-1] else "mixed"
        if got == outcome:
            return tuple(u + ["#"] + v)


def _itg_mismatch(rng: random.Random) -> tuple:
    """u # v whose halves' x-counts differ by two or more: by construction a
    non-member.  (Halves that differ by one token cost anything from a
    third to all of a member's time, depending on the letters.)"""
    while True:
        u = [rng.choice("xy") for _ in range(ITG_HALF)]
        v = [rng.choice("xy") for _ in range(ITG_HALF)]
        if abs(u.count("x") - v.count("x")) >= 2:
            return tuple(u + ["#"] + v)


# Members with the separator moved one place (same tokens, split wrong), up
# to the x <-> y symmetry, grouped by what they cost on today's engine:
# 195 multiplies ("mid", like a straight member) or 267 ("high", like an
# inverted one).  Decided by the oracle.
_ITG_SHIFTED = {
    "shifted-mid": ("xx#yxxy", "xx#yyxx", "xxyy#xx", "xy#xxyx", "xyxx#yx", "xyyx#yy"),
    "shifted-high": ("xx#xxxx", "xxxx#xx", "xxyx#xy", "xyxx#xy",
                     "xy#yxyy", "xy#yyxy", "xy#yyyx", "xyyy#yx"),
}


def _relabel(rng: random.Random, word: str) -> tuple:
    """The sentence, with x and y swapped on a coin flip."""
    swap = {"x": "y", "y": "x"} if rng.randrange(2) else {}
    return tuple(swap.get(c, c) for c in word)


def itg_ops(rng: random.Random, oracle) -> list:
    """40 sentences of length 7: 14 tree-built members u # v, 12 multiset
    mismatches, 14 separator-shifted near-misses.

    The counts place the median inside the 16 sentences that cost like a
    straight member, and the 75th percentile inside the 8 that cost like an
    inverted one."""
    ops = []
    for outcome, copies in (("straight", 6), ("inverted", 4), ("mixed", 4)):
        for _ in range(copies):
            ops.append(Op("itg_sep", _itg_member(rng, outcome), True,
                          "construction", "member-" + outcome))
    for _ in range(12):
        ops.append(Op("itg_sep", _itg_mismatch(rng), False, "construction", "mismatch"))
    for kind, copies in (("shifted-mid", 10), ("shifted-high", 4)):
        for _ in range(copies):
            t = _relabel(rng, rng.choice(_ITG_SHIFTED[kind]))
            ops.append(Op("itg_sep", t, oracle("itg_sep", t), "oracle", kind))
    for op in ops:
        if op.source == "construction":
            u, v = op.tokens[:ITG_HALF], op.tokens[ITG_HALF + 1:]
            if (sorted(u) == sorted(v)) != op.expected:
                raise AssertionError("itg list built wrong: %r" % (op,))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-mixed

# One pass of cli-mixed: (grammar, command, stratum, sentence, expected).
# The plan is fixed.  The seed fills each "?" with a random token of that
# grammar's alphabet, relabels x <-> y in itg_sep sentences (a symmetry of
# that grammar, so the cost does not move) and shuffles the order.  A
# sentence whose cost depends on its content is written out.  The groups,
# cheapest first, are sized so that the median falls inside the eight
# count4 n=4 calls and the 75th percentile inside the six costliest
# dual_initial_demo calls.  expected None: the oracle decides.
_CLI_PLAN = (
    # cheap: 13 calls of a few ms
    ("cfg_anbn", "parse", "member", "ab", True),
    ("cfg_anbn", "recognize", "member", "aabb", True),
    ("cfg_anbn", "parse", "member", "aaabbb", True),
    ("cfg_anbn", "recognize", "member", "aaaabbbb", True),
    ("cfg_anbn", "parse", "member", "aaaaabbbbb", True),
    ("cfg_anbn", "parse", "odd-length", "???", False),
    ("cfg_anbn", "recognize", "odd-length", "?????", False),
    ("cfg_anbn", "parse", "odd-length", "???????", False),
    ("cfg_anbn", "recognize", "odd-length", "?????????", False),
    ("tag_style", "parse", "member", "xy", True),
    ("tag_style", "recognize", "member", "xy", True),
    ("tag_style", "recognize", "random", "???", False),
    ("tag_style", "parse", "random", "????", False),
    # itg_sep at n=3
    ("itg_sep", "parse", "member", "x#x", True),
    ("itg_sep", "recognize", "member", "x#x", True),
    ("itg_sep", "parse", "mismatch", "x#y", False),
    ("itg_sep", "recognize", "mismatch", "x#y", False),
    # count4 at n=4: the median
    ("count4", "parse", "member", "abcd", True),
    ("count4", "recognize", "member", "abcd", True),
    ("count4", "parse", "member", "abcd", True),
    ("count4", "recognize", "member", "abcd", True),
    ("count4", "parse", "member", "abcd", True),
    ("count4", "recognize", "near-miss", "bacd", False),
    ("count4", "parse", "near-miss", "acbd", False),
    ("count4", "recognize", "near-miss", "abdc", False),
    # between
    ("dual_initial_demo", "parse", "near-miss", "aaaaba", False),
    ("dual_initial_demo", "recognize", "near-miss", "abaaaa", False),
    ("itg_sep", "recognize", "shifted", "xyy#x", None),
    # the six costliest dual_initial_demo calls: the 75th percentile
    ("dual_initial_demo", "parse", "member", "abaaba", True),
    ("dual_initial_demo", "recognize", "member", "abaaba", True),
    ("dual_initial_demo", "parse", "near-miss", "bbaaba", False),
    ("dual_initial_demo", "recognize", "near-miss", "abbaba", False),
    ("dual_initial_demo", "parse", "near-miss", "ababba", False),
    ("dual_initial_demo", "recognize", "near-miss", "abaabb", False),
    # heaviest: count4 n=6 and itg_sep n=5 members
    ("count4", "parse", "member", "abbcdd", True),
    ("count4", "recognize", "member", "abbcdd", True),
    ("count4", "recognize", "member", "aabccd", True),
    ("itg_sep", "parse", "member", "xy#yx", True),
    ("itg_sep", "recognize", "member", "xy#yx", True),
    ("itg_sep", "parse", "member", "xx#xx", True),
)

_ALPHABET = {"cfg_anbn": "ab", "tag_style": "xy"}


def cli_ops(rng: random.Random, oracle) -> list:
    """40 CLI calls over all five bundled grammars, half ``parse`` and half
    ``recognize --json``."""
    ops = []
    for grammar, command, kind, word, expected in _CLI_PLAN:
        if grammar == "itg_sep":
            tokens = _relabel(rng, word)
        else:
            tokens = tuple(rng.choice(_ALPHABET[grammar]) if c == "?" else c for c in word)
        source = "construction"
        if expected is None:
            expected, source = oracle(grammar, tokens), "oracle"
        ops.append(Op(grammar, tokens, expected, source, "%s-%s" % (grammar, kind), command))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, oracle) -> list:
    """The seeded operation list of one workload (one round)."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "count4-closure":
        return count4_ops(rng)
    if workload == "itg-general":
        return itg_ops(rng, oracle)
    if workload == "cli-mixed":
        return cli_ops(rng, oracle)
    raise KeyError("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)))
