"""Three-way fuzz pass: the matrix engine, the tabular oracle and language
enumeration on the random grammars of ``tests/conftest.py::random_grammar``.

For each seed in the range, the grammar the seed draws is run when the
engine accepts it, on every sentence over its alphabet up to the maximum
length, and every sentence the engine accepts has its derivation
extracted.  Every run's facts (``Closure.facts``) are compared with the
tabular oracle's items of the grammar run, the converted grammar when the
engine rewrote it.  The pass prints the number of runnable grammars,
sentences and trees, then each false accept (the engine accepts what the
oracle rejects), each false reject, each bad tree (none, a
``RuntimeError`` from extraction, a root that is not the start symbol over
(0, n), or a text as ``lcfrs parse`` prints it
(``DerivationNode.to_json_text``) that is not ``json.dumps(tree.to_json(),
indent=2)``), each unsound fact (a fact of the run that is no oracle
item) and each sentence with missing facts (an oracle item, start symbol
aside, that is no fact of the run).  Each missing fact is counted in one of
three classes: it has a tied endpoint (two of its endpoints are equal); else
every oracle derivation of it uses a child fact the run also lacks; else
other, which is listed.  It exits 1 on any false accept, bad tree or unsound
fact, or when the tabular oracle and the enumerator disagree; false rejects
and missing facts are reported only.

    python scripts/fuzz_three_way.py --seeds 300 400 --max-len 5
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import fact_items, random_grammar  # noqa: E402
from lcfrs.grammar import is_single_initial, to_single_initial  # noqa: E402
from lcfrs.oracle import (  # noqa: E402
    _instantiate, _word_placements, enumerate_language, tabular_recognize,
)
from lcfrs.recognizer import engine_ready, extract_derivation, run_recognition  # noqa: E402


def _good_tree(result) -> bool:
    """Does an accepted run extract a tree rooted in the start symbol over
    (0, n), which the CLI prints as ``json.dumps`` would?"""
    try:
        tree = extract_derivation(result)
    except RuntimeError:
        return False
    return tree is not None and (tree.nonterminal, tree.spans) == (
        result.grammar.start, ((0, len(result.tokens)),)) and (
        tree.to_json_text() == json.dumps(tree.to_json(), indent=2))


def _missing_class(work, toks, item, items, held) -> str:
    """Why the run of grammar ``work`` on ``toks`` lacks ``item``, one of
    the oracle's ``items``: ``"tied"`` when two of its endpoints are equal,
    ``"child"`` when every derivation of it from ``items`` uses a child
    fact not in ``held``, and ``"other"`` when neither holds."""
    nt, spans = item
    n = len(toks)
    flat = [p for span in spans for p in span]
    if len(set(flat)) < len(flat):
        return "tied"
    for r in work.rules:
        if r.lhs != nt:
            continue
        if not r.is_binary:
            if spans in _word_placements(r.words, toks, n):
                return "other"
            continue
        B, C = r.rhs
        for bs in (s for sym, s in items if sym == B):
            for cs in (s for sym, s in items if sym == C):
                if spans in _instantiate(r, bs, cs, n) and (B, bs) in held and (C, cs) in held:
                    return "other"
    return "child"


def fuzz(seeds: range, max_len: int) -> dict:
    """Run the checks over ``seeds``; the runnable, sentence and tree
    counts and the ``(seed, sentence)`` lists of each failure, one entry per
    fact for unsound facts."""
    out = {"runnable": 0, "sentences": 0, "trees": 0, "false_accepts": [],
           "false_rejects": [], "oracle_disagreements": [], "bad_trees": [],
           "unsound_facts": [], "sentences_missing_facts": [],
           "missing": {"tied": 0, "child": 0, "other": []}}
    for case in seeds:
        g = random_grammar(random.Random(case), d_cap=4)
        if engine_ready(g if is_single_initial(g) else to_single_initial(g)):
            continue
        out["runnable"] += 1
        language = enumerate_language(g, max_len)
        for n in range(1, max_len + 1):
            for toks in itertools.product(sorted(g.terminals), repeat=n):
                out["sentences"] += 1
                result = run_recognition(g, toks)
                engine = result.accepted
                tabular, items = tabular_recognize(g, toks)
                case_toks = (case, " ".join(toks))
                work = result.grammar
                if work is not g:
                    _, items = tabular_recognize(work, toks)
                held = fact_items(result.closure)
                out["unsound_facts"] += [(case, "%s: %s %s" % (case_toks[1], *item))
                                         for item in sorted(held - items)]
                missing = [item for item in sorted(items) if item[0] != work.start
                           and item not in held]
                if missing:
                    out["sentences_missing_facts"].append(case_toks)
                for item in missing:
                    kind = _missing_class(work, toks, item, items, held)
                    if kind == "other":
                        out["missing"]["other"].append(
                            (case, "%s: %s %s" % (case_toks[1], *item)))
                    else:
                        out["missing"][kind] += 1
                if engine:
                    if _good_tree(result):
                        out["trees"] += 1
                    else:
                        out["bad_trees"].append(case_toks)
                if tabular != (toks in language):
                    out["oracle_disagreements"].append(case_toks)
                if engine and not tabular:
                    out["false_accepts"].append(case_toks)
                elif tabular and not engine:
                    out["false_rejects"].append(case_toks)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs=2, type=int, default=(300, 400), metavar=("FIRST", "STOP"),
                    help="the seeds FIRST to STOP - 1 (default 300 400)")
    ap.add_argument("--max-len", type=int, default=5, help="longest sentence (default 5)")
    args = ap.parse_args(argv)
    got = fuzz(range(*args.seeds), args.max_len)
    print("seeds %d-%d, lengths 1-%d: %d runnable grammars, %d sentences, %d trees"
          % (args.seeds[0], args.seeds[1] - 1, args.max_len, got["runnable"], got["sentences"],
             got["trees"]))
    for key in ("false_accepts", "false_rejects", "oracle_disagreements", "bad_trees",
                "unsound_facts", "sentences_missing_facts"):
        print("%s: %d" % (key.replace("_", " "), len(got[key])))
        for case, sentence in got[key]:
            print("  seed %d: %r" % (case, sentence))
    missing = got["missing"]
    print("missing facts: %d tied endpoint, %d child missing, %d other"
          % (missing["tied"], missing["child"], len(missing["other"])))
    for case, fact in missing["other"]:
        print("  seed %d: %r" % (case, fact))
    return int(bool(got["false_accepts"] or got["oracle_disagreements"] or got["bad_trees"]
                    or got["unsound_facts"]))


if __name__ == "__main__":
    sys.exit(main())
