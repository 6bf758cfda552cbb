"""Command-line front end: analyze | recognize | parse.

Exit codes: 0 accept (or success for analyze), 1 reject (or stdout closed
by its reader), 2 error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bundled
from .engine import EngineUnsupported
from .grammar import DEFAULT_OMEGA, GrammarError, analyze, parse_grammar
from .oracle import tabular_recognize
from .recognizer import extract_derivation, run_recognition


def _load_grammar(source: str):
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            return parse_grammar(fh.read())
    if source in bundled.NAMES:
        return bundled.load(source)
    raise GrammarError(
        "grammar %r is neither a file nor a bundled name (%s)"
        % (source, ", ".join(bundled.NAMES))
    )


def _tokens(arg: str):
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            arg = fh.read()
    return arg.split()


def _cmd_analyze(args) -> int:
    g = _load_grammar(args.grammar)
    report = analyze(g, args.omega)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0
    print("max fan-out f = %d" % report.f)
    print("contact rank d = %d" % report.d)
    print("balanced = %s" % ("yes" if report.balanced else "no"))
    print("single-initial = %s" % ("yes" if report.single_initial else "no"))
    by_rid = {r.rid: r for r in g.rules}
    for pr in report.per_rule:
        print("rule %d (%s): delta=%d d=%d" % (pr.rid, by_rid[pr.rid], pr.delta, pr.d))
    print(
        "predicted matmul exponent = %.4f  (omega=%g, d=%d%s)"
        % (
            report.predicted_matmul_exponent,
            report.omega,
            report.d,
            ", +1 balanced" if report.balanced else "",
        )
    )
    print("runtime rank = %d" % report.runtime_rank)
    print("predicted matmul exponent at runtime rank = %.4f" % report.runtime_exponent)
    print("tabular exponent = %d" % report.tabular_exponent)
    return 0


def _cmd_recognize(args) -> int:
    g = _load_grammar(args.grammar)
    tokens = _tokens(args.sentence)
    if args.engine == "tabular":
        accepted, chart = tabular_recognize(g, tokens)
        stats = {"engine": "tabular", "facts": len(chart)}
    else:
        res = run_recognition(g, tokens)
        accepted, stats = res.accepted, dict(res.stats, engine="matmul")
    if args.json:
        print(json.dumps({"sentence": tokens, "accepted": accepted, "stats": stats}))
    else:
        print("ACCEPT" if accepted else "REJECT")
    return 0 if accepted else 1


def _cmd_parse(args) -> int:
    g = _load_grammar(args.grammar)
    tokens = _tokens(args.sentence)
    res = run_recognition(g, tokens)
    if not res.accepted:
        print("null")
        return 1
    tree = extract_derivation(res.closure, res.grammar, tokens)
    print(json.dumps(tree.to_json(), indent=2))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="lcfrs",
        description="Recognition for binary LCFRS by matrix transitive closure.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, sentence=False):
        p.add_argument("--grammar", required=True,
                       help="grammar file or bundled name (%s)" % ", ".join(bundled.NAMES))
        if sentence:
            p.add_argument("--sentence", required=True,
                           help="whitespace-separated tokens; @FILE reads a file")

    p = sub.add_parser("analyze", help="report fan-out, contact rank, balance, exponents")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--omega", type=float, default=DEFAULT_OMEGA)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("recognize", help="ACCEPT/REJECT a sentence")
    common(p, sentence=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--engine", choices=("matmul", "tabular"), default="matmul")
    p.set_defaults(fn=_cmd_recognize)

    p = sub.add_parser("parse", help="emit a derivation tree as JSON")
    common(p, sentence=True)
    p.set_defaults(fn=_cmd_parse)

    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()      # so that a closed pipe shows up here
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``lcfrs parse ... | head``): not an
        # error; point stdout at devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (GrammarError, EngineUnsupported, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
