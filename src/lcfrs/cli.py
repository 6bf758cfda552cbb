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
    print(extract_derivation(res).to_json_text())
    return 0


_GRAMMAR = (("--grammar",), {
    "required": True,
    "help": "grammar file or bundled name (%s)" % ", ".join(bundled.NAMES)})
_SENTENCE = (("--sentence",), {
    "required": True, "help": "whitespace-separated tokens; @FILE reads a file"})
_JSON = (("--json",), {"action": "store_true"})

# subcommand -> (help, handler, arguments); both parsers are built from it
_COMMANDS = {
    "analyze": ("report fan-out, contact rank, balance, exponents", _cmd_analyze, (
        _GRAMMAR, _JSON, (("--omega",), {"type": float, "default": DEFAULT_OMEGA}))),
    "recognize": ("ACCEPT/REJECT a sentence", _cmd_recognize, (
        _GRAMMAR, _SENTENCE, _JSON,
        (("--engine",), {"choices": ("matmul", "tabular"), "default": "matmul"}))),
    "parse": ("emit a derivation tree as JSON", _cmd_parse, (_GRAMMAR, _SENTENCE)),
}


def _add_command(p, cmd: str):
    _, fn, arguments = _COMMANDS[cmd]
    for flags, kwargs in arguments:
        p.add_argument(*flags, **kwargs)
    p.set_defaults(fn=fn)
    return p


def _full_parser():
    ap = argparse.ArgumentParser(
        prog="lcfrs",
        description="Recognition for binary LCFRS by matrix transitive closure.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, (help_, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(cmd, help=help_), cmd)
    return ap


def _parse_args(argv):
    """A call that names a subcommand builds that subcommand's parser alone,
    the parser the full tree would hand it to.  Leftover arguments are
    reported by the top parser, and every other call (help, no arguments,
    an unknown subcommand) goes to it too, so the output is the same."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        one = _add_command(argparse.ArgumentParser(prog="lcfrs " + argv[0]), argv[0])
        args, rest = one.parse_known_args(argv[1:])
        if not rest:
            return args
    return _full_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
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
    # ValueError covers GrammarError and EngineUnsupported.  Internal faults
    # are caught too (an inconsistent chart, RecursionError, MemoryError):
    # left to escape, they would exit 1, which reads as REJECT
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
