"""One workload run in a fresh, single-threaded process (started by run.py).

Modes:
  setup   import, grammar loading and warm-up only; prints setup_s
  run     setup, then whole passes over the seeded operation list until
          --seconds have gone by; prints the end-to-end figures
  trace   a traced setup, an untraced measuring phase, then a traced one
          with spans around the package's public functions, then the kernel
          layer; prints the per-layer figures

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Op  # noqa: E402

WARM_SENTENCE = {
    # length-n sentences that exercise address space, masks, seed and one
    # closure, and cost almost nothing else
    "count4-closure": ("count4", "d d c c b b a a"),
    "itg-general": ("itg_sep", "# # # # # # #"),
}


# ---------------------------------------------------------------------------
# setup

def setup(workload: str):
    """Import the package and bring the workload to its steady state.
    Returns (lcfrs module, grammar or None, warm-up result or None)."""
    import lcfrs
    import lcfrs.cli  # noqa: F401  (the CLI workload's entry point)

    src = (ROOT / "src").resolve()
    if src not in Path(lcfrs.__file__).resolve().parents:
        raise SystemExit("lcfrs imported from %s, not from %s" % (lcfrs.__file__, src))
    if workload not in WARM_SENTENCE:
        return lcfrs, None, None
    name, sentence = WARM_SENTENCE[workload]
    g = lcfrs.bundled.load(name)
    warm = lcfrs.run_recognition(g, sentence.split())
    return lcfrs, g, warm


# ---------------------------------------------------------------------------
# operations and their checks

class Runner:
    def __init__(self, lcfrs, grammar):
        self.lcfrs = lcfrs
        self.grammar = grammar
        self._loaded = {}

    def prepare(self, op: Op) -> None:
        """Untimed, before each operation.  A CLI call starts cold, as in a
        fresh process: every functools cache in an lcfrs module and every
        module-level dict named ``*_cache`` is emptied (address spaces,
        space masks, copy-symbol cells, rule configurations, mask tables)."""
        if not op.command:
            return
        for name, mod in list(sys.modules.items()):
            if name != "lcfrs" and not name.startswith("lcfrs."):
                continue
            for attr, obj in list(vars(mod).items()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
                elif isinstance(obj, dict) and attr.endswith("_cache"):
                    obj.clear()

    def loaded(self, name: str):
        """A bundled grammar for reference checks (not timed)."""
        g = self._loaded.get(name)
        if g is None:
            g = self._loaded[name] = self.lcfrs.bundled.load(name)
        return g

    def oracle(self, name: str, tokens) -> bool:
        return self.lcfrs.oracle.tabular_recognize(self.loaded(name), tokens)[0]

    def run_grammar(self, name: str):
        """The grammar the engine actually runs (single-initial form)."""
        from lcfrs.grammar import is_single_initial, to_single_initial
        key = name + "/run"
        g = self._loaded.get(key)
        if g is None:
            g = self.loaded(name)
            if not is_single_initial(g):
                g = to_single_initial(g)
            self._loaded[key] = g
        return g

    def execute(self, op: Op):
        if op.command:
            argv = [op.command] + (["--json"] if op.command == "recognize" else []) + \
                ["--grammar", op.grammar, "--sentence", " ".join(op.tokens)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.lcfrs.cli.main(argv)
            return rc, buf.getvalue()
        return self.lcfrs.run_recognition(self.grammar, op.tokens).accepted

    def judge(self, op: Op, out) -> list:
        """Problems with one operation's output (empty when correct)."""
        if isinstance(out, Exception):
            return ["raised %r" % (out,)]
        if not op.command:
            return [] if out is op.expected else ["verdict %r, expected %r" % (out, op.expected)]
        rc, text = out
        want_rc = 0 if op.expected else 1
        if rc != want_rc:
            return ["exit code %r, expected %d" % (rc, want_rc)]
        try:
            doc = json.loads(text)
        except ValueError:
            return ["output is not JSON: %r" % text[:80]]
        if op.command == "recognize":
            if not isinstance(doc, dict) or doc.get("accepted") is not op.expected:
                return ["--json says %r, expected %r" % (doc, op.expected)]
            return []
        if not op.expected:
            return [] if doc is None else ["tree printed for a non-member"]
        return checks.check_derivation(doc, self.run_grammar(op.grammar), op.tokens)


def measure(runner: Runner, ops, seconds: float, after=None):
    """Whole passes over ``ops`` until ``seconds`` have gone by (at least
    one).  Only the operation itself is timed; checks run outside."""
    lat, problems = [], []
    failed = passes = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            runner.prepare(op)
            t0 = time.perf_counter()
            try:
                out = runner.execute(op)
            except Exception as exc:  # a crash is a failed operation
                out = exc
            lat.append(time.perf_counter() - t0)
            errs = runner.judge(op, out)
            if errs:
                failed += 1
                if len(problems) < 5:
                    problems.append("%s %s: %s" % (op.kind, " ".join(op.tokens), "; ".join(errs)))
            if after is not None:
                after(op)
        passes += 1
        if time.perf_counter() - start >= seconds:
            return lat, failed, passes, problems


def self_test(runner: Runner, warm) -> dict:
    """Feed one flipped verdict and one corrupted tree through the same
    checks as the measured operations; both must count as failed, and the
    untouched tree must pass.  Also wrap a name that does not exist: it
    must be reported as absent, and a name that exists must not."""
    tokens = ("a", "a", "b", "b")
    op = Op("cfg_anbn", tokens, True, "construction", "self-test", "parse")
    rc, text = runner.execute(op)
    bad_tree = (rc, json.dumps(checks.corrupt(json.loads(text))))
    if warm is not None:     # library workloads: flip the warm-up verdict
        flipped = Op("", (), not warm.accepted, "construction", "self-test")
        flipped_out = warm.accepted
    else:
        flipped = Op(op.grammar, tokens, False, op.source, op.kind, op.command)
        flipped_out = (rc, text)
    clean = not runner.judge(op, (rc, text))
    caught = [bool(runner.judge(flipped, flipped_out)), bool(runner.judge(op, bad_tree))]
    tracer = Tracer()
    tracer.wrap("lcfrs.recognizer:no_such_layer", "absent.example")
    tracer.wrap("lcfrs.recognizer:pi_copy", "engine.pi_copy")
    tracer.unwrap_all()
    caught.append(tracer.absent == ["lcfrs.recognizer.no_such_layer"])
    return {"attempted": len(caught), "failed": sum(caught), "clean_tree_passes": clean,
            "ok": clean and all(caught)}


def _quantile(values, q):
    return statistics.quantiles(values, n=4)[q - 1] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# tracing

def install(tracer: Tracer) -> None:
    """Spans around public functions, at the names their callers use."""
    import numpy as np

    def dim_hook(t, args, space):
        t.peak("addresses.dim", space.dim)

    def closure_hook(t, args, clo):
        t.count("recognizer.closure.iterations", clo.iterations)

    samples = tracer.samples = []

    def kernel_hook(t, args, _):
        a, b, out = args[:3]
        bits = int(np.bitwise_count(a).sum())
        t.count("boolmat.kernel.word_ors", bits * b.shape[1])
        t.count("boolmat.kernel.bytes", a.nbytes + b.nbytes + out.nbytes)
        t.count("kernel.calls")
        if t.counts["kernel.calls"] % 25 == 1 and len(samples) < 12:
            samples.append((a.copy(), b.copy()))

    def hooked(fn):
        # hook work sits in its own span, so it is not charged to a layer
        return lambda t, args, res: t.span("trace.hook", fn, t, args, res)

    for target, name, hook in (
        ("lcfrs.recognizer:enumerate_space", "addresses.enumerate_space", dim_hook),
        ("lcfrs.grammar:parse_grammar", "grammar.parse_grammar", None),
        ("lcfrs.recognizer:analyze", "grammar.analyze", None),
        ("lcfrs.recognizer:to_single_initial", "grammar.to_single_initial", None),
        ("lcfrs.recognizer:tables_for", "boolmat.tables_for", None),
        ("lcfrs.boolmat:EngineTables", "boolmat.EngineTables", None),
        ("lcfrs.recognizer:seed", "engine.seed", None),
        ("lcfrs.recognizer:union", "engine.union", None),
        ("lcfrs.recognizer:product_via_boolean", "boolmat.product_via_boolean", None),
        ("lcfrs.boolmat:symbol_planes", "boolmat.symbol_planes", None),
        ("lcfrs.boolmat:bool_multiply", "boolmat.bool_multiply", None),
        ("lcfrs.boolmat:_kernel.multiply_packed", "boolmat.kernel", kernel_hook),
        ("lcfrs.recognizer:closure_fixpoint", "recognizer.closure", closure_hook),
        ("lcfrs.recognizer:pi_copy", "engine.pi_copy", None),
        ("lcfrs.cli:extract_derivation", "recognizer.extract_derivation", None),
        ("lcfrs.cli:main", "cli.main", None),
        ("lcfrs.oracle:tabular_recognize", "oracle.tabular_recognize", None),
    ):
        tracer.wrap(target, name, hooked(hook) if hook else None)


def kernel_layer(samples):
    """Time the kernels on multiply operands recorded from this workload's
    engine, and check compiled (if built), fallback and naive agree bit for
    bit.  Returns ({metric: value}, shape of each sample); a kernel that
    is not built reads 0."""
    import numpy as np
    from lcfrs import boolmat, _matmul_fallback
    try:
        from lcfrs import _matmul_kernel as compiled
    except ImportError:
        compiled = None

    def per_mul(mod):
        if mod is None or not samples:
            return None, None
        best, outs = [], []
        for a, b in samples:
            times = []
            for _ in range(3):
                out = np.zeros_like(a)
                t0 = time.perf_counter()
                mod.multiply_packed(a, b, out)
                times.append(time.perf_counter() - t0)
            best.append(min(times))
            outs.append(out)
        return statistics.median(best) * 1000, outs

    active_ms, active_out = per_mul(boolmat._kernel)
    fallback_ms, fallback_out = per_mul(_matmul_fallback)
    compiled_ms, compiled_out = per_mul(compiled)
    agree = all(np.array_equal(x, y) for x, y in zip(active_out or [], fallback_out or []))
    if compiled_out is not None:
        agree = agree and all(np.array_equal(x, y) for x, y in zip(compiled_out, fallback_out))
    naive = []
    for (a, b), want in list(zip(samples, fallback_out or []))[:2]:
        dim = a.shape[0]
        t0 = time.perf_counter()
        got = boolmat.bool_multiply(boolmat.BoolMatrix(dim, a), boolmat.BoolMatrix(dim, b), "naive")
        naive.append(time.perf_counter() - t0)
        agree = agree and np.array_equal(got.words, want)
    shapes = [{"dim": a.shape[0],
               "bits_per_row": int(np.bitwise_count(a).sum()) / a.shape[0]}
              for a, _ in samples]
    return {
        "kernel.active.ms_per_mul": active_ms or 0.0,
        "kernel.fallback.ms_per_mul": fallback_ms or 0.0,
        "kernel.compiled.ms_per_mul": compiled_ms or 0.0,
        "kernel.naive.ms_per_mul": statistics.median(naive) * 1000 if naive else 0.0,
        "kernel.agree": int(agree and bool(samples)),
    }, shapes


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    totals = tracer.totals()

    def ms(name, self_time=False):
        row = totals.get(name)
        return row[2 if self_time else 1] * 1000 / passes if row else 0.0

    def calls(name):
        row = totals.get(name)
        return row[0] / passes if row else 0

    def count(name):
        return tracer.counts.get(name, 0) / passes

    return {
        "addresses.enumerate_space.ms": ms("addresses.enumerate_space"),
        "addresses.dim": tracer.maxima.get("addresses.dim", 0),
        "grammar.parse_grammar.ms": ms("grammar.parse_grammar"),
        "grammar.analyze.ms": ms("grammar.analyze"),
        "grammar.to_single_initial.ms": ms("grammar.to_single_initial"),
        "boolmat.tables_for.ms": ms("boolmat.tables_for"),
        "boolmat.tables_built": calls("boolmat.EngineTables"),
        "engine.seed.ms": ms("engine.seed"),
        "engine.union.ms": ms("engine.union"),
        "boolmat.symbol_planes.ms": ms("boolmat.symbol_planes"),
        "boolmat.product_via_boolean.self_ms": ms("boolmat.product_via_boolean", True),
        "boolmat.bool_multiply.calls": calls("boolmat.bool_multiply"),
        "boolmat.kernel.ms": ms("boolmat.kernel"),
        "boolmat.kernel.word_ors": count("boolmat.kernel.word_ors"),
        "boolmat.kernel.bytes": count("boolmat.kernel.bytes"),
        "recognizer.closure.ms": ms("recognizer.closure"),
        "recognizer.closure.iterations": count("recognizer.closure.iterations"),
        "recognizer.outer_iterations": calls("recognizer.closure"),
        "engine.pi_copy.ms": ms("engine.pi_copy"),
        "engine.pi_copy.calls": calls("engine.pi_copy"),
        "recognizer.extract_derivation.ms": ms("recognizer.extract_derivation"),
        "cli.main.self_ms": ms("cli.main", True),
        "oracle.tabular_recognize.ms": ms("oracle.tabular_recognize"),
        "trace.hook.ms": ms("trace.hook"),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    if args.mode == "trace":
        # trace set-up too, so the layers it exercises show their real cost
        # (later passes find address spaces and mask tables cached)
        set_up = Tracer()
        install(set_up)
        set_up.active = True
    t0 = time.perf_counter()
    lcfrs, grammar, warm = setup(args.workload)
    setup_s = time.perf_counter() - t0
    if args.mode == "trace":
        set_up.active = False
        set_up.unwrap_all()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(lcfrs, grammar)
    selftest = self_test(runner, warm)
    result = {"kernel_kind": lcfrs.KERNEL_KIND, "setup_s": setup_s, "self_test": selftest}
    ops = workloads.build(args.workload, args.seed, runner.oracle)
    result["ops_per_pass"] = len(ops)
    result["kinds"] = sorted({op.kind for op in ops})
    if args.mode == "run":
        lat, failed, passes, problems = measure(runner, ops, args.seconds)
        result.update(
            attempted=len(lat), failed=failed, passes=passes, problems=problems,
            sentences_per_s=len(lat) / sum(lat),
            sentence_p50_ms=statistics.median(lat) * 1000,
            sentence_p75_ms=_quantile(lat, 3) * 1000,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        print(json.dumps(result))
        return 0

    # trace: untraced phase, then the same operations traced
    plain, failed, _, problems = measure(runner, ops, args.seconds / 2)
    tracer = Tracer()
    install(tracer)
    for op in ops:               # load reference grammars before tracing
        runner.loaded(op.grammar)

    def reference(op):
        lcfrs.oracle.tabular_recognize(runner.loaded(op.grammar), op.tokens)

    tracer.active = True
    traced, tfailed, passes, tproblems = measure(runner, ops, args.seconds / 2, after=reference)
    tracer.active = False
    tracer.unwrap_all()
    layers = layer_metrics(tracer, passes)
    setup_layers = layer_metrics(set_up, 1)
    for name in ("addresses.enumerate_space.ms", "boolmat.tables_for.ms",
                 "boolmat.tables_built"):
        layers["setup." + name] = setup_layers[name]
    oracle_ms = layers["oracle.tabular_recognize.ms"] / len(ops)
    kernels, result["kernel_samples"] = kernel_layer(tracer.samples)
    layers.update(kernels)
    untraced_ms = statistics.mean(plain) * 1000
    traced_ms = statistics.mean(traced) * 1000
    layers.update({
        "oracle.engine_to_tabular": untraced_ms / oracle_ms if oracle_ms else 0.0,
        "trace.sentence_ms_untraced": untraced_ms,
        "trace.sentence_ms_traced": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1) * 100,
        "trace.absent": len(tracer.absent),
    })
    if args.trace_file:
        tracer.write(args.trace_file)
    result.update(attempted=len(plain) + len(traced), failed=failed + tfailed,
                  passes=passes, problems=problems + tproblems, layers=layers,
                  absent=tracer.absent, kernel_agree=layers["kernel.agree"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
