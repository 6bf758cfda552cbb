"""Scaling points: how a whole recognition grows with sentence length.

Each family is a bundled grammar and a construction of one of its members
at a given length n.  For every (family, n) point the script measures

* ``warm_ms``: the best of ``warm_k`` calls of ``run_recognition`` on a
  grammar and address space that earlier calls have warmed;
* ``cold_ms``: one call after every functools cache of an ``lcfrs`` module
  and every module-level dict named ``*_cache`` is emptied, as
  ``perfbench/worker.py::Runner.prepare`` empties them before a CLI call,
  on a freshly parsed grammar;
* ``peak_rss_mb``: the peak resident set of one fresh process that parses
  the grammar and runs the sentence once;

with the run's ``facts`` (chart bits), ``rounds`` (closure iterations) and
verdict.  Every constructed sentence is a member, so a rejection fails the
script.  One point per (family, n) is appended to ``BENCH_scaling.json``
with the commit it measured, and the log-log slope of ``warm_ms`` in n is
printed per family beside ``analyze(g).runtime_exponent``.

    python scripts/scale.py                  # every point, about a minute
    python scripts/scale.py --smallest --out /tmp/scale.json   # smoke run
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from lcfrs import bundled  # noqa: E402
from lcfrs.grammar import analyze  # noqa: E402
from lcfrs.recognizer import run_recognition  # noqa: E402


def _alternating(h: int) -> list:
    return (["x", "y"] * h)[:h]


# family: (bundled grammar, sentence of length n, the lengths measured)
FAMILIES = {
    "count4 a^m b^m c^m d^m": (
        "count4", lambda n: [t for t in "abcd" for _ in range(n // 4)], (16, 32, 64, 96, 128)),
    "itg_sep u # reverse(u)": (
        "itg_sep", lambda n: _alternating(n // 2) + ["#"] + _alternating(n // 2)[::-1],
        (15, 31, 63)),
    "itg_sep x^h # x^h": (
        "itg_sep", lambda n: ["x"] * (n // 2) + ["#"] + ["x"] * (n // 2), (63,)),
    "cfg_anbn a^m b^m": (
        "cfg_anbn", lambda n: ["a"] * (n // 2) + ["b"] * (n // 2), (64, 200)),
}

# one run in a fresh process; prints its peak RSS in MB.  Linux keeps the
# getrusage peak of the process that started it across exec, so the
# fresh address space's own peak, VmHWM, is read where there is one
_FRESH = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from lcfrs import bundled
from lcfrs.recognizer import run_recognition
if not run_recognition(bundled.load(sys.argv[2]), sys.argv[3].split()).accepted:
    sys.exit("a member was rejected")
try:
    with open("/proc/self/status") as fh:
        print(next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024)
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def clear_caches() -> None:
    """Empty what a fresh process would not hold, as ``Runner.prepare``
    does before each CLI call."""
    for name, mod in list(sys.modules.items()):
        if name != "lcfrs" and not name.startswith("lcfrs."):
            continue
        for attr, obj in list(vars(mod).items()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
            elif isinstance(obj, dict) and attr.endswith("_cache"):
                obj.clear()


def measure(name: str, toks: list) -> dict:
    """One point's figures for grammar ``name`` on ``toks``."""
    clear_caches()
    g = bundled.load(name)
    t0 = time.perf_counter()
    res = run_recognition(g, toks)
    cold = time.perf_counter() - t0
    if not res.accepted:
        raise SystemExit("%s rejected a member of length %d" % (name, len(toks)))
    warm = []
    # at least 3 calls, and more while they take under a second in all
    while len(warm) < 3 or (sum(warm) < 1.0 and len(warm) < 60):
        t0 = time.perf_counter()
        run_recognition(g, toks)
        warm.append(time.perf_counter() - t0)
    fresh = subprocess.run([sys.executable, "-c", _FRESH, SRC, name, " ".join(toks)],
                           check=True, capture_output=True, text=True)
    return {"warm_ms": min(warm) * 1e3, "warm_k": len(warm), "cold_ms": cold * 1e3,
            "peak_rss_mb": float(fresh.stdout), "facts": res.stats["facts"],
            "rounds": res.stats["iterations"], "accepted": res.accepted,
            "rank": res.stats["rank"], "kernel": res.stats["kernel"]}


def slope(points: list) -> float | None:
    """The least-squares slope of log warm_ms against log n."""
    if len(points) < 2:
        return None
    x = [math.log(p["n"]) for p in points]
    y = [math.log(p["warm_ms"]) for p in points]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smallest", action="store_true",
                    help="measure only each family's smallest n")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_scaling.json"),
                    help="the JSON file the points are appended to")
    args = ap.parse_args(argv)
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or "unknown"
    host = {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}
    points = []
    print("%-24s %5s %10s %10s %8s %9s %7s" % ("family", "n", "warm ms", "cold ms", "RSS MB",
                                               "facts", "rounds"))
    for family, (name, sentence, lengths) in FAMILIES.items():
        for n in lengths[:1] if args.smallest else lengths:
            toks = sentence(n)
            assert len(toks) == n, (family, n)
            point = {"commit": commit, "family": family, "grammar": name, "n": n,
                     **measure(name, toks), "host": host}
            points.append(point)
            print("%-24s %5d %10.3f %10.3f %8.1f %9d %7d" % (
                family, n, point["warm_ms"], point["cold_ms"], point["peak_rss_mb"],
                point["facts"], point["rounds"]))
    print("\n%-24s %12s %18s" % ("family", "warm slope", "runtime_exponent"))
    for family, (name, _, _) in FAMILIES.items():
        s = slope([p for p in points if p["family"] == family])
        print("%-24s %12s %18.3f" % (family, "-" if s is None else "%.2f" % s,
                                     analyze(bundled.load(name)).runtime_exponent))
    try:
        with open(args.out) as fh:
            log = json.load(fh)
    except FileNotFoundError:
        log = {"points": []}
    log["points"] += points
    with open(args.out, "w") as fh:
        json.dump(log, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
