#!/usr/bin/env python3
"""Recognition benchmark: three workloads, end-to-end figures, and a traced
run with per-layer figures.

Run from the repository root:

  python3 perfbench/run.py --workload count4-closure --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload itg-general --seed 1 --seconds 20 --trace 1

Each workload runs in fresh worker processes (worker.py) with numpy and
BLAS limited to one thread.  Bytecode goes to .perfbench_out/pycache, and
one untimed worker fills it first, so every timed set-up reads bytecode
whatever the tree's own __pycache__ holds.  With ``--trace 0`` four extra
workers measure set-up only, and set-up time is the median of the five.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit.  Full results and the span trace go to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("count4-closure", "itg-general", "cli-mixed")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def _timeout(seconds: float) -> float:
    """Seconds a measuring worker may take: it runs whole passes, so it can
    run well past ``--seconds``, and a traced run makes two phases."""
    return 300 + 10 * seconds


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _metrics(listed, values) -> dict:
    """Every metric BENCHMARK.json lists, with its unit, in its order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def _worker(args: list, timeout: float) -> dict:
    """Run worker.py to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s" % (args, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker %s printed nothing:\n%s" % (args, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lcfrs" / "__init__.py").is_file():
        print("error: %s has no src/lcfrs; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2

    # a terminated run raises here, and subprocess.run then kills its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        OUT.mkdir(exist_ok=True)
        stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        _worker(common + ["--mode", "setup"], SETUP_TIMEOUT_S)   # fills the bytecode cache
        if args.trace:
            res = _worker(common + ["--mode", "trace", "--trace-file",
                                    str(OUT / ("spans-%s.jsonl" % stem))],
                          _timeout(args.seconds))
            metrics = _metrics(spec["per_layer"], res["layers"])
        else:
            setups = [_worker(common + ["--mode", "setup"], SETUP_TIMEOUT_S)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _worker(common + ["--mode", "run"], _timeout(args.seconds))
            setups.append(res["setup_s"])
            res["setup_samples_s"] = setups
            res["setup_s"] = statistics.median(setups)
            metrics = _metrics(spec["end_to_end"], res)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    correct = res["self_test"]["ok"] and \
        (not args.trace or res["kernel_agree"] == 1)
    res["metrics"] = metrics
    with open(OUT / ("result-%s.json" % stem), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2)

    print("workload %s  seed %d  kernel %s  passes %d x %d ops  self-test %s"
          % (args.workload, args.seed, res["kernel_kind"], res["passes"],
             res["ops_per_pass"], "ok" if res["self_test"]["ok"] else "FAILED"))
    for problem in res["problems"]:
        print("failed: %s" % problem)
    for name in res.get("absent", []):
        print("absent: %s" % name)
    for name, m in metrics.items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": bool(correct), "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
