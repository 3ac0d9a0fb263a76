"""regcount benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload root-long --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports regcount from ``src/``.  Each
workload runs in its own worker process on one thread, in a closed loop.

``--trace 0`` starts ``SETUP_RUNS`` workers one after another.  Each imports
regcount and generates the run's inputs; the last one then measures ops for
``--seconds``.  It prints the end-to-end metrics: ``setup_s`` (median of the
set-ups), ``ops_per_s`` (ops over the summed op latencies), ``op_ms.p50``
and ``op_ms.p90``, and ``peak_rss_mb`` of the measuring worker, plus the op
count and ``error_rate`` (failed ops over attempted ops).  Times are rescaled
to a reference machine speed (``yardstick.py``); unscaled figures are printed
too.

``--trace 1`` starts one worker that runs a fixed op set in blocks, each block
untraced and traced, and prints the per-layer metrics and ``trace.overhead``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2, with no result, when
the arguments are bad, regcount's sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

STARTED = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("root-long", "search-dfs", "fuzz-oracle")
SETUP_RUNS = 3
#: Every worker must have ended this many seconds after the start.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args, phase: str) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase]
    timeout = DEADLINE_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} worker still running {DEADLINE_S:.0f} s after the start") from None
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{phase} worker printed no result line") from None


def end_to_end(args) -> dict:
    setups = [run_worker(args, "setup") for _ in range(SETUP_RUNS - 1)]
    result = run_worker(args, "measure")
    setups.append(result)
    latencies = result["latencies"]
    ms = sorted(x * 1e3 for x in latencies)
    metrics = {
        "ops_per_s": {"value": len(ms) / sum(latencies), "unit": "1/s"},
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.p90": {"value": statistics.quantiles(ms, n=10)[-1], "unit": "ms"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    shown = dict(metrics, error_rate={"value": result["failed"] / result["attempted"], "unit": "ratio"},
                 ops={"value": result["attempted"], "unit": "count"},
                 ops_per_s_unscaled={"value": len(ms) / result["raw_busy_s"], "unit": "1/s"},
                 setup_s_unscaled={"value": statistics.median(s["setup_raw_s"] for s in setups), "unit": "s"})
    return {"result": result, "metrics": metrics, "shown": shown}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regcount benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "regcount", "__init__.py")):
        print("error: src/regcount not found; run from the root of a regcount checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = run_worker(args, "trace")
            metrics = shown = result["metrics"]
        else:
            measured = end_to_end(args)
            result, metrics, shown = measured["result"], measured["metrics"], measured["shown"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in result["errors"]:
        print(f"failed op: {message}", file=sys.stderr)
    for name, metric in shown.items():
        print(f"{args.workload}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
