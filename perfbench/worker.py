"""One workload process: set-up, then the untraced timed loop or the traced run.

Started by ``run.py`` with ``PYTHONPATH=src`` from the root of a checkout.  It
prints exactly one JSON line on stdout.  Phases:

* ``setup``: import regcount and generate the run's inputs, then report the
  set-up time only.
* ``measure``: set up, then run ops in a closed loop (each op starts when the
  previous one has finished) until ``--seconds`` have passed and at least
  ``MIN_OPS`` ops are done, or the inputs run out.  Each op is timed alone;
  its correctness gates run outside the timed region.
* ``trace``: generate a fixed op set under tracing, run it in blocks both
  untraced and traced, then the CLI probe; report per-layer metrics and the
  tracing overhead (traced over untraced op time, minus 1).

Times in ``setup`` and ``measure`` are rescaled to a reference machine speed
with the yardstick (see ``yardstick.py``); the raw figures are reported
alongside.  The traced run needs no rescaling: its overhead compares blocks
run side by side.
"""

from __future__ import annotations

import time

from yardstick import REFERENCE_S, Yardstick, calibrate

_CAL0 = calibrate()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import regcount  # noqa: E402
from regcount import cli, domains, propagators  # noqa: E402

import layers  # noqa: E402
from spans import BENCH_OP, BENCH_SETUP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: At least this many ops per measured run, so that p90 has ten samples beyond it.
MIN_OPS = 100
#: Hard stop for the measured loop, well inside the 180 s a run may take.
MAX_LOOP_SECONDS = 120.0
#: Recalibrate the yardstick after this much loop time.
CALIBRATE_EVERY_S = 0.1
OUT_DIR = ".perfbench_out"
CLI_CALLS = 3
#: The traced op set runs in this many blocks, each untraced and traced.
TRACE_BLOCKS = 16


def run_op(wl, inp, tracer: Tracer | None = None):
    """Run one op, in a root span when traced; returns (latency in s, error messages).

    The gates run after the op's clock and span have stopped.
    """
    root = tracer.open(BENCH_OP) if tracer is not None else -1
    started = time.perf_counter()
    try:
        result = wl.run(inp)
    except Exception as exc:  # an op that raises counts as failed, and the run goes on
        return time.perf_counter() - started, [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.close(root)
    elapsed = time.perf_counter() - started
    return elapsed, wl.check(inp, result)


def setup_time() -> tuple[float, float, Yardstick]:
    """Raw and rescaled set-up time; the yardstick's first calibration closes it."""
    raw = time.perf_counter() - _T0
    stick = Yardstick()
    return raw, raw * REFERENCE_S / ((_CAL0 + stick.last) / 2), stick


def measure(wl, seed: int, seconds: float) -> dict:
    inputs = wl.make_inputs(seed, wl.pool_size)
    setup_raw, setup_s, stick = setup_time()
    # The input pool lives for the whole run; keep the collector from
    # walking it inside the ops it feeds.
    gc.collect()
    gc.freeze()
    raw: list[float] = []
    failed = 0
    errors: list[str] = []
    loop_start = last_cal = time.perf_counter()
    for inp in inputs:
        now = time.perf_counter()
        if (now - loop_start >= seconds and len(raw) >= MIN_OPS) or now - loop_start >= MAX_LOOP_SECONDS:
            break
        if now - last_cal >= CALIBRATE_EVERY_S:
            stick.recalibrate()
            last_cal = time.perf_counter()
        elapsed, op_errors = run_op(wl, inp)
        raw.append(elapsed)
        stick.add(elapsed)
        if op_errors:
            failed += 1
            errors.extend(op_errors[:1])
    stick.recalibrate()
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "attempted": len(raw),
        "failed": failed,
        "errors": errors[:5],
        "latencies": stick.scaled,
        "raw_busy_s": sum(raw),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_setup(wl, tracer: Tracer, seed: int) -> list:
    tracer.install()
    try:
        root = tracer.open(BENCH_SETUP)
        inputs = wl.make_inputs(seed, wl.traced_ops)
        tracer.close(root)
    finally:
        tracer.restore()
    return inputs


def paired_passes(wl, tracer: Tracer, inputs) -> tuple[float, float, int, list[str]]:
    """Each block of ops runs untraced and traced, in alternating order, so
    that drift in machine speed falls on both sides alike.

    Returns (untraced s, traced s, failed ops, errors).
    """
    block = max(1, len(inputs) // TRACE_BLOCKS)
    untraced = traced = 0.0
    failed = 0
    errors: list[str] = []
    for k, first in enumerate(range(0, len(inputs), block)):
        chunk = inputs[first:first + block]
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            try:
                for inp in chunk:
                    elapsed, op_errors = run_op(wl, inp, tracer if with_trace else None)
                    if with_trace:
                        traced += elapsed
                    else:
                        untraced += elapsed
                    if op_errors:
                        failed += 1
                        errors.extend(op_errors[:1])
            finally:
                if with_trace:
                    tracer.restore()
    return untraced, traced, failed, errors


def cli_probe(wl, inp, probe: Tracer, seed: int) -> list[str]:
    """In-process ``regcount propagate FILE`` on a saved instance of the workload.

    Traced by its own tracer, so that the CLI's propagation stays out of the
    per-op layer figures.  Returns one error per call whose exit code, status
    or removal count differs from a direct ``propagate_instance`` call.
    """
    inst = wl.sample_instance(inp)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{seed}.json")
    domains.save_instance(inst, path)
    expected = propagators.propagate_instance(inst)
    want = (1 if expected.failed else 0, [f"status: {expected.status}"], len(expected.removals))
    errors = []
    probe.install()
    try:
        for _ in range(CLI_CALLS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["propagate", path])
            lines = buf.getvalue().splitlines()
            got = (code, lines[:1], sum(1 for line in lines if line.startswith(("x", "N "))))
            if got != want:
                errors.append(f"cli propagate gave (exit, status, removals) {got}, expected {want}")
    finally:
        probe.restore()
    return errors


def trace_run(wl, seed: int) -> dict:
    tracer = Tracer()
    inputs = traced_setup(wl, tracer, seed)
    gc.collect()
    gc.freeze()
    untraced, traced, failed, errors = paired_passes(wl, tracer, inputs)
    probe = Tracer()
    cli_errors = cli_probe(wl, inputs[0], probe, seed)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.tsv"))
    probe.write_spans(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}-cli.tsv"))
    return {
        "attempted": 2 * len(inputs) + CLI_CALLS,
        "failed": failed + len(cli_errors),
        "errors": (errors + cli_errors)[:5],
        "metrics": layers.layer_metrics(tracer, probe, len(inputs), traced / untraced - 1.0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=["setup", "measure", "trace"], required=True)
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(regcount.__file__).startswith(src + os.sep):
        print(f"error: imported regcount from {regcount.__file__}, not from {src}", file=sys.stderr)
        return 2
    if not __debug__:
        print("error: run without -O; the measured program keeps its __debug__ checks", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    wl = WORKLOADS[args.workload]()
    if args.phase == "setup":
        wl.make_inputs(args.seed, wl.pool_size)
        setup_raw, setup_s, _stick = setup_time()
        result = {"setup_s": setup_s, "setup_raw_s": setup_raw}
    elif args.phase == "measure":
        result = measure(wl, args.seed, args.seconds)
    else:
        result = trace_run(wl, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
