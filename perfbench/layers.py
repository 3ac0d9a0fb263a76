"""Per-layer metrics from a traced run's spans and counts.

Times are self times (a span minus its child spans) unless the name says
otherwise, per op of the traced op set, which includes the set-up work that
made that op's input.  The CLI figures come from a separate probe tracer.
Counts are totals over the whole traced op set; they repeat exactly for a
seed.  A share is a layer's self time over the traced
set-up plus op time.  A layer a workload does not exercise reads 0.
"""

from __future__ import annotations

from spans import BENCH_OP, BENCH_SETUP

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "sweep.forward.self_ms": "ms/op",
    "sweep.backward.self_ms": "ms/op",
    "sweep.cells": "count",
    "sweep.ns_per_cell": "ns/cell",
    "sweep.share": "ratio",
    "propagators.atmost.ms": "ms/op",
    "propagators.atleast.ms": "ms/op",
    "propagators.exact.ms": "ms/op",
    "propagators.decomposed.ms": "ms/op",
    "propagators.filter.self_ms": "ms/op",
    "propagators.exact.passes": "count",
    "propagators.decomposed.passes": "count",
    "propagators.removals": "count",
    "propagators.productive_pass_ratio": "ratio",
    "propagators.propagate.us_per_call": "us/call",
    "search.nodes": "count",
    "search.failures": "count",
    "search.prunings": "count",
    "search.solutions": "count",
    "search.self_us_per_node": "us/node",
    "search.failed_node_ratio": "ratio",
    "domains.copy.calls": "count",
    "domains.copy.self_us": "us/call",
    "domains.make_store.self_us": "us/call",
    "domains.load_instance.ms": "ms/call",
    "oracle.enumerate.self_ms": "ms/op",
    "oracle.leaves": "count",
    "oracle.ns_per_leaf": "ns/leaf",
    "oracle.native.self_ms": "ms/op",
    "oracle.check_dc.self_ms": "ms/op",
    "oracle.share": "ratio",
    "generator.rng.us": "us/call",
    "generator.instance.us": "us/call",
    "generator.share": "ratio",
    "signature.composite.self_ms": "ms/op",
    "cli.propagate.ms": "ms/call",
    "trace.overhead": "ratio",
}

PROPAGATOR_SPANS = ("propagators.atmost", "propagators.atleast", "propagators.exact",
                    "propagators.decomposed", "propagators.propagate")
ORACLE_ENUM_SPANS = ("oracle.enumerate", "oracle.native")
GENERATOR_SPANS = ("generator.rng", "generator.instance", "generator.check")
SIGNATURE_SPANS = ("signature.composite", "signature.project", "signature.channel_back")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, probe, ops: int, overhead: float) -> dict:
    """Metrics from the traced set-up and ops (``tracer``) and the CLI probe (``probe``)."""
    totals = tracer.layer_totals()
    probe_totals = probe.layer_totals()
    counts = tracer.counts
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def get(name: str) -> dict:
        return totals.get(name, zero)

    def self_ns(*names: str) -> int:
        return sum(get(n)["self_ns"] for n in names)

    def per_op_ms(ns: float) -> float:
        return ns / ops / 1e6

    def per_call_us(name: str, key: str = "self_ns", source: dict = totals) -> float:
        entry = source.get(name, zero)
        return _ratio(entry[key], entry["calls"]) / 1e3

    measured_ns = get(BENCH_SETUP)["total_ns"] + get(BENCH_OP)["total_ns"]
    sweep_ns = self_ns("sweep.forward", "sweep.backward")
    enum_ns = self_ns(*ORACLE_ENUM_SPANS)
    generated = get("generator.instance")
    values = {
        "sweep.forward.self_ms": per_op_ms(self_ns("sweep.forward")),
        "sweep.backward.self_ms": per_op_ms(self_ns("sweep.backward")),
        "sweep.cells": counts["sweep.cells"],
        "sweep.ns_per_cell": _ratio(sweep_ns, counts["sweep.cells"]),
        "sweep.share": _ratio(sweep_ns + self_ns("sweep.table"), measured_ns),
        "propagators.atmost.ms": per_op_ms(get("propagators.atmost")["total_ns"]),
        "propagators.atleast.ms": per_op_ms(get("propagators.atleast")["total_ns"]),
        "propagators.exact.ms": per_op_ms(get("propagators.exact")["total_ns"]),
        "propagators.decomposed.ms": per_op_ms(get("propagators.decomposed")["total_ns"]),
        "propagators.filter.self_ms": per_op_ms(self_ns(*PROPAGATOR_SPANS)),
        "propagators.exact.passes": counts["propagators.exact.passes"],
        "propagators.decomposed.passes": counts["propagators.decomposed.passes"],
        "propagators.removals": counts["propagators.removals"],
        "propagators.productive_pass_ratio": _ratio(counts["propagators.productive_passes"],
                                                    counts["propagators.passes"]),
        "propagators.propagate.us_per_call": per_call_us("propagators.propagate", "total_ns"),
        "search.nodes": counts["search.nodes"],
        "search.failures": counts["search.failures"],
        "search.prunings": counts["search.prunings"],
        "search.solutions": counts["search.solutions"],
        "search.self_us_per_node": _ratio(self_ns("search.solve"), counts["search.nodes"]) / 1e3,
        "search.failed_node_ratio": _ratio(counts["search.failures"], counts["search.nodes"]),
        "domains.copy.calls": get("domains.copy")["calls"],
        "domains.copy.self_us": per_call_us("domains.copy"),
        "domains.make_store.self_us": per_call_us("domains.make_store"),
        "domains.load_instance.ms": per_call_us("domains.load_instance", "total_ns", probe_totals) / 1e3,
        "oracle.enumerate.self_ms": per_op_ms(self_ns("oracle.enumerate")),
        "oracle.leaves": counts["oracle.leaves"],
        "oracle.ns_per_leaf": _ratio(enum_ns, counts["oracle.leaves"]),
        "oracle.native.self_ms": per_op_ms(self_ns("oracle.native")),
        "oracle.check_dc.self_ms": per_op_ms(self_ns("oracle.check_dc")),
        "oracle.share": _ratio(enum_ns + self_ns("oracle.check_dc"), measured_ns),
        "generator.rng.us": per_call_us("generator.rng", "total_ns"),
        "generator.instance.us": _ratio(generated["total_ns"], generated["calls"]) / 1e3,
        "generator.share": _ratio(self_ns(*GENERATOR_SPANS), measured_ns),
        "signature.composite.self_ms": per_op_ms(self_ns(*SIGNATURE_SPANS)),
        "cli.propagate.ms": per_call_us("cli.main", "total_ns", probe_totals) / 1e3,
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
