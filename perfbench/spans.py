"""Span recorder for the traced run: timing wrappers at regcount's module boundaries.

``Tracer.install`` rebinds each public function listed in ``FUNCTIONS`` and
``METHODS`` to a wrapper that records one span (name, start, end, parent).
A function imported by name into several modules (``forward`` lives in
``regcount.sweep`` and is imported into ``regcount.propagators``) is rebound
everywhere it appears, module-level dispatch tables included, so every call
path goes through the wrapper.  ``Tracer.restore`` puts the originals back.
Spans are kept in parallel lists in memory; ``layer_totals`` turns them into
per-name call counts, total time and self time (a span's duration minus the
time its child spans cover), and ``write_spans`` dumps them as TSV.

Hooks read results and arguments after a call returns (sweep cells, search
stats, oracle leaves, pass counts).  A hook runs inside a ``trace.hook`` span
so that its cost is charged to no layer.  ``DomainStore.symbols`` is not
wrapped: it runs once per row of every sweep, and timing it would swamp the
sweep.
"""

from __future__ import annotations

import sys
from collections import Counter
from math import prod
from time import perf_counter_ns

BENCH_SETUP = "bench.setup"
BENCH_OP = "bench.op"
HOOK = "trace.hook"


def _cells(tracer, idx, args, result):
    dfa, store = args[0], args[1]
    tracer.counts["sweep.cells"] += dfa.num_states * sum(map(int.bit_count, store.domains))


def _table_mark(args):
    # SweepTable.compute(cls, dfa, store): the removal-log length at the start
    # of an exact pass, to tell productive passes from the last, idle one.
    return len(args[2].removal_log)


def _bound_outcome(tracer, idx, args, result):
    counts = tracer.counts
    counts["propagators.passes"] += result.passes
    if result.passes and result.removals:
        counts["propagators.productive_passes"] += 1
    if tracer.names[tracer.parents[idx]] != "propagators.decomposed":
        counts["propagators.removals"] += len(result.removals)


def _exact_outcome(tracer, idx, args, result):
    counts = tracer.counts
    counts["propagators.exact.passes"] += result.passes
    counts["propagators.passes"] += result.passes
    counts["propagators.removals"] += len(result.removals)
    marks = [tracer.payloads[child] for child in tracer.children_named(idx, "sweep.table")]
    marks.append(len(args[1].removal_log))
    counts["propagators.productive_passes"] += sum(1 for a, b in zip(marks, marks[1:]) if b > a)


def _decomposed_outcome(tracer, idx, args, result):
    tracer.counts["propagators.decomposed.passes"] += result.passes
    tracer.counts["propagators.removals"] += len(result.removals)


def _search_stats(tracer, idx, args, result):
    counts = tracer.counts
    counts["search.nodes"] += result.nodes
    counts["search.failures"] += result.failures
    counts["search.prunings"] += result.prunings
    counts["search.solutions"] += result.solutions


def _store_leaves(tracer, idx, args, result):
    tracer.counts["oracle.leaves"] += prod(map(int.bit_count, args[1].domains))


def _native_leaves(tracer, idx, args, result):
    tracer.counts["oracle.leaves"] += prod(len(set(d)) for d in args[2])


# (module, attribute, span name, hook).  Each function is wrapped once and
# rebound in every regcount module that holds it.
FUNCTIONS = (
    ("regcount.sweep", "forward", "sweep.forward", _cells),
    ("regcount.sweep", "backward", "sweep.backward", _cells),
    ("regcount.propagators", "propagate_atmost", "propagators.atmost", _bound_outcome),
    ("regcount.propagators", "propagate_atleast", "propagators.atleast", _bound_outcome),
    ("regcount.propagators", "propagate_exact", "propagators.exact", _exact_outcome),
    ("regcount.propagators", "propagate_decomposed", "propagators.decomposed", _decomposed_outcome),
    ("regcount.propagators", "propagate", "propagators.propagate", None),
    ("regcount.propagators", "propagate_composite", "signature.composite", None),
    ("regcount.search", "solve", "search.solve", _search_stats),
    ("regcount.oracle", "enumerate_support", "oracle.enumerate", _store_leaves),
    ("regcount.oracle", "enumerate_all_modes", "oracle.enumerate", _store_leaves),
    ("regcount.oracle", "enumerate_support_native", "oracle.native", _native_leaves),
    ("regcount.oracle", "check_dc", "oracle.check_dc", None),
    ("regcount.generator", "rng_for", "generator.rng", None),
    ("regcount.generator", "random_cdfa", "generator.instance", None),
    ("regcount.generator", "random_instance", "generator.instance", None),
    ("regcount.generator", "random_among_instance", "generator.instance", None),
    ("regcount.generator", "check_instance", "generator.check", None),
    ("regcount.generator", "check_among_instance", "generator.check", None),
    ("regcount.domains", "load_instance", "domains.load_instance", None),
    ("regcount.cli", "main", "cli.main", None),
)

# (module, class, method, span name, hook, payload taken before the call).
METHODS = (
    ("regcount.sweep", "SweepTable", "compute", "sweep.table", None, _table_mark),
    ("regcount.domains", "DomainStore", "copy", "domains.copy", None, None),
    ("regcount.domains", "Instance", "make_store", "domains.make_store", None, None),
    ("regcount.signature", "SignatureMap", "project", "signature.project", None, None),
    ("regcount.signature", "SignatureMap", "channel_back", "signature.channel_back", None, None),
)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.payloads: dict[int, object] = {}
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str, hook=None, before=None):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self.stack
        payloads = self.payloads
        tracer = self

        # open/close inlined: this runs on every traced call.
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            if before is not None:
                payloads[idx] = before(args)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                h = tracer.open(HOOK)
                hook(tracer, idx, args, result)
                tracer.close(h)
            return result

        return traced

    def children_named(self, idx: int, name: str) -> list[int]:
        # Children are appended after their parent; the spans recorded since
        # idx opened are exactly its subtree.
        return [j for j in range(idx + 1, len(self.names)) if self.parents[j] == idx and self.names[j] == name]

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method; a name regcount lacks is skipped."""
        modules = [m for key, m in sys.modules.items() if key == "regcount" or key.startswith("regcount.")]
        for module_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value, False))
                        setattr(module, key, wrapper)
                    elif type(value) is dict:  # dispatch tables such as propagators._PROPAGATORS
                        for item, entry in list(value.items()):
                            if entry is original:
                                self._patched.append((value, item, entry, True))
                                value[item] = wrapper
        for module_name, cls_name, attr, name, hook, before in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(self.wrap(original.__func__, name, hook, before))
            else:
                wrapper = self.wrap(original, name, hook, before)
            self._patched.append((cls, attr, original, False))
            setattr(cls, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, key, original, is_item = self._patched.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results --------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns (children subtracted)."""
        n = len(self.names)
        child_ns = [0] * n
        for j in range(n):
            p = self.parents[j]
            if p >= 0:
                child_ns[p] += self.ends[j] - self.starts[j]
        totals: dict[str, dict[str, int]] = {}
        for j in range(n):
            entry = totals.setdefault(self.names[j], {"calls": 0, "total_ns": 0, "self_ns": 0})
            dur = self.ends[j] - self.starts[j]
            entry["calls"] += 1
            entry["total_ns"] += dur
            entry["self_ns"] += dur - child_ns[j]
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for j, name in enumerate(self.names):
                fh.write(f"{j}\t{name}\t{self.starts[j]}\t{self.ends[j]}\t{self.parents[j]}\n")
