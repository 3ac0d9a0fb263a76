"""Depth-first propagate-and-branch search for counting instances.

The branching is deliberately static so node counts are comparable across
propagators: variables are assigned in order x_1, ..., x_n, N, values
ascending, and every node (including the root) is at the chosen propagator's
fixpoint before branching.  The root, and every child whose assignment
removed a value, runs the propagator.  A child of a one-value branch is its
parent's store itself: its assignment removes nothing, and every propagator
is idempotent at its own fixpoint, so a run on it would remove nothing and
fail nothing.  It inherits the parent's fixpoint without a propagator call,
and still counts as one node, so node, failure and pruning counts are those
of propagating every node.  Stores are snapshot-copied per propagated node;
instances are desk-scale, so trailing machinery would buy nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .automaton import CounterDfa
from .domains import DomainStore, Instance
from .propagators import Mode, propagate

Solution = tuple[tuple[int, ...], int]


@dataclass
class SearchStats:
    failures: int = 0
    prunings: int = 0
    solutions: int = 0
    nodes: int = 0
    wall_time: float = 0.0


def solve(
    dfa: CounterDfa,
    store: DomainStore,
    mode: str | Mode,
    propagator: str | Mode | None = None,
    on_solution: Callable[[Solution], None] | None = None,
) -> SearchStats:
    """Complete DFS; returns node/failure/pruning/solution counts.

    ``propagator`` selects the filtering run at each node: by default the one
    matching ``mode``; pass ``"decomposed"`` to solve an exact instance with
    the atmost+atleast baseline instead of the exact rule.  A propagator
    for a semantics other than ``mode``'s raises ``ValueError``.  Every node
    is at that propagator's fixpoint before it branches; a one-value branch
    inherits its parent's fixpoint without a propagator call, and the counts
    equal those of running the propagator at every node.  A solution is a
    full assignment of the sequence variables and N.
    """
    semantics = Mode(mode).semantics
    chosen = Mode(mode if propagator is None else propagator)
    if chosen.semantics is not semantics:
        raise ValueError(f"propagator {chosen.value!r} does not decide {semantics.value!r} instances")
    stats = SearchStats()
    n = store.n
    alphabet = (1 << store.alphabet_size) - 1
    started = time.perf_counter()

    def visit(node: DomainStore) -> bool:
        """Propagate a new node; False if it failed."""
        stats.nodes += 1
        outcome = propagate(dfa, node, chosen)
        stats.prunings += len(outcome.removals)
        if outcome.failed:
            stats.failures += 1
        return not outcome.failed

    def descend(node: DomainStore, depth: int) -> None:
        """Branch below ``node``, which is at the propagator's fixpoint."""
        # One-value branches descend into ``node`` itself (module docstring).
        domains = node.domains
        while depth < n and domains[depth] & (domains[depth] - 1) == 0:
            stats.nodes += 1
            depth += 1
        if depth == n and len(node.counter) == 1:
            stats.nodes += 1
            depth += 1
        if depth == n + 1:
            stats.solutions += 1
            if on_solution is not None:
                # Every domain is one symbol here: read it off its one-bit mask.
                assignment = tuple([(mask & alphabet).bit_length() - 1 for mask in domains])
                on_solution((assignment, node.counter[0]))
            return
        if depth < n:
            for sym in node.symbols(depth):
                child = node.copy()
                child.assign_symbol(depth, sym)
                if visit(child):
                    descend(child, depth + 1)
        else:
            for value in list(node.counter):
                child = node.copy()
                child.assign_counter(value)
                if visit(child):
                    descend(child, depth + 1)

    root = store.copy()
    if visit(root):
        descend(root, 0)
    stats.wall_time = time.perf_counter() - started
    return stats


def solve_collect(
    dfa: CounterDfa,
    store: DomainStore,
    mode: str | Mode,
    propagator: str | Mode | None = None,
) -> tuple[SearchStats, list[Solution]]:
    """solve() plus the list of solutions, in branching order."""
    found: list[Solution] = []
    stats = solve(dfa, store, mode, propagator, on_solution=found.append)
    return stats, found


@dataclass
class BenchRow:
    family: str
    instances: int = 0
    seconds: dict[str, float] = field(default_factory=dict)
    failures: dict[str, int] = field(default_factory=dict)
    prunings: dict[str, int] = field(default_factory=dict)


#: The propagator choices :func:`bench` compares, in column order.
BENCH_PROPAGATORS = ("exact", "decomposed")


def bench(corpus: Iterable[tuple[str, Instance]]) -> list[BenchRow]:
    """Root-propagation comparison over a corpus, aggregated per family.

    Each instance is propagated once per choice in ``BENCH_PROPAGATORS``
    (an instance of another semantics runs its own propagator); the table
    accumulates wall time, detected failures, and, on instances where every
    choice reaches a fixpoint, the number of pruned values.  Counting only
    mutually-successful instances keeps the pruning columns comparable:
    summed this way, the exact column dominates the decomposition column
    because its root removals contain the baseline's on every store.  Failure
    and pruning counts are deterministic; only the seconds vary between runs.
    """
    rows: dict[str, BenchRow] = {}
    for family, inst in corpus:
        row = rows.get(family)
        if row is None:
            row = rows[family] = BenchRow(
                family,
                seconds={p: 0.0 for p in BENCH_PROPAGATORS},
                failures={p: 0 for p in BENCH_PROPAGATORS},
                prunings={p: 0 for p in BENCH_PROPAGATORS},
            )
        row.instances += 1
        outcomes = {}
        for prop in BENCH_PROPAGATORS:
            chosen = prop if Mode(prop).semantics is Mode(inst.mode).semantics else inst.mode
            store = inst.make_store()
            started = time.perf_counter()
            outcomes[prop] = propagate(inst.dfa, store, chosen)
            row.seconds[prop] += time.perf_counter() - started
            row.failures[prop] += outcomes[prop].failed
        if not any(out.failed for out in outcomes.values()):
            for prop in BENCH_PROPAGATORS:
                row.prunings[prop] += len(outcomes[prop].removals)
    return list(rows.values())


def format_bench(rows: Sequence[BenchRow], fmt: str = "table") -> str:
    """Aligned text table (or TSV) with per-propagator seconds/failures/prunings."""
    header = ["family", "#inst"]
    for p in BENCH_PROPAGATORS:
        header += [f"{p}:s", f"{p}:fail", f"{p}:prune"]
    table = [header]
    for row in rows:
        line = [row.family, str(row.instances)]
        for p in BENCH_PROPAGATORS:
            line += [f"{row.seconds[p]:.2f}", str(row.failures[p]), str(row.prunings[p])]
        table.append(line)
    if fmt == "tsv":
        return "\n".join("\t".join(line) for line in table)
    widths = [max(len(line[c]) for line in table) for c in range(len(header))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out)
