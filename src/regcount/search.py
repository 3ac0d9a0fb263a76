"""Depth-first propagate-and-branch search for counting instances.

The branching is deliberately static so node counts are comparable across
propagators: variables are assigned in order x_1, ..., x_n, N, values
ascending, and every node (including the root) runs the chosen propagator to
its fixpoint before branching.  Stores are snapshot-copied per node; instances
are desk-scale, so trailing machinery would buy nothing.
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
    for a semantics other than ``mode``'s raises ``ValueError``.  A solution
    is a full assignment of the sequence variables and N.
    """
    semantics = Mode(mode).semantics
    chosen = Mode(mode if propagator is None else propagator)
    if chosen.semantics is not semantics:
        raise ValueError(f"propagator {chosen.value!r} does not decide {semantics.value!r} instances")
    stats = SearchStats()
    n = store.n
    started = time.perf_counter()

    def descend(node: DomainStore, depth: int) -> None:
        stats.nodes += 1
        outcome = propagate(dfa, node, chosen)
        stats.prunings += len(outcome.removals)
        if outcome.failed:
            stats.failures += 1
            return
        if depth == n + 1:
            stats.solutions += 1
            if on_solution is not None:
                assignment = tuple(node.symbols(i)[0] for i in range(n))
                on_solution((assignment, node.counter[0]))
            return
        if depth < n:
            for sym in node.symbols(depth):
                child = node.copy()
                child.assign_symbol(depth, sym)
                descend(child, depth + 1)
        else:
            for value in list(node.counter):
                child = node.copy()
                child.assign_counter(value)
                descend(child, depth + 1)

    descend(store.copy(), 0)
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


def bench(
    corpus: Iterable[tuple[str, Instance]],
    propagators: Sequence[str] = ("exact", "decomposed"),
) -> list[BenchRow]:
    """Root-propagation comparison over a corpus, aggregated per family.

    Each instance is propagated once per propagator choice; the table
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
                seconds={p: 0.0 for p in propagators},
                failures={p: 0 for p in propagators},
                prunings={p: 0 for p in propagators},
            )
        row.instances += 1
        outcomes = {}
        for prop in propagators:
            chosen = prop if inst.mode == "exact" else inst.mode
            store = inst.make_store()
            started = time.perf_counter()
            outcomes[prop] = propagate(inst.dfa, store, chosen)
            row.seconds[prop] += time.perf_counter() - started
            row.failures[prop] += outcomes[prop].failed
        if not any(out.failed for out in outcomes.values()):
            for prop in propagators:
                row.prunings[prop] += len(outcomes[prop].removals)
    return list(rows.values())


def format_bench(rows: Sequence[BenchRow], propagators: Sequence[str] = ("exact", "decomposed"),
                 fmt: str = "table") -> str:
    """Aligned text table (or TSV) with per-propagator seconds/failures/prunings."""
    header = ["family", "#inst"]
    for p in propagators:
        header += [f"{p}:s", f"{p}:fail", f"{p}:prune"]
    table = [header]
    for row in rows:
        line = [row.family, str(row.instances)]
        for p in propagators:
            line += [f"{row.seconds[p]:.2f}", str(row.failures[p]), str(row.prunings[p])]
        table.append(line)
    if fmt == "tsv":
        return "\n".join("\t".join(line) for line in table)
    widths = [max(len(line[c]) for line in table) for c in range(len(header))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return "\n".join(out)
