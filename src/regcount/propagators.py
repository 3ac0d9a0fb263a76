"""Constraint propagators for counting constraints over a counter automaton.

Three constraint semantics relate the automaton counter ``c(X)`` to the
counter variable ``N``:

* ``atmost``:  ``c(X) <= N``
* ``atleast``: ``c(X) >= N``
* ``exact``:   ``c(X) == N``

``propagate_atmost`` and ``propagate_atleast`` achieve domain consistency in
one pass and are idempotent.  ``propagate_exact`` is the sound-but-incomplete
interval rule (achieving domain consistency for exact counting is NP-hard,
see :func:`regcount.automaton.build_subset_sum_dfa`); it loops until a full
pass removes nothing.  ``propagate_decomposed`` runs atmost and atleast to
their mutual fixpoint and serves as the baseline the exact rule strictly
dominates.

All propagators mutate one store and append every removal to its log.
``passes`` counts table builds: one per atmost or atleast run (a forward and
a backward sweep in one mode) and one per exact round (all four sweeps).
The decomposition's ``passes`` is the sum over its component runs; it stops
at the first run that removes nothing once both components have run, so it
never ends with a whole idle atmost+atleast round.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore, Instance, RemoveResult
from .signature import SignatureMap
from .sweep import (
    UNREACHABLE_MAX,
    UNREACHABLE_MIN,
    SweepTable,
    backward,
    forward,
    pass_symbols,
    row_max,
    row_min,
)

FIXPOINT = "fixpoint"
FAILED = "failed"


class Mode(str, enum.Enum):
    ATMOST = "atmost"
    ATLEAST = "atleast"
    EXACT = "exact"
    DECOMPOSED_EXACT = "decomposed"


@dataclass
class PropagationOutcome:
    status: str
    removals: list[tuple[int | str, int]] = field(default_factory=list)
    passes: int = 0

    @property
    def failed(self) -> bool:
        return self.status == FAILED


def feasible_atmost(table: SweepTable, store: DomainStore) -> bool:
    """The atmost constraint has a solution iff some admissible string keeps
    the counter at or below the largest allowed value of N."""
    return table.global_min() <= store.max_counter()


def feasible_atleast(table: SweepTable, store: DomainStore) -> bool:
    return table.global_max() >= store.min_counter()


def min_cost(dfa: CounterDfa, table: SweepTable, i: int, sym: int):
    """Least full-string counter over strings with symbol ``sym`` at position ``i`` (1-based).

    Returns UNREACHABLE_MIN when no admissible string puts ``sym`` there.
    """
    return _edge_cost(dfa, table.pre_min[i - 1], table.suf_min[i + 1], sym, minimize=True)


def max_cost(dfa: CounterDfa, table: SweepTable, i: int, sym: int):
    """Greatest full-string counter through (i, sym); UNREACHABLE_MAX if none."""
    return _edge_cost(dfa, table.pre_max[i - 1], table.suf_max[i + 1], sym, minimize=False)


def _edge_cost(dfa: CounterDfa, pre_row, suf_row, sym: int, minimize: bool):
    # Sums involving an unreachable endpoint stay unreachable; min/max simply
    # skip them.
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    nxt, inc = dfa.next_state, dfa.increment
    best = sent
    for q, c in enumerate(pre_row):
        if c == sent:
            continue
        cs = suf_row[nxt[q][sym]]
        if cs == sent:
            continue
        total = c + inc[q][sym] + cs
        if minimize:
            if total < best:
                best = total
        elif total > best:
            best = total
    return best


def propagate_atmost(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Domain-consistent filtering for ``c(X) <= N``; one pass, idempotent.

    A symbol survives iff its least completion cost is at most max(dom(N));
    an N-value survives iff it is at least the least full-string counter.
    """
    return _propagate_bound(dfa, store, minimize=True)


def propagate_atleast(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Domain-consistent filtering for ``c(X) >= N`` (mirror of atmost)."""
    return _propagate_bound(dfa, store, minimize=False)


def _propagate_bound(dfa: CounterDfa, store: DomainStore, minimize: bool) -> PropagationOutcome:
    mark = len(store.removal_log)
    if not store.counter or any(store.domains[i] == 0 for i in range(store.n)):
        return PropagationOutcome(FAILED, [], 0)
    mode = "min" if minimize else "max"
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    symbols = pass_symbols(store)
    pre = forward(dfa, store, mode, symbols)
    suf = backward(dfa, store, pre[-1], mode, symbols)
    extremal = row_min(pre[-1]) if minimize else row_max(pre[-1])
    bound = store.max_counter() if minimize else store.min_counter()
    if (extremal > bound) if minimize else (extremal < bound):
        return PropagationOutcome(FAILED, store.removal_log[mark:], 1)
    for i, syms in enumerate(symbols, 1):
        pre_row = pre[i - 1]
        suf_row = suf[i + 1]
        for sym in syms:
            cost = _edge_cost(dfa, pre_row, suf_row, sym, minimize)
            assert cost != sent, "reachable position lost all completions"
            if (cost > bound) if minimize else (cost < bound):
                if store.remove_symbol(i - 1, sym) is RemoveResult.EMPTIED:
                    return PropagationOutcome(FAILED, store.removal_log[mark:], 1)
    for v in list(store.counter):
        if (v < extremal) if minimize else (v > extremal):
            if store.remove_counter(v) is RemoveResult.EMPTIED:
                return PropagationOutcome(FAILED, store.removal_log[mark:], 1)
    return PropagationOutcome(FIXPOINT, store.removal_log[mark:], 1)


def propagate_exact(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Incomplete filtering for ``c(X) == N``: per-state interval intersection.

    A symbol at position i is removed when, for every state reachable with
    i-1 admissible symbols, the interval spanned by the cheapest and the
    costliest full string through that state and symbol misses dom(N)
    entirely.  N-values not covered by any end state's [min, max] interval
    are removed as well.  Unlike the bound propagators this rule can enable
    further removals after it fires, so it loops until a pass changes
    nothing.  It never removes a supported value, but may keep unsupported
    ones (exact counting cannot be made domain-consistent in polynomial
    time).
    """
    mark = len(store.removal_log)
    if not store.counter or any(store.domains[i] == 0 for i in range(store.n)):
        return PropagationOutcome(FAILED, [], 0)
    nxt, inc = dfa.next_state, dfa.increment
    passes = 0
    while True:
        passes += 1
        table = SweepTable.compute(dfa, store)
        if __debug__:
            _assert_matching_support(table)
        if not store.counter_has_between(table.global_min(), table.global_max()):
            return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        changed = False
        for i, syms in enumerate(table.symbols, 1):
            pre_min_row = table.pre_min[i - 1]
            pre_max_row = table.pre_max[i - 1]
            suf_min_row = table.suf_min[i + 1]
            suf_max_row = table.suf_max[i + 1]
            for sym in syms:
                supported = False
                for q, lo_pre in enumerate(pre_min_row):
                    if lo_pre == UNREACHABLE_MIN:
                        continue
                    t = nxt[q][sym]
                    step = inc[q][sym]
                    lo = lo_pre + step + suf_min_row[t]
                    hi = pre_max_row[q] + step + suf_max_row[t]
                    assert lo != UNREACHABLE_MIN and hi != UNREACHABLE_MAX
                    if store.counter_has_between(lo, hi):
                        supported = True
                        break
                if not supported:
                    changed = True
                    if store.remove_symbol(i - 1, sym) is RemoveResult.EMPTIED:
                        return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        last_min = table.pre_min[store.n]
        last_max = table.pre_max[store.n]
        intervals = [
            (last_min[q], last_max[q]) for q in range(dfa.num_states) if last_min[q] != UNREACHABLE_MIN
        ]
        for v in list(store.counter):
            if not any(lo <= v <= hi for lo, hi in intervals):
                changed = True
                if store.remove_counter(v) is RemoveResult.EMPTIED:
                    return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        if not changed:
            return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)


def _assert_matching_support(table: SweepTable) -> None:
    # Reachability is domain-driven, so min and max rows must agree on which
    # states they cover; the exact rule relies on this.
    for row_min_, row_max_ in zip(table.pre_min, table.pre_max):
        for cmin, cmax in zip(row_min_, row_max_):
            assert (cmin == UNREACHABLE_MIN) == (cmax == UNREACHABLE_MAX)


def propagate_decomposed(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Fixpoint of the atmost and atleast propagators: the baseline for exact.

    Runs atmost and atleast in turn.  Both are idempotent, so once both have
    run, a run that removes nothing leaves the other one at its fixpoint too
    and the loop stops there; ``passes`` counts the component runs.  Sound
    for exact counting but weaker than :func:`propagate_exact`, whose removal
    set always contains this one's.
    """
    mark = len(store.removal_log)
    passes = 0
    for runs, component in enumerate(itertools.cycle((propagate_atmost, propagate_atleast)), 1):
        before = len(store.removal_log)
        out = component(dfa, store)
        passes += out.passes
        if out.failed:
            return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        if runs >= 2 and len(store.removal_log) == before:
            return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)


_PROPAGATORS = {
    Mode.ATMOST: propagate_atmost,
    Mode.ATLEAST: propagate_atleast,
    Mode.EXACT: propagate_exact,
    Mode.DECOMPOSED_EXACT: propagate_decomposed,
}


def propagate(dfa: CounterDfa, store: DomainStore, mode: str | Mode) -> PropagationOutcome:
    """Dispatch to the propagator for ``mode`` and run it to its fixpoint."""
    return _PROPAGATORS[Mode(mode)](dfa, store)


@dataclass
class CompositeOutcome:
    """Result of propagating a signature instance, reported in native values."""

    status: str
    removals: list[tuple[int | str, int]]
    passes: int
    native_domains: list[list[int]]
    counter_values: list[int]

    @property
    def failed(self) -> bool:
        return self.status == FAILED


def propagate_composite(
    dfa: CounterDfa,
    sig: SignatureMap,
    native_domains: list[list[int]],
    counter_values: list[int],
    mode: str | Mode,
) -> CompositeOutcome:
    """Propagate on projected symbol domains, then channel prunings back.

    One round suffices for a fixpoint: re-projecting the channeled native
    domains reproduces the propagated symbol domains exactly (a surviving
    symbol keeps a surviving pre-image, and pruned symbols lose all of
    theirs), so a second symbol-level run could remove nothing new.
    """
    natives = [set(dom) for dom in native_domains]
    store = DomainStore(dfa.num_symbols, [], counter_values)
    store.domains = [sig.project(i, dom) for i, dom in enumerate(natives)]
    out = propagate(dfa, store, mode)
    removals: list[tuple[int | str, int]] = []
    counter = list(store.counter)
    for var, value in out.removals:
        if var == COUNTER_VAR:
            removals.append((COUNTER_VAR, value))
            continue
        for nv in sorted(sig.channel_back(var, [value], natives[var])):
            natives[var].discard(nv)
            removals.append((var, nv))
    return CompositeOutcome(out.status, removals, out.passes, [sorted(d) for d in natives], counter)


def propagate_instance(inst: Instance, mode: str | Mode | None = None):
    """Run an instance's propagator; returns a CompositeOutcome-shaped result.

    Plain instances are wrapped so callers can treat both kinds uniformly
    (removal values are symbol ids for plain instances, native integers for
    signature instances).
    """
    chosen = Mode(mode) if mode is not None else Mode(inst.mode)
    if inst.is_composite:
        assert inst.signature is not None and inst.native_domains is not None
        return propagate_composite(inst.dfa, inst.signature, inst.native_domains, inst.counter_values, chosen)
    store = inst.make_store()
    out = propagate(inst.dfa, store, chosen)
    return CompositeOutcome(
        out.status,
        out.removals,
        out.passes,
        [store.symbols(i) for i in range(store.n)],
        list(store.counter),
    )
