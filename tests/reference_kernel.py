"""The plain loops that regcount's sweep kernel and filter loop replaced.

Differential tests compare the kernel against these: the forward and
backward sweeps that visit every (state, symbol) cell, the decomposition
loop that alternates this module's atmost and atleast loops and always ends
with a full round that removes nothing, the bound propagators' own loop (the
least or greatest cost through every reachable state of every (position,
symbol) edge against one end of dom(N)), the exact rule's interval loop over
this module's sweeps, and the search that runs the propagator at every node.
Only the search calls regcount's propagators, so a bug in the sweep kernels
or the filter cannot hide by appearing on both sides of a comparison.
"""

from __future__ import annotations

from regcount import PropagationOutcome, propagate
from regcount.domains import RemoveResult
from regcount.propagators import FAILED, FIXPOINT
from regcount.search import SearchStats
from regcount.sweep import UNREACHABLE_MAX, UNREACHABLE_MIN


def _sentinel(mode):
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    return UNREACHABLE_MIN if mode == "min" else UNREACHABLE_MAX


def forward(dfa, store, mode):
    minimize = mode == "min"
    sent = _sentinel(mode)
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    row = [sent] * num_states
    row[dfa.start] = 0
    rows = [row]
    for i in range(store.n):
        syms = store.symbols(i)
        new = [sent] * num_states
        for q in range(num_states):
            c = row[q]
            if c == sent:
                continue
            trow = nxt[q]
            irow = inc[q]
            for s in syms:
                c2 = c + irow[s]
                t = trow[s]
                if minimize:
                    if c2 < new[t]:
                        new[t] = c2
                elif c2 > new[t]:
                    new[t] = c2
        row = new
        rows.append(new)
    return rows


def backward(dfa, store, forward_row_n, mode):
    minimize = mode == "min"
    sent = _sentinel(mode)
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    n = store.n
    rows = [None] * (n + 2)
    rows[n + 1] = [0 if forward_row_n[q] != sent else sent for q in range(num_states)]
    for i in range(n, 0, -1):
        syms = store.symbols(i - 1)
        nxt_row = rows[i + 1]
        new = [sent] * num_states
        for q in range(num_states):
            best = sent
            trow = nxt[q]
            irow = inc[q]
            for s in syms:
                c = nxt_row[trow[s]]
                if c == sent:
                    continue
                c2 = c + irow[s]
                if minimize:
                    if c2 < best:
                        best = c2
                elif c2 > best:
                    best = c2
            new[q] = best
        rows[i] = new
    return rows


def propagate_decomposed(dfa, store):
    mark = len(store.removal_log)
    passes = 0
    while True:
        before = len(store.removal_log)
        for component in (PROPAGATORS["atmost"], PROPAGATORS["atleast"]):
            out = component(dfa, store)
            passes += out.passes
            if out.failed:
                return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        if len(store.removal_log) == before:
            return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)


def row_min(row):
    return min(c for c in row if c != UNREACHABLE_MIN)


def row_max(row):
    return max(c for c in row if c != UNREACHABLE_MAX)


def edge_cost(dfa, pre_row, suf_row, sym, minimize):
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


def propagate_bound(dfa, store, minimize):
    mark = len(store.removal_log)
    if not store.counter or any(store.domains[i] == 0 for i in range(store.n)):
        return PropagationOutcome(FAILED, [], 0)
    mode = "min" if minimize else "max"
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    pre = forward(dfa, store, mode)
    suf = backward(dfa, store, pre[-1], mode)
    extremal = row_min(pre[-1]) if minimize else row_max(pre[-1])
    bound = store.counter[-1] if minimize else store.counter[0]
    if (extremal > bound) if minimize else (extremal < bound):
        return PropagationOutcome(FAILED, store.removal_log[mark:], 1)
    for v in list(store.counter):
        if (v < extremal) if minimize else (v > extremal):
            if store.remove_counter(v) is RemoveResult.EMPTIED:
                return PropagationOutcome(FAILED, store.removal_log[mark:], 1)
    for i in range(1, store.n + 1):
        for sym in store.symbols(i - 1):
            cost = edge_cost(dfa, pre[i - 1], suf[i + 1], sym, minimize)
            assert cost != sent, "reachable position lost all completions"
            if (cost > bound) if minimize else (cost < bound):
                if store.remove_symbol(i - 1, sym) is RemoveResult.EMPTIED:
                    return PropagationOutcome(FAILED, store.removal_log[mark:], 1)
    return PropagationOutcome(FIXPOINT, store.removal_log[mark:], 1)


def propagate_exact(dfa, store):
    mark = len(store.removal_log)
    if not store.counter or any(store.domains[i] == 0 for i in range(store.n)):
        return PropagationOutcome(FAILED, [], 0)
    nxt, inc = dfa.next_state, dfa.increment
    zero = [0] * dfa.num_states
    passes = 0
    while True:
        passes += 1
        symbols = [store.symbols(i) for i in range(store.n)]
        pre_min, pre_max = forward(dfa, store, "min"), forward(dfa, store, "max")
        suf_min, suf_max = backward(dfa, store, zero, "min"), backward(dfa, store, zero, "max")
        if not store.counter_has_between(row_min(pre_min[-1]), row_max(pre_max[-1])):
            return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        changed = False
        intervals = [
            (pre_min[-1][q], pre_max[-1][q]) for q in range(dfa.num_states) if pre_min[-1][q] != UNREACHABLE_MIN
        ]
        for v in list(store.counter):
            if not any(lo <= v <= hi for lo, hi in intervals):
                changed = True
                if store.remove_counter(v) is RemoveResult.EMPTIED:
                    return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        for i, syms in enumerate(symbols, 1):
            for sym in syms:
                supported = False
                for q, lo_pre in enumerate(pre_min[i - 1]):
                    if lo_pre == UNREACHABLE_MIN:
                        continue
                    t = nxt[q][sym]
                    step = inc[q][sym]
                    lo = lo_pre + step + suf_min[i + 1][t]
                    hi = pre_max[i - 1][q] + step + suf_max[i + 1][t]
                    assert lo != UNREACHABLE_MIN and hi != UNREACHABLE_MAX
                    if store.counter_has_between(lo, hi):
                        supported = True
                        break
                if not supported:
                    changed = True
                    if store.remove_symbol(i - 1, sym) is RemoveResult.EMPTIED:
                        return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        if not changed:
            return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)


#: The plain filter loops, by semantics.
PROPAGATORS = {
    "atmost": lambda dfa, store: propagate_bound(dfa, store, minimize=True),
    "atleast": lambda dfa, store: propagate_bound(dfa, store, minimize=False),
    "exact": propagate_exact,
}


def solve(dfa, store, propagator, on_solution=None):
    """The search loop that propagates every node, the root and each child alike."""
    stats = SearchStats()
    n = store.n

    def descend(node, depth):
        stats.nodes += 1
        outcome = propagate(dfa, node, propagator)
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
    return stats
