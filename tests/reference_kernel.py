"""The plain per-cell loops that regcount's sweep kernel replaced.

Differential tests compare the kernel against these: the forward and
backward sweeps that visit every (state, symbol) cell, and the
decomposition loop that always ends with a full atmost+atleast round that
removes nothing.
"""

from __future__ import annotations

from regcount import PropagationOutcome, propagate_atleast, propagate_atmost
from regcount.propagators import FAILED, FIXPOINT
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
        for component in (propagate_atmost, propagate_atleast):
            out = component(dfa, store)
            passes += out.passes
            if out.failed:
                return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
        if len(store.removal_log) == before:
            return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)
