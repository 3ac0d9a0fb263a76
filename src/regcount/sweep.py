"""Prefix/suffix extremal-counter tables over the current domains.

For each prefix length ``i`` and state ``q``, the forward tables hold the
minimum (resp. maximum) counter value over all domain-admissible strings
``s_1..s_i`` that lead from the start state to ``q``.  The backward tables
hold, for each suffix start ``i`` and state ``q``, the extremal counter
increase over admissible suffixes ``s_i..s_n`` that end in a state reachable
at position ``n``.  Rows are dense per-state arrays; a state no admissible
string reaches carries ``+inf`` in min rows and ``-inf`` in max rows.  Since
``inf + x`` stays ``inf``, a sum with an unreachable endpoint stays
unreachable and min/max pass over it, so the backward gather needs no branch
for the sentinels.

How a row is built:

* A forward row scatters from the reachable states of the previous row: for
  each reachable ``q`` and each symbol ``s`` of the position's domain, the
  candidate ``row[q] + increment[q][s]`` relaxes ``new[next_state[q][s]]``
  through a running min/max.
* A backward row is a gather over per-symbol transition columns: for symbol
  ``s``, ``map(add, map(next_row.__getitem__, next_col[s]), inc_col[s])``
  gives every state's cost through ``s`` at once, and ``map(min, ...)`` (or
  ``max``) over the domain's symbols gives the row.

One row costs O(|domain| * |states|), a full table O(n * |alphabet| *
|states|).  Tables are rebuilt from scratch on every propagator call; nothing
here is incremental.

:meth:`SweepTable.compute` builds the min side (``pre_min``/``suf_min``), the
max side, or both, and runs only those sweeps: atmost needs the min side,
atleast the max side and exact both.  Every entry of an unbuilt side is the
unbounded end, ``-inf`` for min and ``+inf`` for max, so an interval summed
over it stays open on that end.

Counters are exact integers, so no sum wraps or raises.  Increments stay
validated at ``<= U64_MAX``, which keeps every sum far below the float range,
so ``inf + x`` in the sentinel arithmetic stays valid.

Memoised, and how it is bounded:

* :func:`pass_symbols` maps each domain mask to a tuple of its symbol ids
  through a cache of at most ``SYMBOL_CACHE_SIZE`` masks, which is emptied
  when full.  A propagator pass builds the list once and hands it to its
  sweeps and its filter loop.
* :func:`columns` keeps the per-symbol transition columns of one automaton,
  the last one asked for, compared by identity.  A different automaton
  replaces the entry, so it holds one automaton at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Sequence

from .automaton import CounterDfa
from .domains import DomainStore

#: Sentinel for "no admissible string" in min rows (orders above any value).
UNREACHABLE_MIN = math.inf
#: Sentinel for "no admissible string" in max rows (orders below any value).
UNREACHABLE_MAX = -math.inf

#: Most domain masks :func:`pass_symbols` keeps symbol tuples for.
SYMBOL_CACHE_SIZE = 1024


class _SymbolTuples(dict):
    """Domain mask -> ascending symbol ids, emptied when it reaches its bound."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        if len(self) >= SYMBOL_CACHE_SIZE:
            self.clear()
        syms = self[mask] = tuple(s for s in range(mask.bit_length()) if mask >> s & 1)
        return syms


_symbol_tuples = _SymbolTuples()


def pass_symbols(store: DomainStore) -> list[tuple[int, ...]]:
    """Per-position symbol tuples of ``store``: entry ``i`` equals ``store.symbols(i)``."""
    alphabet = (1 << store.alphabet_size) - 1
    return list(map(_symbol_tuples.__getitem__, map(alphabet.__and__, store.domains)))


class Columns:
    """Per-symbol transition columns of one automaton.

    ``next_state[s][q]`` is ``dfa.next_state[q][s]`` and ``increment[s][q]``
    is ``dfa.increment[q][s]``.
    """

    __slots__ = ("dfa", "next_state", "increment")

    def __init__(self, dfa: CounterDfa):
        self.dfa = dfa
        self.next_state = tuple(zip(*dfa.next_state))
        self.increment = tuple(zip(*dfa.increment))


_last_columns: Columns | None = None


def columns(dfa: CounterDfa) -> Columns:
    """The :class:`Columns` of ``dfa``, reused while the same object is asked for."""
    global _last_columns
    cols = _last_columns
    if cols is None or cols.dfa is not dfa:
        cols = _last_columns = Columns(dfa)
    return cols


def forward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None) -> list[list[int | float]]:
    """Rows 0..n of per-state extremal prefix counters; row 0 is {start: 0}.

    ``symbols`` is the pass's :func:`pass_symbols` list, built here if omitted.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = pass_symbols(store)
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    row: list[int | float] = [sent] * num_states
    row[dfa.start] = 0
    rows = [row]
    for syms in symbols:
        new: list[int | float] = [sent] * num_states
        for q, c in enumerate(row):
            # Every row starts as [sent] * num_states and only reachable
            # states write to it, so unreachable entries are ``sent`` itself.
            if c is sent:
                continue
            trow = nxt[q]
            irow = inc[q]
            if minimize:
                for s in syms:
                    c2 = c + irow[s]
                    t = trow[s]
                    if c2 < new[t]:
                        new[t] = c2
            else:
                for s in syms:
                    c2 = c + irow[s]
                    t = trow[s]
                    if c2 > new[t]:
                        new[t] = c2
        row = new
        rows.append(new)
    return rows


def backward(dfa: CounterDfa, store: DomainStore, forward_row_n, mode: str, symbols=None) -> list:
    """Rows 1..n+1 of per-state extremal suffix counters (index 0 unused).

    Row n+1 assigns 0 exactly to the states present in ``forward_row_n``,
    which must be the matching-mode forward row at position n.  ``symbols``
    is the pass's :func:`pass_symbols` list, built here if omitted.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = pass_symbols(store)
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    n = store.n
    rows: list = [None] * (n + 2)
    rows[n + 1] = [0 if c != sent else sent for c in forward_row_n]
    cols = columns(dfa)
    next_cols, inc_cols = cols.next_state, cols.increment
    pick = min if minimize else max
    for i in range(n, 0, -1):
        syms = symbols[i - 1]
        suffix = rows[i + 1].__getitem__
        if len(syms) == 1:
            s = syms[0]
            rows[i] = list(map(add, map(suffix, next_cols[s]), inc_cols[s]))
        elif syms:
            rows[i] = list(map(pick, *[map(add, map(suffix, next_cols[s]), inc_cols[s]) for s in syms]))
        else:
            rows[i] = [sent] * dfa.num_states
    return rows


def _minimize(mode: str) -> bool:
    if mode == "min":
        return True
    if mode == "max":
        return False
    raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")


@dataclass
class SweepTable:
    """The pre/suf vectors of one store in min mode, max mode, or both.

    ``symbols`` is the :func:`pass_symbols` list the sweeps ran on.  Every
    row of an unbuilt side is one shared row of its unbounded end (``-inf``
    for min, ``+inf`` for max), so callers need not know which sides were built.
    """

    pre_min: list
    pre_max: list
    suf_min: list
    suf_max: list
    symbols: list

    @classmethod
    def compute(cls, dfa: CounterDfa, store: DomainStore, min_side: bool = True,
                max_side: bool = True) -> "SweepTable":
        symbols = pass_symbols(store)
        rows = store.n + 2
        pre_min = forward(dfa, store, "min", symbols) if min_side else [[-math.inf] * dfa.num_states] * rows
        pre_max = forward(dfa, store, "max", symbols) if max_side else [[math.inf] * dfa.num_states] * rows
        suf_min = backward(dfa, store, pre_min[-1], "min", symbols) if min_side else pre_min
        suf_max = backward(dfa, store, pre_max[-1], "max", symbols) if max_side else pre_max
        return cls(pre_min, pre_max, suf_min, suf_max, symbols)

    def global_min(self) -> int:
        """Least counter value over admissible full-length strings; ``-inf`` if the min side is unbuilt.

        Unreachable states hold ``+inf``, which ``min`` passes over.
        """
        return min(self.pre_min[-1])

    def global_max(self) -> int:
        """Greatest counter value over admissible full-length strings; ``+inf`` if the max side is unbuilt.

        Unreachable states hold ``-inf``, which ``max`` passes over.
        """
        return max(self.pre_max[-1])


def format_row(row, state_names: Sequence[str]) -> str:
    """Reachable entries as ``name=value`` pairs in state order."""
    parts = [f"{state_names[q]}={int(c)}" for q, c in enumerate(row) if not math.isinf(c)]
    return ",".join(parts)


def format_rows(rows, state_names: Sequence[str], first_index: int) -> list[str]:
    """One ``i: name=value,...`` line per row, numbering from ``first_index``."""
    lines = []
    for offset, row in enumerate(rows):
        if row is None:
            continue
        lines.append(f"{first_index + offset}: {format_row(row, state_names)}")
    return lines
