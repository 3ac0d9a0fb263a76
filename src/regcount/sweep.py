"""Prefix/suffix extremal-counter tables over the current domains.

For each prefix length ``i`` and state ``q``, the forward tables hold the
minimum (resp. maximum) counter value over all domain-admissible strings
``s_1..s_i`` that lead from the start state to ``q``.  The backward tables
hold, for each suffix start ``i`` and state ``q``, the extremal counter
increase over admissible suffixes ``s_i..s_n`` read from ``q``, wherever they
end; the base row n+1 is 0 at every state, so the backward sweep needs no
forward row.  Every state accepts, so for a state reachable at ``i`` these
suffixes are exactly the completions of its prefixes: the filter reads the
same entries it would read with suffixes restricted to the states reachable
at ``n``.  Rows are dense per-state arrays; a state no admissible string
reaches carries ``+inf`` in min rows and ``-inf`` in max rows.  Since ``inf +
x`` stays ``inf``, a sum with an unreachable endpoint stays unreachable and
min/max pass over it, so the backward gather needs no branch for the
sentinels.

How a row is built:

* A forward row scatters from the reachable states of the previous row: for
  each reachable ``q`` and each symbol ``s`` of the position's domain, the
  candidate ``row[q] + increment[q][s]`` relaxes ``new[next_state[q][s]]``
  through a running min/max.
* A backward row is a gather over per-symbol transition columns, which each
  backward sweep transposes from the automaton's tables when it starts: for
  symbol ``s``, ``map(add, map(next_row.__getitem__, next_col[s]),
  inc_col[s])`` gives every state's cost through ``s`` at once, and
  ``map(min, ...)`` (or ``max``) over the domain's symbols gives the row.
  Nothing is kept between sweeps: a transposition reads each transition
  once, as one row of the sweep does.

Both sweeps read a position's symbols from the pass's
:meth:`~regcount.domains.DomainStore.symbol_tuples` list, decoded once per
pass through the store's bounded mask cache.

One row costs O(|domain| * |states|), a full table O(n * |alphabet| *
|states|).

Partial rebuilds.  Domains only shrink within one propagator call, so a
table can be rebuilt from the previous one: given the previous rows and the
ascending positions whose domains changed since, :func:`forward` keeps the
rows before the first changed position and rebuilds from there, and
:func:`backward` keeps the rows after the last one and rebuilds towards row
1.  One cut-off rule ends each rebuilt stretch: a rebuilt row equal to the
old row keeps the old row object, and since every row up to the next changed
position reads an unchanged domain, those rows equal the old ones too, so the
sweep jumps to that position.  Every other row is kept as built.  Rows are
replaced, never mutated, so a previous table stays valid, and every row is
either built by the sweep or an unmodified row of the previous table; a
partial rebuild costs at most a full one plus one list comparison per
rebuilt row.

:meth:`SweepTable.compute` builds the min side (``pre_min``/``suf_min``), the
max side, or both, and runs only those sweeps: atmost needs the min side,
atleast the max side, exact and the decomposition both.  It builds the
prefix rows first and records the least and greatest full-string counters
they yield; a caller may then skip the suffix rows of a built side, given
those two (a pass skips an end that dom(N) cannot bind, and both when it is
bound to fail, see :mod:`regcount.propagators`).  Every entry of an unbuilt
side or skipped suffix side is the unbounded end, ``-inf`` for min and
``+inf`` for max, so an interval summed over it stays open on that end.  A
suffix side that the previous table skipped has no rows to start from, so a
partial rebuild builds it in full.

Counters are exact integers, so no sum wraps or raises.  Increments stay
validated at ``<= U64_MAX``, which keeps every sum far below the float range,
so ``inf + x`` in the sentinel arithmetic stays valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Callable, Sequence

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore

#: Sentinel for "no admissible string" in min rows (orders above any value).
UNREACHABLE_MIN = math.inf
#: Sentinel for "no admissible string" in max rows (orders below any value).
UNREACHABLE_MAX = -math.inf


def forward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None, previous=None,
            changed: Sequence[int] = ()) -> list[list[int | float]]:
    """Rows 0..n of per-state extremal prefix counters; row 0 is {start: 0}.

    ``symbols`` is the pass's :meth:`~regcount.domains.DomainStore.symbol_tuples`
    list, built here if omitted.
    ``previous``, if given, holds the rows of an earlier build in the same
    mode, and ``changed`` the ascending positions whose domains have shrunk
    since.  Then the rows that read no changed position are kept, and the
    sweep rebuilds from the first one that does: a rebuilt row equal to the
    old row at its index keeps the old row object and the sweep jumps to the
    next changed position (see the module docstring).  ``previous`` itself is
    returned if none changed.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = store.symbol_tuples()
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    n = store.n
    if previous is None:
        row: list[int | float] = [sent] * num_states
        row[dfa.start] = 0
        rows = [row] + [None] * n
        i = 0
    elif not changed:
        return previous
    else:
        rows = list(previous)
        i = changed[0]
        row = rows[i]
    k = 0  # changed[k] is the first changed position not yet swept
    while i < n:
        syms = symbols[i]
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
        i += 1
        if previous is not None and new == previous[i]:
            # Row i is the old row, so rows i+1 .. p, which read unchanged
            # domains, are too, p being the next changed position; the sweep
            # resumes with row p+1, which reads p.
            while k < len(changed) and changed[k] < i:
                k += 1
            i = changed[k] if k < len(changed) else n
            row = rows[i]
        else:
            rows[i] = row = new
    return rows


def backward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None, previous=None,
             changed: Sequence[int] = ()) -> list:
    """Rows 1..n+1 of per-state extremal suffix counters (index 0 unused).

    Entry ``q`` of row ``i`` is the extremal counter increase over the
    admissible suffixes ``s_i..s_n`` read from ``q``, wherever they end, so
    row n+1 is 0 at every state.  ``symbols``, ``previous`` and ``changed``
    work as in :func:`forward`, with the rebuild running from the last changed
    position towards row 1.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = store.symbol_tuples()
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    pick = min if minimize else max
    n = store.n
    if previous is None:
        rows: list = [None] * (n + 2)
        rows[n + 1] = [0] * dfa.num_states
        i = n
    elif not changed:
        return previous
    else:
        rows = list(previous)
        i = changed[-1] + 1
    next_cols, inc_cols = tuple(zip(*dfa.next_state)), tuple(zip(*dfa.increment))
    k = len(changed) - 1  # changed[k] is the last changed position not yet swept
    while i > 0:
        syms = symbols[i - 1]
        suffix = rows[i + 1].__getitem__
        if len(syms) == 1:
            s = syms[0]
            new = list(map(add, map(suffix, next_cols[s]), inc_cols[s]))
        elif syms:
            new = list(map(pick, *[map(add, map(suffix, next_cols[s]), inc_cols[s]) for s in syms]))
        else:
            new = [sent] * dfa.num_states
        if previous is not None and new == previous[i]:
            # Row i is the old row, so rows p+2 .. i-1, which read unchanged
            # domains, are too, p being the next changed position towards
            # row 1; the sweep resumes with row p+1, which reads p.
            while k >= 0 and changed[k] > i - 2:
                k -= 1
            i = changed[k] + 1 if k >= 0 else 0
        else:
            rows[i] = new
            i -= 1
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

    ``symbols`` is the :meth:`~regcount.domains.DomainStore.symbol_tuples`
    list the sweeps ran on and ``mark`` the length of the store's removal log
    when they ran.  ``least`` and ``greatest`` are the least and greatest
    counters over admissible full-length strings, read off the last prefix
    rows: ``-inf`` and ``+inf`` for an unbuilt side, since unreachable states
    hold the sentinel that ``min`` (or ``max``) passes over.
    ``suffixes`` says which sides, (min, max), hold built suffix rows: a
    built side's suffix rows may be skipped (see :meth:`compute`).  Every
    row of an unbuilt side or skipped suffix side is one shared row of its
    unbounded end (``-inf`` for min, ``+inf`` for max), so callers need not
    know which rows were built.
    """

    pre_min: list
    pre_max: list
    suf_min: list
    suf_max: list
    symbols: list
    mark: int
    suffixes: tuple[bool, bool]
    least: int | float
    greatest: int | float

    @classmethod
    def compute(cls, dfa: CounterDfa, store: DomainStore, min_side: bool = True, max_side: bool = True,
                previous: "SweepTable | None" = None,
                suffix_sides: Callable[[int, int], tuple[bool, bool]] | None = None) -> "SweepTable":
        """The table of ``store`` now.

        The prefix rows of the chosen sides are built first.  ``suffix_sides``,
        if given, is then called with the table's ``least`` and ``greatest``
        and returns which sides, (min, max), need suffix rows; by default
        every built side gets them.

        ``previous``, a table of the same store and sides built earlier, makes
        this a partial rebuild: the positions of the symbol removals logged
        since ``previous.mark`` are the changed ones.  A suffix side that
        ``previous`` skipped is built in full.
        """
        mark = len(store.removal_log)
        symbols = store.symbol_tuples()
        rows = store.n + 2
        if previous is None:
            changed: list[int] = []
            old = (None, None, None, None)
        else:
            changed = sorted({var for var, _ in store.removal_log[previous.mark:] if var != COUNTER_VAR})
            built_min, built_max = previous.suffixes
            old = (previous.pre_min, previous.pre_max, previous.suf_min if built_min else None,
                   previous.suf_max if built_max else None)
        open_min = [[-math.inf] * dfa.num_states] * rows
        open_max = [[math.inf] * dfa.num_states] * rows
        pre_min = forward(dfa, store, "min", symbols, old[0], changed) if min_side else open_min
        pre_max = forward(dfa, store, "max", symbols, old[1], changed) if max_side else open_max
        least, greatest = min(pre_min[-1]), max(pre_max[-1])
        suffixes = (min_side, max_side)
        if suffix_sides is not None:
            need_min, need_max = suffix_sides(least, greatest)
            suffixes = (min_side and need_min, max_side and need_max)
        suf_min = backward(dfa, store, "min", symbols, old[2], changed) if suffixes[0] else open_min
        suf_max = backward(dfa, store, "max", symbols, old[3], changed) if suffixes[1] else open_max
        return cls(pre_min, pre_max, suf_min, suf_max, symbols, mark, suffixes, least, greatest)


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
