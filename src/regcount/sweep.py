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
* A backward row is a gather over per-symbol transition columns: for symbol
  ``s``, ``map(add, map(next_row.__getitem__, next_col[s]), inc_col[s])``
  gives every state's cost through ``s`` at once, and ``map(min, ...)`` (or
  ``max``) over the domain's symbols gives the row.

One row costs O(|domain| * |states|), a full table O(n * |alphabet| *
|states|).

Partial rebuilds.  Domains only shrink within one propagator call, so a
table can be rebuilt from the previous one: given the previous rows and the
ascending positions whose domains changed since, :func:`forward` keeps the
rows before the first changed position and rebuilds from there, and
:func:`backward` keeps the rows after the last one and rebuilds towards row
1.  One cut-off rule ends each rebuilt stretch: a rebuilt row that equals the
old row plus a constant ``c`` makes every row up to the next changed position
the old row plus ``c``, since a sweep step (a min or max of entries plus fixed
increments) commutes with adding ``c`` to every entry, so the sweep jumps to
that position.  With ``c = 0`` it keeps the old
row objects; otherwise it builds the offset rows.  Rows are replaced, never
mutated, so a previous table stays valid.  An offset forward row keeps every
unreachable entry the sentinel object itself (``inf + c`` would be a new
float), because the filter and the forward sweep test reachability with
``is``.

:meth:`SweepTable.compute` builds the min side (``pre_min``/``suf_min``), the
max side, or both, and runs only those sweeps: atmost needs the min side,
atleast the max side, exact and the decomposition both.  It builds the
prefix rows first; a caller may then skip the suffix rows of a built side,
given the least and greatest full-string counters those rows yield (a pass
skips an end that dom(N) cannot bind, and both when it is bound to fail, see
:mod:`regcount.propagators`).  Every entry of an
unbuilt side or skipped suffix side is the unbounded end, ``-inf`` for min
and ``+inf`` for max, so an interval summed over it stays open on that end.
A suffix side that the previous table skipped has no rows to start from, so
a partial rebuild builds it in full.

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
from typing import Callable, Sequence

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore

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


def forward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None, previous=None,
            changed: Sequence[int] = ()) -> list[list[int | float]]:
    """Rows 0..n of per-state extremal prefix counters; row 0 is {start: 0}.

    ``symbols`` is the pass's :func:`pass_symbols` list, built here if omitted.
    ``previous``, if given, holds the rows of an earlier build in the same
    mode, and ``changed`` the ascending positions whose domains have shrunk
    since; only the rows those positions reach are rebuilt (see the module
    docstring), and ``previous`` itself is returned if none changed.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = pass_symbols(store)
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
        t = -1  # after the loop, a state ``new`` reaches, if it reaches any
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
        rows[i] = row = new
        if previous is not None and t >= 0 and (shift := _offset(new, previous[i], t, sent)) is not None:
            # Rows i+1 .. stop read unchanged domains, so each is the old row
            # plus ``shift``; row stop+1 reads the next changed position.
            while k < len(changed) and changed[k] < i:
                k += 1
            stop = changed[k] if k < len(changed) else n
            if shift == 0:
                rows[i] = previous[i]
            else:
                for j in range(i + 1, stop + 1):
                    rows[j] = _shifted(previous[j], shift, sent)
            i = stop
            row = rows[i]
    return rows


def backward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None, previous=None,
             changed: Sequence[int] = ()) -> list:
    """Rows 1..n+1 of per-state extremal suffix counters (index 0 unused).

    Entry ``q`` of row ``i`` is the extremal counter increase over the
    admissible suffixes ``s_i..s_n`` read from ``q``, wherever they end, so
    row n+1 is 0 at every state.  ``symbols``, ``previous`` and ``changed``
    work as in :func:`forward`; here the rebuild starts at the last changed
    position and runs towards row 1.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = pass_symbols(store)
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
    cols = columns(dfa)
    next_cols, inc_cols = cols.next_state, cols.increment
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
        rows[i] = new
        # A suffix row is finite at every state or at none, so entry 0 serves.
        if previous is not None and (shift := _offset(new, previous[i], 0, sent)) is not None:
            # Rows stop+1 .. i-1 read unchanged domains, so each is the old
            # row plus ``shift``; row stop reads the next changed position.
            while k >= 0 and changed[k] > i - 2:
                k -= 1
            stop = changed[k] + 1 if k >= 0 else 0
            if shift == 0:
                rows[i] = previous[i]
            else:
                for j in range(stop + 1, i):
                    rows[j] = _shifted(previous[j], shift, sent)
            i = stop
        else:
            i -= 1
    return rows


def _offset(new: list, old: list, q: int, sent):
    """The constant ``c`` with ``new == old + c`` entry by entry, or ``None``.

    ``q`` indexes an entry of ``new`` that is reachable whenever any is; an
    unreachable entry must stay unreachable under ``c``.
    """
    if new == old:
        return 0
    c = new[q] - old[q]
    return c if _shifted(old, c, sent) == new else None


def _shifted(row: list, c, sent) -> list:
    """``row`` plus ``c``, keeping every entry that is the sentinel ``sent`` itself."""
    return [x if x is sent else x + c for x in row]


def _minimize(mode: str) -> bool:
    if mode == "min":
        return True
    if mode == "max":
        return False
    raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")


@dataclass
class SweepTable:
    """The pre/suf vectors of one store in min mode, max mode, or both.

    ``symbols`` is the :func:`pass_symbols` list the sweeps ran on and
    ``mark`` the length of the store's removal log when they ran.
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

    @classmethod
    def compute(cls, dfa: CounterDfa, store: DomainStore, min_side: bool = True, max_side: bool = True,
                previous: "SweepTable | None" = None,
                suffix_sides: Callable[[int, int], tuple[bool, bool]] | None = None) -> "SweepTable":
        """The table of ``store`` now.

        The prefix rows of the chosen sides are built first.  ``suffix_sides``,
        if given, is then called with the least and greatest full-string
        counters (as :meth:`global_min` and :meth:`global_max` read them) and
        returns which sides, (min, max), need suffix rows; by default every
        built side gets them.

        ``previous``, a table of the same store and sides built earlier, makes
        this a partial rebuild: the positions of the symbol removals logged
        since ``previous.mark`` are the changed ones.  A suffix side that
        ``previous`` skipped is built in full.
        """
        mark = len(store.removal_log)
        symbols = pass_symbols(store)
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
        suffixes = (min_side, max_side)
        if suffix_sides is not None:
            need_min, need_max = suffix_sides(min(pre_min[-1]), max(pre_max[-1]))
            suffixes = (min_side and need_min, max_side and need_max)
        suf_min = backward(dfa, store, "min", symbols, old[2], changed) if suffixes[0] else open_min
        suf_max = backward(dfa, store, "max", symbols, old[3], changed) if suffixes[1] else open_max
        return cls(pre_min, pre_max, suf_min, suf_max, symbols, mark, suffixes)

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
