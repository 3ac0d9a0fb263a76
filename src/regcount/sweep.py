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
min/max pass over it.  The sweeps of a table never form such a sum, though
(see "How a row is built"): it is left to the open rows of unbuilt suffix
sides, which the filter sums over, and to :func:`backward` without
``live``, which ``dump-sweep`` runs.

Which entries are defined.  Every prefix entry of both sides is exact, and
an unreachable one is its side's sentinel object.  The forward sweep
records the states each prefix row ``i`` reaches as a list, ``live[i]``
(:attr:`SweepTable.live`), which both sides share.  A suffix entry is
read only where some admissible prefix arrives: the filter reads
``suf[i+1][t]`` only for ``t = next_state[q][s]`` with ``q`` in
``live[i-1]``, so ``t`` is in ``live[i]``, and an entry of suffix row ``i``
at a state of ``live[i-1]`` reads only entries of row ``i+1`` at states of
``live[i]``.  So, as in Pesant's ``Regular``, the suffix sweep of a table
builds each row ``i`` only at the states of ``live[i-1]``, at one-symbol
positions too, and leaves the sentinel elsewhere.  Every suffix entry of a
table is then either its true value or the sentinel, and every entry the
filter reads is true.  :func:`backward` called without ``live`` builds every
entry, which is what ``dump-sweep`` prints.

How a row is built.  Every row of every sweep is one symbol-major loop: for
each symbol ``s`` of the position's domain, then each state ``q`` of a list,
it reads ``next_state[q][s]`` and ``increment[q][s]`` straight from the
automaton's row-major tables, at one-symbol positions too.  A forward row
loops over the states the row before it reaches, relaxes the min and the
max entry at ``next_state[q][s]`` by ``row[q] + increment[q][s]`` through
a running min and max, and appends a state to its own list when its min
entry first leaves the sentinel, so no loop scans a dense row for
sentinels.  A backward row loops over ``live[i-1]``, or every state
without ``live``: entry ``q`` is the best of
``next_row[next_state[q][s]] + increment[q][s]`` over the position's
symbols.

The speed of these loops rests on one invariant: in a row of a table, a
reached entry is an ``int`` and an unreached one is its side's sentinel
object.  A forward row reads ``row[q]`` only at reached states, and a
backward row built with ``live`` reads ``next_row`` only at states of
``live[i]``, which row ``i + 1`` holds as ints, so every sum is of two ints.
Each relax tests identity before it compares, so every compare is of two
ints too; on CPython 3.11 an int compared with a float costs 1.6–2 times as
much.  A forward relax writes both sides' sums where the min entry ``is``
the sentinel, listing the state as reached, and otherwise compares each
side with an entry already written; a backward row writes its first
symbol's sums at the listed states and compares only the other symbols'
sums, and a position with no symbol keeps the all-sentinel row.  Without
``live``, :func:`backward` also sums over unreached entries, and its rows
hold ``inf`` values that equal the sentinel but need not be that object.

Both sweeps read a position's symbols from the pass's
:meth:`~regcount.domains.DomainStore.symbol_tuples` list, decoded once per
pass through the store's bounded mask cache.

One row costs O(|domain| * |states reached|), a full table at most O(n *
|alphabet| * |states|).

Every call builds all its rows anew and keeps no row of an earlier build:
each sweep has one row loop, and no pass hands a table to the next.

:meth:`SweepTable.compute` builds both prefix sides, in one :func:`forward`
sweep, and reads the least and greatest full-string counters off them; it
builds no suffix row.  A pass applies its N rule to that prefix half, then
asks :meth:`SweepTable.suffix` for the suffix sides the narrowed dom(N) can
still bind: the min side (``suf_min``), the max side (``suf_max``), both or
none (see :mod:`regcount.propagators`).  Every entry of an unbuilt suffix
side is the unbounded end, ``-inf`` for min and ``+inf`` for max, so an
interval summed over it stays open on that end.

Counters are exact integers, so no sum wraps or raises.  Increments stay
validated at ``<= U64_MAX``, which keeps every sum far below the float range,
so ``inf + x`` in the sentinel arithmetic stays valid.

These Python kernels, with the interval loop of :meth:`SweepTable.unsupported`,
are the reference of the compiled pass kernel, :mod:`regcount.kernel`.  It
runs the same loops in C over tables it keeps in C arrays, for the large
stores whose counters fit in ``int64``; these kernels run every other store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .automaton import CounterDfa
from .domains import DomainStore

#: Sentinel for "no admissible string" in min rows (orders above any value).
UNREACHABLE_MIN = math.inf
#: Sentinel for "no admissible string" in max rows (orders below any value).
UNREACHABLE_MAX = -math.inf


def forward(dfa: CounterDfa, store: DomainStore, symbols=None, live: list | None = None) -> tuple[list, list]:
    """Rows 0..n of both prefix sides, ``(pre_min, pre_max)``; row 0 is {start: 0}.

    ``symbols`` is the pass's :meth:`~regcount.domains.DomainStore.symbol_tuples`
    list, built here if omitted.  ``live``, if given, has one list appended
    per row, rows 0..n: the states that row reaches.

    Both sides reach the same states, so one loop over the states the row
    before reaches relaxes both.  A reached entry is an ``int`` and an
    unreached one its side's sentinel object, ``UNREACHABLE_MIN`` or
    ``UNREACHABLE_MAX``.  A state's first reach, found by identity on the min
    side, writes both sides' sums and lists the state as reached; a later
    one makes two int compares (see the module docstring).
    """
    if symbols is None:
        symbols = store.symbol_tuples()
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    sent = UNREACHABLE_MIN  # the min side tells a first reach
    low: list[int | float] = [sent] * num_states
    high: list[int | float] = [UNREACHABLE_MAX] * num_states
    low[dfa.start] = high[dfa.start] = 0
    states = [dfa.start]
    pre_min, pre_max = [low], [high]
    if live is None:
        live = []
    live.append(states)
    for syms in symbols:
        new_low: list[int | float] = [sent] * num_states
        new_high: list[int | float] = [UNREACHABLE_MAX] * num_states
        reached = []
        for s in syms:
            for q in states:
                step = inc[q][s]
                t = nxt[q][s]
                lo = low[q] + step
                hi = high[q] + step
                d = new_low[t]
                if d is sent:
                    reached.append(t)
                    new_low[t] = lo
                    new_high[t] = hi
                else:
                    if lo < d:
                        new_low[t] = lo
                    if hi > new_high[t]:
                        new_high[t] = hi
        pre_min.append(new_low)
        pre_max.append(new_high)
        live.append(reached)
        low, high, states = new_low, new_high, reached
    return pre_min, pre_max


def backward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None, live=None) -> list:
    """Rows 1..n+1 of per-state extremal suffix counters (index 0 unused).

    Entry ``q`` of row ``i`` is the extremal counter increase over the
    admissible suffixes ``s_i..s_n`` read from ``q``, wherever they end, so
    row n+1 is 0 at every state.  ``live``, if given, holds the states each
    prefix row reaches, as :func:`forward` fills it (see
    :attr:`SweepTable.live`); this sweep only reads it, and neither fills
    nor appends to it.  Row ``i`` is then built only at the states of
    ``live[i-1]``, and every other entry is the sentinel, so every entry the
    filter reads is true (see the module docstring); without ``live`` every
    entry is true.  A row writes its position's first symbol's sums at its
    listed states and compares only the other symbols' sums; with ``live``
    each sum and compare is of two ints, and every entry is an ``int`` or
    the sentinel object.  Without ``live``, an unreachable entry is ``inf``
    or ``-inf``, equal to the sentinel but not always that object.
    ``symbols`` works as in :func:`forward`.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    minimize = mode == "min"
    if symbols is None:
        symbols = store.symbol_tuples()
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    n = store.n
    if live is None:
        live = [range(num_states)] * n  # every state, as dump-sweep prints them
    rows: list = [None] * (n + 1) + [[0] * num_states]
    for i in range(n, 0, -1):
        syms = symbols[i - 1]
        suffix = rows[i + 1]
        states = live[i - 1]
        new = [sent] * num_states
        if syms:
            # The first symbol seeds every listed entry, so the others only
            # compare; a position with no symbol keeps the all-sentinel row.
            s = syms[0]
            for q in states:
                new[q] = suffix[nxt[q][s]] + inc[q][s]
        if minimize:
            for s in syms[1:]:
                for q in states:
                    c = suffix[nxt[q][s]] + inc[q][s]
                    if c < new[q]:
                        new[q] = c
        else:
            for s in syms[1:]:
                for q in states:
                    c = suffix[nxt[q][s]] + inc[q][s]
                    if c > new[q]:
                        new[q] = c
        rows[i] = new
    return rows


@dataclass
class SweepTable:
    """The pre/suf vectors of one store: both prefix sides, and the suffix sides a pass asks for.

    ``symbols`` is the :meth:`~regcount.domains.DomainStore.symbol_tuples`
    list the sweeps ran on.  ``live[i]`` lists the states prefix row ``i``
    reaches, in the order the forward sweep reached them; both sides reach
    the same states.  Prefix rows are exact on both sides.  ``least`` and
    ``greatest`` are the least and greatest counters over admissible
    full-length strings, read off the last prefix rows.  :meth:`compute`
    builds the prefix half, and :meth:`suffix` then the suffix sides a pass
    asks for; ``suffixes`` says which sides, (min, max), hold built suffix
    rows.  Every row of an unbuilt suffix side is one shared row of its
    unbounded end (``-inf`` for min, ``+inf`` for max), so callers need not
    know which rows were built.  A built suffix row is exact at the states
    prefix row one position earlier reaches, and the sentinel elsewhere (see
    the module docstring): the filter reads no other entry.
    """

    pre_min: list
    pre_max: list
    suf_min: list
    suf_max: list
    symbols: list
    live: list
    suffixes: tuple[bool, bool]
    least: int | float
    greatest: int | float

    @classmethod
    def compute(cls, dfa: CounterDfa, store: DomainStore) -> "SweepTable":
        """The prefix half of ``store``'s table now: both prefix sides, ``least`` and ``greatest``.

        Both prefix sides are built in full, in one :func:`forward` sweep,
        which records :attr:`live`.  No suffix side is built:
        :attr:`suffixes` is ``(False, False)`` and every suffix row reads as
        unbounded until :meth:`suffix` builds it.
        """
        symbols = store.symbol_tuples()
        rows = store.n + 2
        live: list = []
        pre_min, pre_max = forward(dfa, store, symbols, live)
        return cls(pre_min, pre_max, [[-math.inf] * dfa.num_states] * rows, [[math.inf] * dfa.num_states] * rows,
                   symbols, live, (False, False), min(pre_min[-1]), max(pre_max[-1]))

    def suffix(self, dfa: CounterDfa, store: DomainStore, min_side: bool, max_side: bool) -> None:
        """Build the suffix sides ``(min_side, max_side)`` of this table, each in full at the states of :attr:`live`.

        ``store`` is the one :meth:`compute` built the table for, with no
        symbol removed since; an N-value may have been.  Called once per
        table; a side not asked for stays unbounded.
        """
        if min_side:
            self.suf_min = backward(dfa, store, "min", self.symbols, self.live)
        if max_side:
            self.suf_max = backward(dfa, store, "max", self.symbols, self.live)
        self.suffixes = (min_side, max_side)

    def ends(self) -> list[tuple[int | float, int | float]]:
        """The ``(cheapest, costliest)`` interval of each end state, empty where unreached."""
        return list(zip(self.pre_min[-1], self.pre_max[-1]))

    def unsupported(self, dfa: CounterDfa, store: DomainStore, windows, holes: bool,
                    seen: set | None) -> list[tuple[int, int]]:
        """The interval loop: the ``(position, symbol)`` pairs no interval supports.

        For each window ``(floor, ceiling)`` in turn, each position ``i``
        (from 1) with several symbols, in order, and each of its symbols,
        ascending, the pair ``(i - 1, sym)`` is unsupported iff no state of
        ``live[i - 1]`` gives an interval ``[lo, hi]`` through it that meets
        the window, and with ``holes`` dom(N) itself.  A pair appears once per window that finds it
        unsupported.  ``seen``, if given, gets the ``lo`` (where the min
        suffix side is built) or else the ``hi`` of each support found.  A
        position with one symbol is skipped: any survivor one position
        earlier supports it (see :mod:`regcount.propagators`).
        """
        nxt, inc = dfa.next_state, dfa.increment
        min_only = self.suffixes[0]
        found = []
        for floor, ceiling in windows:
            for i, syms in enumerate(self.symbols, 1):
                if len(syms) == 1:
                    continue
                states = self.live[i - 1]
                pre_min_row = self.pre_min[i - 1]
                pre_max_row = self.pre_max[i - 1]
                suf_min_row = self.suf_min[i + 1]
                suf_max_row = self.suf_max[i + 1]
                for sym in syms:
                    for q in states:
                        t = nxt[q][sym]
                        step = inc[q][sym]
                        lo = pre_min_row[q] + step + suf_min_row[t]
                        hi = pre_max_row[q] + step + suf_max_row[t]
                        assert lo != UNREACHABLE_MIN and hi != UNREACHABLE_MAX, "reachable state lost all completions"
                        if lo <= ceiling and hi >= floor and (not holes or store.counter_has_between(lo, hi)):
                            if seen is not None:
                                seen.add(lo if min_only else hi)
                            break
                    else:
                        found.append((i - 1, sym))
        return found


def format_row(row, state_names: Sequence[str]) -> str:
    """Reachable entries as ``name=value`` pairs in state order."""
    parts = [f"{state_names[q]}={int(c)}" for q, c in enumerate(row) if not math.isinf(c)]
    return ",".join(parts)


def format_rows(rows, state_names: Sequence[str], first_index: int) -> list[str]:
    """One ``i: name=value,...`` line per row, numbering from ``first_index``."""
    return [f"{first_index + offset}: {format_row(row, state_names)}" for offset, row in enumerate(rows)]
