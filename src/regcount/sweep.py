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
(see "How a row is built"): it is left to the open rows of unbuilt or
skipped sides, which the filter sums over, and to :func:`backward` without
``live``, which ``dump-sweep`` runs.

Which entries are defined.  Every prefix entry is exact, and an unreachable
one is its side's sentinel object.  The forward sweep records the states
each prefix row ``i`` reaches as a list, ``live[i]``
(:attr:`SweepTable.live`); both sides reach the same states.  A suffix entry
is read only where some admissible prefix arrives: the filter reads
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
loops over the states the previous row reaches, relaxes
``new[next_state[q][s]]`` by ``row[q] + increment[q][s]`` through a running
min/max, and appends a state to its own list when the state's entry first
leaves the sentinel, so no loop scans a dense row for sentinels;
:func:`forward_pair` relaxes the min and the max row in the same loop.  A
backward row loops over ``live[i-1]``, or every state without ``live``:
entry ``q`` is the best of ``next_row[next_state[q][s]] + increment[q][s]``
over the position's symbols.

The speed of these loops rests on one invariant: in a row of a table, a
reached entry is an ``int`` and an unreached one is its side's sentinel
object.  A forward row reads ``row[q]`` only at reached states, and a
backward row built with ``live`` reads ``next_row`` only at states of
``live[i]``, which row ``i + 1`` holds as ints, so every sum is of two ints.
Each relax tests identity before it compares, so every compare is of two
ints too; on CPython 3.11 an int compared with a float costs 1.6–2 times as
much.  A forward relax writes the sum at an entry that ``is`` the sentinel,
listing the state as reached, and compares only with an entry already
written; :func:`forward_pair` writes both sides at a first reach and
otherwise makes two compares; a backward row writes its first symbol's sums
at the listed states and compares only the other symbols' sums, and a
position with no symbol keeps the all-sentinel row.  Without ``live``,
:func:`backward` also sums over unreached entries, and its rows hold ``inf``
values that equal the sentinel but need not be that object.

Both sweeps read a position's symbols from the pass's
:meth:`~regcount.domains.DomainStore.symbol_tuples` list, decoded once per
pass through the store's bounded mask cache.

One row costs O(|domain| * |states reached|), a full table at most O(n *
|alphabet| * |states|).

Prefix rows are built in full on every call.  On stores that take several
passes, one fused :func:`forward_pair` build of both sides runs within a few
percent of two single-side rebuilds from the first changed position, so the
prefix has one path.

Suffix rebuilds, and full builds as rebuilds.  Domains only shrink within
one propagator call, so a suffix side can be rebuilt from the previous
table's: given the previous rows and the ascending positions whose domains
changed since, :func:`backward` keeps the rows after the last changed
position and rebuilds towards row 1.  One cut-off rule ends each rebuilt
stretch: a rebuilt row equal to the old row keeps the old row object, and
since every row down to the next changed position reads an unchanged domain,
those rows equal the old ones too, so the sweep jumps to that position.
Every other row is stored at its index as built.  A full build is the same
rebuild against placeholder old rows, ``None``, that equal no built row: the
sweep starts from the base row n+1 with position n-1 changed, and no row is
cut off, so one row loop serves both.  Rows are replaced, never mutated, so
a previous table stays valid, and every row is either built by the sweep or
an unmodified row of the previous table; a partial rebuild costs at most a
full one plus one list comparison per rebuilt row.  Reachable sets only
shrink too, so a kept suffix row is true on a superset of the states now
reached: it stays sound, but it may differ from a row built now at a state
no longer reached, and the sweep then goes on where a full rebuild would
have stopped.

:meth:`SweepTable.compute` builds the min side (``pre_min``/``suf_min``), the
max side, or both, and runs only those sweeps: atmost needs the min side,
atleast the max side, exact and the decomposition both.  It builds the
prefix rows first, in one :func:`forward_pair` sweep when it builds both
sides and one :func:`forward` sweep otherwise, and records the least and
greatest full-string counters they yield.  A caller's hook may then read
these prefix rows, remove N-values, and skip the suffix rows of a built side
(a pass applies its N rule there, skips an end that the narrowed dom(N)
cannot bind, and both when it is bound to fail, see
:mod:`regcount.propagators`).  Every entry of an unbuilt side or skipped
suffix side is the unbounded end, ``-inf`` for min and ``+inf`` for max, so
an interval summed over it stays open on that end.  A suffix side that the previous table skipped has no rows
to start from, so a partial rebuild builds it in full.

Counters are exact integers, so no sum wraps or raises.  Increments stay
validated at ``<= U64_MAX``, which keeps every sum far below the float range,
so ``inf + x`` in the sentinel arithmetic stays valid.

These Python kernels, with the interval loop of :meth:`SweepTable.unsupported`,
are the reference of the compiled pass kernel, :mod:`regcount.kernel`.  It
runs the same loops in C over tables it keeps in C arrays, for the large
stores whose counters fit in ``int64``, and rebuilds every row on every
pass; these kernels run every other store.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore

#: Sentinel for "no admissible string" in min rows (orders above any value).
UNREACHABLE_MIN = math.inf
#: Sentinel for "no admissible string" in max rows (orders below any value).
UNREACHABLE_MAX = -math.inf


def forward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None,
            live: list | None = None) -> list[list[int | float]]:
    """Rows 0..n of per-state extremal prefix counters; row 0 is {start: 0}.

    ``symbols`` is the pass's :meth:`~regcount.domains.DomainStore.symbol_tuples`
    list, built here if omitted.  ``live``, if given, has one list appended
    per row, rows 0..n: the states that row reaches.

    A reached entry is an ``int`` and an unreached one the sentinel object,
    ``UNREACHABLE_MIN`` or ``UNREACHABLE_MAX``.  Each relax tests
    ``new[t] is sent`` first, writing the sum and listing ``t`` as reached,
    and otherwise compares two ints (see the module docstring).
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = store.symbol_tuples()
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    row: list[int | float] = [sent] * num_states
    row[dfa.start] = 0
    states = [dfa.start]
    rows = [row]
    if live is None:
        live = []
    live.append(states)
    for syms in symbols:
        new: list[int | float] = [sent] * num_states
        reached = []
        # Every row starts as [sent] * num_states and only the states the
        # previous row reaches write to it, so unreachable entries are
        # ``sent`` itself; a state is reached when its entry is first written,
        # and holds an int from then on.
        if minimize:
            for s in syms:
                for q in states:
                    c = row[q] + inc[q][s]
                    t = nxt[q][s]
                    d = new[t]
                    if d is sent:
                        reached.append(t)
                        new[t] = c
                    elif c < d:
                        new[t] = c
        else:
            for s in syms:
                for q in states:
                    c = row[q] + inc[q][s]
                    t = nxt[q][s]
                    d = new[t]
                    if d is sent:
                        reached.append(t)
                        new[t] = c
                    elif c > d:
                        new[t] = c
        rows.append(new)
        live.append(reached)
        row, states = new, reached
    return rows


def forward_pair(dfa: CounterDfa, store: DomainStore, symbols=None, live: list | None = None) -> tuple[list, list]:
    """Rows 0..n of both prefix sides, ``(pre_min, pre_max)``, in one sweep.

    Equal to ``forward(dfa, store, "min", symbols, live=live)`` and
    ``forward(dfa, store, "max", symbols)``: both sides reach the same
    states, so one loop over the states the previous row reaches relaxes
    both.  Every reachable entry is an ``int`` and every unreachable one its
    side's sentinel object, as in :func:`forward`.  A state's first reach,
    found by identity on the min side, writes both sides' sums; a later one
    makes two int compares.
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


def backward(dfa: CounterDfa, store: DomainStore, mode: str, symbols=None, previous=None,
             changed: Sequence[int] = (), live=None) -> list:
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

    ``previous``, if given, holds the rows of an earlier build in the same
    mode and ``changed`` the ascending positions whose domains have shrunk
    since.  The rows after the last changed position are kept, and the sweep
    rebuilds from there towards row 1: a rebuilt row equal to the old row at
    its index keeps the old row object and the sweep jumps to the next
    changed position (see the module docstring).  ``previous`` itself is
    returned if none changed.  Without ``previous`` the sweep is that rebuild
    from row n against placeholder rows, with position n-1 changed.
    """
    minimize = _minimize(mode)
    if symbols is None:
        symbols = store.symbol_tuples()
    sent = UNREACHABLE_MIN if minimize else UNREACHABLE_MAX
    num_states = dfa.num_states
    nxt, inc = dfa.next_state, dfa.increment
    n = store.n
    if previous is None:
        # A full build rebuilds from row n against old rows that equal no row.
        previous, changed = [None] * (n + 1) + [[0] * num_states], (n - 1,)
    elif not changed:
        return previous
    if live is None:
        live = [range(num_states)] * n  # every state, as dump-sweep prints them
    rows = list(previous)
    i = changed[-1] + 1
    while i > 0:
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
        if new == previous[i]:
            # Row i is the old row, so rows p+2 .. i-1, which read unchanged
            # domains, are too, p being the next changed position towards
            # row 1; the sweep resumes with row p+1, which reads p.
            k = bisect_left(changed, i - 1) - 1
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
    when the suffix sweeps ran, after :meth:`compute`'s hook.  ``live[i]``
    lists the states prefix row ``i`` reaches, in the order the forward sweep
    reached them; both sides reach the same states.  ``least`` and
    ``greatest`` are the least and greatest counters over admissible
    full-length strings, read off the last prefix rows: ``-inf`` and
    ``+inf`` for an unbuilt side.
    ``suffixes`` says which sides, (min, max), hold built suffix rows: a
    built side's suffix rows may be skipped (see :meth:`compute`).  Every
    row of an unbuilt side or skipped suffix side is one shared row of its
    unbounded end (``-inf`` for min, ``+inf`` for max), so callers need not
    know which rows were built.  Prefix rows are exact.  A built suffix row
    is exact at the states its side's prefix row one position earlier
    reaches, and elsewhere holds its true value or the sentinel (see the
    module docstring): the filter reads no other entry.
    """

    pre_min: list
    pre_max: list
    suf_min: list
    suf_max: list
    symbols: list
    live: list
    mark: int
    suffixes: tuple[bool, bool]
    least: int | float
    greatest: int | float

    @classmethod
    def compute(cls, dfa: CounterDfa, store: DomainStore, min_side: bool = True, max_side: bool = True,
                previous: "SweepTable | None" = None,
                after_prefix: Callable[[DomainStore, "SweepTable"], tuple[bool, bool]] | None = None) -> "SweepTable":
        """The table of ``store`` now.

        The prefix rows of the chosen sides are built in full first: both
        sides in one :func:`forward_pair` sweep, else one :func:`forward`
        sweep, which record :attr:`live`.  ``after_prefix``, if given, is
        then called with ``store`` and the table's prefix half, whose suffix
        rows all read as unbounded.  It may remove N-values, but no symbol,
        and returns which sides, (min, max), need suffix rows; by default
        every built side gets them.  :attr:`mark` is taken after it returns,
        and each suffix side is then built at the states of :attr:`live`.

        ``previous``, a table of the same store and sides built earlier, makes
        the suffix sweeps partial rebuilds: the positions of the symbol
        removals logged since ``previous.mark`` are the changed ones.  A
        suffix side that ``previous`` skipped is built in full.
        """
        symbols = store.symbol_tuples()
        rows = store.n + 2
        open_min = [[-math.inf] * dfa.num_states] * rows
        open_max = [[math.inf] * dfa.num_states] * rows
        live: list = []
        if min_side and max_side:
            pre_min, pre_max = forward_pair(dfa, store, symbols, live)
        else:
            pre_min = forward(dfa, store, "min", symbols, live) if min_side else open_min
            pre_max = forward(dfa, store, "max", symbols, live) if max_side else open_max
        # An open last row yields the unbounded end.
        table = cls(pre_min, pre_max, open_min, open_max, symbols, live, 0, (min_side, max_side),
                    min(pre_min[-1]), max(pre_max[-1]))
        if after_prefix is not None:
            need_min, need_max = after_prefix(store, table)
            table.suffixes = (min_side and need_min, max_side and need_max)
        table.mark = len(store.removal_log)
        changed, old_min, old_max = [], None, None
        if previous is not None:
            changed = sorted({var for var, _ in store.removal_log[previous.mark:] if var != COUNTER_VAR})
            old_min = previous.suf_min if previous.suffixes[0] else None
            old_max = previous.suf_max if previous.suffixes[1] else None
        if table.suffixes[0]:
            table.suf_min = backward(dfa, store, "min", symbols, old_min, changed, live)
        if table.suffixes[1]:
            table.suf_max = backward(dfa, store, "max", symbols, old_max, changed, live)
        return table

    def ends(self) -> list[tuple[int | float, int | float]]:
        """The ``(cheapest, costliest)`` interval of each end state, empty where unreached; both sides built."""
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
