"""Run the propagators on one pass kernel, the compiled one ("c") or the
Python kernels ("python"); record the tables either kernel builds and judge
each build against its own store; and the propagator properties that the
tests run on either kernel."""

import contextlib
import math
from typing import NamedTuple
from unittest import mock

import reference_kernel
from regcount import (COUNTER_VAR, CounterDfa, DomainStore, SweepTable, enumerate_support, kernel, propagate,
                      propagate_decomposed, propagate_exact, propagators)
from regcount.propagators import FIXPOINT
from regcount.sweep import UNREACHABLE_MIN
from strategies import MULTI_PASS_WITNESSES

MODES = ("atmost", "atleast", "exact", "decomposed")
#: The ends each mode's rule bounds, (cheapest, costliest): the prefix sides
#: a C table of the mode builds.
BOUND_ENDS = {"atmost": (True, False), "atleast": (False, True), "exact": (True, True), "decomposed": (True, True)}


@contextlib.contextmanager
def forced(name):
    """Send every store in the block that ``name`` can run to it.

    Forcing "c" drops the size test only: a store whose counters could
    leave int64 still runs the Python kernels.
    """
    if name == "c":
        assert kernel._library() is not None, "the C kernel did not build"
    with mock.patch.object(kernel, "_MIN_CELLS", 0 if name == "c" else math.inf):
        yield


def outcome(dfa, store, mode):
    """One mode's status, removals in order, passes and final domains, on a copy of ``store``."""
    work = store.copy()
    out = propagate(dfa, work, mode)
    return mode, out.status, out.removals, out.passes, work.domains, work.counter


def outcomes(dfa, store):
    """:func:`outcome` per mode."""
    return [outcome(dfa, store, mode) for mode in MODES]


def checked_outcomes(dfa, store, modes=MODES):
    """:func:`outcome` per mode, with every build judged by :func:`check`;
    also returns each mode's builds."""
    result, builds = [], {}
    for mode in modes:
        with checked(mode) as builds[mode]:
            result.append(outcome(dfa, store, mode))
    return result, builds


class Build(NamedTuple):
    """One table a pass built: its class's name, its entries (see
    :func:`entries`), its ``least`` and ``greatest``, the automaton and the
    store it was built for (the domains at ``compute``, and dom(N) as the
    pass's N rule left it), its built suffix sides, and the removal log's
    length after the N rule, ``None`` if it built no side."""

    kind: str
    rows: list
    least: int | float
    greatest: int | float
    dfa: CounterDfa
    store: DomainStore
    sides: tuple
    logged: int | None


@contextlib.contextmanager
def recorded_tables():
    """Record each pass in the block as ``_filter`` reports it, while it ends, on
    either kernel: a :class:`Build` of its table, or ``None`` for a ground store's."""
    builds = []

    def record(dfa, store, table, start):
        if table is None:
            return builds.append(None)
        found, symbols = store.copy(), [(i, sym) for i, sym in store.removal_log[start:] if i != COUNTER_VAR]
        for i, sym in symbols:
            found.domains[i] |= 1 << sym  # the domains as at compute; dom(N) as the N rule left it
        sweep = type(table) is SweepTable
        assert (found.symbol_tuples() if sweep else found.domains) == (table.symbols if sweep else list(table.domains))
        logged = len(store.removal_log) - len(symbols) if any(table.suffixes) else None
        builds.append(Build(type(table).__name__, (sweep_entries if sweep else c_entries)(table), table.least,
                            table.greatest, dfa, found, table.suffixes, logged))

    with mock.patch.object(propagators, "_on_pass", record):
        yield builds


@contextlib.contextmanager
def checked(mode):
    """:func:`recorded_tables`, with every build judged by :func:`check` when the block ends."""
    with recorded_tables() as builds:
        yield builds
    check(mode, builds)


def check(mode, builds):
    """Judge every build of ``mode`` calls, on either kernel, against its own store.

    Its suffix sides follow :func:`expected_sides`.  A ``SweepTable``'s
    entries, ``least`` and ``greatest`` equal the reference loops' wherever
    the filter reads them.  A ``CTable``'s equal those of a fresh
    ``SweepTable`` of the same store, on the prefix sides it built.
    """
    for build in filter(None, builds):
        dfa, store, live = build.dfa, build.store, build.rows[0]
        assert build.sides == expected_sides(mode, build, store.counter), (mode, build.kind)
        if build.kind == "SweepTable":
            pre = [reference_kernel.forward(dfa, store, side) for side in ("min", "max")]
            suf = [reference_kernel.backward(dfa, store, [0] * dfa.num_states, side) if built else None
                   for side, built in zip(("min", "max"), build.sides)]
            reached = [sorted(q for q, c in enumerate(row) if c != UNREACHABLE_MIN) for row in pre[0]]
            assert [sorted(states) for states in live] == reached, mode
            # The kernels compare two ints in every relax.
            assert all(type(c) is int for side in build.rows[1:] for row in side for c in row), mode
            prefix = (True, True)
        else:
            fresh, prefix = SweepTable.compute(dfa, store), BOUND_ENDS[mode]
            fresh.suffix(dfa, store, *build.sides)
            pre, suf, live = (fresh.pre_min, fresh.pre_max), (fresh.suf_min, fresh.suf_max), fresh.live
        assert build.rows == entries(live, chosen(pre, prefix), chosen(suf, build.sides)), (mode, build.kind)
        ends = min(pre[0][-1]), max(pre[1][-1])
        assert chosen((build.least, build.greatest), prefix) == chosen(ends, prefix), (mode, build.kind)


def chosen(sides, built):
    """The items of ``sides``, a (min, max) pair, where ``built`` is true."""
    return [side for side, keep in zip(sides, built) if keep]


def expected_sides(mode, table, counter):
    """The suffix sides, (min, max), that a pass of ``mode`` with this prefix
    half builds, given dom(N) as its N rule leaves it.

    A pass whose dom(N) misses [least, greatest], or which the N rule
    empties, fails before it reads a suffix row.  Otherwise a one-sided rule
    reads its suffix side in every pass.  Exact reads both when dom(N) has
    holes; else exact, and the decomposition, which ignores holes, read only
    the ends where dom(N) cuts into [least, greatest].
    """
    min_side, max_side = BOUND_ENDS[mode]
    least = table.least if min_side else -math.inf
    greatest = table.greatest if max_side else math.inf
    if not any(least <= v <= greatest for v in counter):
        return False, False
    if not (min_side and max_side):
        return min_side, max_side
    if mode == "exact" and counter[-1] - counter[0] >= len(counter):
        return True, True
    return counter[-1] < greatest, counter[0] > least


def entries(live, pre_sides, suf_sides):
    """A table's rows as a :class:`Build` keeps them: the reached-state lists
    ``live``, each prefix side's entries at them, and each suffix side's
    entries at the states one row earlier; a side is a list of dense rows."""
    rows = [live]
    rows += [[[row[q] for q in states] for row, states in zip(pre, live)] for pre in pre_sides]
    rows += [[[suf[i][q] for q in live[i - 1]] for i in range(1, len(live))] for suf in suf_sides]
    return rows


def sweep_entries(table):
    """:func:`entries` of a ``SweepTable``: both prefix sides, and its built suffix sides."""
    return entries(table.live, (table.pre_min, table.pre_max), chosen((table.suf_min, table.suf_max), table.suffixes))


def c_entries(table):
    """:func:`entries` of a ``CTable``, read off its flat arrays: the prefix
    sides it was made with (its ``prefix_sides``), and its built suffix
    sides.  The thread's arrays may run past the table's ``n + 2`` rows."""
    width = table.num_states

    def dense(flat):
        return [flat[i * width:(i + 1) * width] for i in range(table.n + 2)]

    live = [table.live[i * width:i * width + count] for i, count in enumerate(table.live_len[:table.n + 1])]
    pre = [dense(flat) for flat in chosen((table.pre_min, table.pre_max), table.prefix_sides)]
    suf = [dense(flat) for flat in chosen((table.suf_min, table.suf_max), table.suffixes)]
    return entries(live, pre, suf)


# -- propagator properties, on whichever kernel the route picks ---------------------


def multi_pass_witness_reaches_its_fixpoint(name):
    """Exact's removals and passes on one of :data:`strategies.MULTI_PASS_WITNESSES`,
    against the reference loop, the oracle and the decomposition."""
    next_state, increment, domains, counter, removed, passes, decomposed = MULTI_PASS_WITNESSES[name]
    dfa = CounterDfa(num_states=2, alphabet=("a", "b", "c")[:len(next_state[0])], start=0,
                     next_state=next_state, increment=increment)

    def store():
        return DomainStore(dfa.num_symbols, [[dfa.symbol_id(s) for s in position.split(",")]
                                             for position in domains.split(";")], counter)

    def ids(removals):
        return {(var, value if var == COUNTER_VAR else dfa.symbol_id(value)) for var, value in removals}

    out = propagate_exact(dfa, store())
    assert (out.status, set(out.removals), out.passes) == (FIXPOINT, ids(removed), passes)
    reference = reference_kernel.propagate_exact(dfa, store())
    assert (reference.status, set(reference.removals)) == (out.status, set(out.removals))
    assert 11 not in enumerate_support(dfa, store(), "exact").supported_counter
    baseline = propagate_decomposed(dfa, store())
    assert (baseline.status, set(baseline.removals)) == (FIXPOINT, ids(decomposed))


def decomposed_reaches_the_fixpoint_of_alternating_runs(dfa, store):
    # One two-sided run per round against the reference loop, which
    # alternates whole atmost and atleast runs: the same status, and at a
    # fixpoint the same final store and removal set.  Removal order and
    # passes differ by design.  Windowed stores reach passes in which both
    # ends bind, the only ones where checking each end on its own differs
    # from exact's check of both ends at one state.
    new_store, old_store = store.copy(), store.copy()
    new = propagate_decomposed(dfa, new_store)
    old = reference_kernel.propagate_decomposed(dfa, old_store)
    assert new.status == old.status
    if not new.failed:
        assert new_store == old_store
        assert set(new.removals) == set(old.removals)


def certified_fixpoints_remove_nothing_more(dfa, store):
    # Exact and the decomposition return after a pass that removed a symbol
    # when that pass certifies that the next one would remove nothing: only
    # a pass that built one suffix side can, by its supports' counters.  On
    # such a call's result, a fresh run and the plain reference loop remove
    # nothing.  Every build is judged.  Returns the certifying pass's build,
    # by mode.
    certified = {}
    for mode, reference in (("exact", reference_kernel.propagate_exact),
                            ("decomposed", reference_kernel.propagate_decomposed)):
        work = store.copy()
        with checked(mode) as builds:
            out = propagate(dfa, work, mode)
        if out.failed or builds[-1] is None or builds[-1].logged in (None, len(work.removal_log)):
            continue  # no pass certified: the one pass built no table, or the last one checked or removed no symbol
        certified[mode] = last = builds[-1]
        assert last.sides in ((True, False), (False, True)), mode
        again = propagate(dfa, work.copy(), mode)
        assert (again.status, again.removals) == (FIXPOINT, []), mode
        confirmed = reference(dfa, work.copy())
        assert (confirmed.status, confirmed.removals) == (FIXPOINT, []), mode
    return certified


def ground_store_takes_one_pass_without_a_table(dfa, store):
    # A ground store has one word: its one pass runs the word and applies
    # the N rule, and builds no table on either kernel.  The outcome is the
    # plain loops': status, removals in order and final store, and for the
    # decomposition the status, and at a fixpoint the final store and
    # removal set.
    for mode, reference in reference_kernel.PROPAGATORS.items():
        new_store, old_store = store.copy(), store.copy()
        with recorded_tables() as builds:
            new = propagate(dfa, new_store, mode)
        assert (builds, new.passes) == ([None], 1), mode
        old = reference(dfa, old_store)
        assert (new.status, new.removals, new_store) == (old.status, old.removals, old_store), mode
    with recorded_tables() as builds:
        passes = propagate_decomposed(dfa, store.copy()).passes
    assert (builds, passes) == ([None], 1)
    decomposed_reaches_the_fixpoint_of_alternating_runs(dfa, store)
