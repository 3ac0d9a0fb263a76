"""Run the propagators on one pass kernel, the compiled one ("c") or the
Python kernels ("python"), and record the tables either kernel builds."""

import contextlib
import math
from typing import NamedTuple
from unittest import mock

from regcount import SweepTable, kernel, propagate
from regcount.kernel import CTable

KERNELS = ("python", "c")
MODES = ("atmost", "atleast", "exact", "decomposed")


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


def outcomes(dfa, store):
    """Per mode: status, removals in order, passes and the final domains."""
    result = []
    for mode in MODES:
        work = store.copy()
        out = propagate(dfa, work, mode)
        result.append((mode, out.status, out.removals, out.passes, work.domains, work.counter))
    return result


class Build(NamedTuple):
    """One table a pass built: its class's name, its entries (see
    :func:`sweep_entries`), the suffix sides the pass built, and the removal
    log's length after the pass's N rule, ``None`` if it built no side."""

    kind: str
    rows: list
    sides: tuple = (False, False)
    logged: int | None = None


@contextlib.contextmanager
def recorded_tables():
    """Record a :class:`Build` per table a pass builds in the block, on
    either kernel: its prefix half when ``compute`` returns, then the whole
    table once the pass's ``suffix`` returns."""
    builds = []

    def recording(cls, snapshot):
        # SweepTable.compute is a classmethod, CTable.compute a method.
        descriptor, suffix = cls.__dict__["compute"], cls.suffix
        compute = getattr(descriptor, "__func__", descriptor)

        def computing(owner, dfa, store):
            table = compute(owner, dfa, store)
            builds.append(Build(cls.__name__, snapshot(table)))
            return table

        def suffixing(table, dfa, store, min_side, max_side):
            # No sweep removes a value, so the log is as the N rule left it.
            logged = len(store.removal_log)
            suffix(table, dfa, store, min_side, max_side)
            builds[-1] = Build(cls.__name__, snapshot(table), (min_side, max_side), logged)

        computing = classmethod(computing) if isinstance(descriptor, classmethod) else computing
        return mock.patch.multiple(cls, compute=computing, suffix=suffixing)

    with recording(SweepTable, sweep_entries), recording(CTable, c_entries):
        yield builds


def sweep_entries(table):
    """The reached-state lists, then both prefix sides' entries at them and
    each built suffix side's entries at the states one row earlier."""
    live = table.live
    rows = [live]
    rows += [[[row[q] for q in states] for row, states in zip(pre, live)] for pre in (table.pre_min, table.pre_max)]
    rows += [[[suf[i][q] for q in live[i - 1]] for i in range(1, len(live))]
             for suf, built in zip((table.suf_min, table.suf_max), table.suffixes) if built]
    return rows


def c_entries(table):
    """:func:`sweep_entries` read off a C table's flat arrays, whose prefix
    entries are built on its ``prefix_sides`` only; the thread's arrays may
    run past the table's ``n + 1`` rows."""
    width = table.num_states
    live = [table.live[i * width:i * width + count] for i, count in enumerate(table.live_len[:table.n + 1])]
    rows = [live]
    rows += [[[pre[i * width + q] for q in states] for i, states in enumerate(live)]
             for pre, built in zip((table.pre_min, table.pre_max), table.prefix_sides) if built]
    rows += [[[suf[i * width + q] for q in live[i - 1]] for i in range(1, len(live))]
             for suf, built in zip((table.suf_min, table.suf_max), table.suffixes) if built]
    return rows
