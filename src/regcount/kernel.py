"""The compiled pass kernel: one propagator pass over tables kept in C arrays.

``_pass.c`` is the C counterpart of :mod:`regcount.sweep`'s Python kernels
(``forward`` and ``backward`` at the reached states) and of
:meth:`~regcount.sweep.SweepTable.unsupported`, the interval loop.
:class:`CTable` is its counterpart of :class:`~regcount.sweep.SweepTable`:
the same ``compute``, ``suffix`` and ``unsupported`` calls, the same ``least``,
``greatest`` and ``suffixes``, so :mod:`regcount.propagators` runs one pass
loop, one N rule and one ground scan over either kernel.  The rows stay in C
arrays; Python reads only the end rows, for the N rule, and the unsupported
``(position, symbol)`` pairs, which it removes itself.  Each pass rebuilds
all its rows, as the Python kernels build every table in full.

The arrays belong to the thread.  Every ``CTable`` is a view over one set
of arrays per thread, replaced only when a store needs larger ones, so a
thread holds at most one table's worth of memory, and a call whose store
fits allocates no table arrays and touches no fresh pages.  Beside them the
thread keeps the automaton it last used, flattened once and found again by
identity, with its largest increment, which :func:`usable` reads, and the
pass context that ``_pass.c`` reads.  The context points into both, and is
re-pointed only when the arrays are replaced or the automaton changes; a
table sets its ``n`` and nothing else.  One table is live per thread: a new
one takes over the arrays and the context of the last.
No result depends on a stale entry, from an earlier pass, store or shape;
the header of ``_pass.c`` says why.
ctypes releases the GIL during a C call, so two threads must not share
arrays, and they do not.

When it runs.  :func:`usable` sends a store to the C kernel only if

* n × num_states is at least ``_MIN_CELLS``, 30.  Per call, C ran
  fuzz-oracle-shaped stores (n 9–12) in 0.52–0.75× of the Python kernels'
  time, and search-dfs-shaped ones of 5 cells or more in 0.75–1.04×.  But
  an op flattens its new automaton once, and pays each C call's fixed cost,
  so with a lower cut-off search-dfs's median op, which runs small stores,
  took longer: 2% at 25 cells, 5% at 20.  At 30 it did not move, and
  fuzz-oracle's ops took 6% less time in all (ROADMAP item 6).  This test
  comes first, so a store below the cut-off pays for no other;
* the alphabet has at most 64 symbols, so a domain is one ``uint64`` mask;
* n × (largest increment) is below 2^62 and every dom(N) value fits in
  ``int64``, so no ``int64`` sum overflows and a counter means the same on
  both kernels;
* the library loads.

Every other store runs the Python kernels.

Where it is built.  The first store that passes the other tests builds
``_pass.c`` with ``cc -O2 -shared -fPIC`` into ``_build/`` next to it, under
a name keyed by the CRC-32 of that command and the source, so no library
built by another command or from another source is loaded.  It is written
to a temporary name and renamed into place, so processes that build at once
never load a half-written file.
The directory must belong to the user and be writable by no one else.  If
anything fails (no compiler, a compile error, a directory that cannot be
used, a library that does not load), every store runs the Python kernels
for the rest of the process, and nothing is printed.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import subprocess
import tempfile
import threading
import zlib
from array import array
from ctypes import POINTER, c_int, c_int32, c_int64, c_void_p
from itertools import chain

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pass.c")
_CACHE = os.path.join(os.path.dirname(_SOURCE), "_build")
_CC = "cc"
_FLAGS = ("-O2", "-shared", "-fPIC")
#: Least n × num_states that runs the C kernel: the least cut-off at which
#: search-dfs's median op was measured no slower (see "When it runs" above).
_MIN_CELLS = 30
#: The library, once loaded; ``False`` once loading failed; ``None`` before the first try.
_lib = None

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
#: An open window end as an int64; every finite one, a dom(N) value, fits (see usable).
_CLAMPED = {-math.inf: _INT64_MIN, math.inf: _INT64_MAX}


class _Pass(ctypes.Structure):
    # rc_pass in _pass.c.
    _fields_ = [("n", c_int32), ("num_states", c_int32), ("num_symbols", c_int32), ("start", c_int32),
                ("next_state", c_void_p), ("increment", c_void_p), ("domains", c_void_p),
                ("pre_min", c_void_p), ("pre_max", c_void_p), ("suf_min", c_void_p), ("suf_max", c_void_p),
                ("live", c_void_p), ("live_len", c_void_p), ("stamp", c_void_p)]


class _Arrays(threading.local):
    """One thread's table arrays (``tables``, in :class:`CTable`'s order), the
    automaton last flattened, and the pass context ``ctx`` that points into both."""

    #: The lengths the table arrays fit: rows, ``live_len``, ``stamp`` and ``witnesses``.
    lengths = (0, 0, 0, 0)
    dfa = None

    def __init__(self):
        self.ctx = _Pass()


_arrays = _Arrays()


def _flattened(dfa) -> _Arrays:
    """This thread's arrays, holding ``dfa``'s tables flattened and its largest
    increment, with the context pointed at them."""
    arrays = _arrays
    if arrays.dfa is not dfa:
        increment = [*chain(*dfa.increment)]
        arrays.largest = max(increment)
        arrays.next_state = array("i", [*chain(*dfa.next_state)])
        # Increments past int64 never reach C (see usable), and would not fit.
        arrays.increment = array("q", increment if arrays.largest < 2**63 else ())
        ctx = arrays.ctx
        ctx.num_states, ctx.num_symbols, ctx.start = dfa.num_states, dfa.num_symbols, dfa.start
        ctx.next_state, ctx.increment = arrays.next_state.buffer_info()[0], arrays.increment.buffer_info()[0]
        arrays.dfa = dfa
    return arrays


def usable(dfa, store) -> bool:
    """True iff the C kernel runs ``store``'s passes (see the module docstring)."""
    n = len(store.domains)
    return (n * dfa.num_states >= _MIN_CELLS and dfa.num_symbols <= 64
            and n * _flattened(dfa).largest < 2**62 and _INT64_MIN <= store.counter[0]
            and store.counter[-1] <= _INT64_MAX
            and _library() is not None)


def _library():
    global _lib
    if _lib is None:
        _lib = _load() or False
    return _lib or None


def _library_path() -> str:
    """The cached library's path, keyed by the CRC-32 of the compiler command and the source."""
    with open(_SOURCE, "rb") as fh:
        key = zlib.crc32("\0".join([_CC, *_FLAGS, ""]).encode() + fh.read())
    return os.path.join(_CACHE, f"_pass-{key:08x}.so")


def _load():
    if os.name != "posix":
        return None
    try:
        path = _library_path()
        os.makedirs(_CACHE, mode=0o700, exist_ok=True)
        info = os.stat(_CACHE)
        if info.st_uid != os.getuid() or info.st_mode & 0o022:
            return None
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
            os.close(fd)
            try:
                subprocess.run([_CC, *_FLAGS, "-o", tmp, _SOURCE], check=True, capture_output=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    table = POINTER(_Pass)
    lib.rc_prefix.argtypes = [table, c_int, c_int, c_void_p]
    lib.rc_suffix.argtypes = [table, c_int]
    lib.rc_unsupported.argtypes = [table, c_int, c_int, c_void_p, c_int32, c_int, c_void_p, c_int64,
                                   c_void_p, c_void_p, c_void_p]
    for function in (lib.rc_prefix, lib.rc_suffix, lib.rc_unsupported):
        function.restype = None
    return lib


class CTable:
    """One store's tables in C arrays, for the C kernel's passes.

    ``least``, ``greatest`` and ``suffixes`` mean what they mean on
    :class:`~regcount.sweep.SweepTable`.  ``pre_min``, ``pre_max``,
    ``suf_min`` and ``suf_max`` are flat row-major ``int64`` arrays of
    ``num_states`` entries per row, and ``live`` the reached states of each
    prefix row, ``live_len[i]`` of them from ``live[i * num_states]`` on.
    Unlike ``SweepTable``, which builds both prefix sides on every pass,
    ``rc_prefix`` builds the prefix entries of ``prefix_sides`` only, the
    (min, max) sides the table is made with.  An entry is defined only where
    it is built and ``SweepTable``'s is exact (see ``_pass.c``).

    The arrays and the context ``ctx`` are the thread's (see the module
    docstring): the arrays may be longer than this table's ``n + 1`` prefix
    rows, hold stale entries that no result depends on (see ``_pass.c``),
    and are taken over, with the context, by the next ``CTable`` the thread
    makes.
    """

    def __init__(self, dfa, store, min_side: bool, max_side: bool):
        self.prefix_sides = (min_side, max_side)
        n, num_states, num_symbols = store.n, dfa.num_states, dfa.num_symbols
        self.n, self.num_states = n, num_states
        arrays = _flattened(dfa)
        lengths = ((n + 2) * num_states, n + 1, num_states, n * num_symbols)
        if any(map(operator.gt, lengths, arrays.lengths)):
            rows, ends, states, pairs = arrays.lengths = lengths
            # live has n + 2 rows, as the suffix sides do: rc_prefix may write
            # into row n + 1, which nothing reads (see _pass.c).  found takes
            # at most two windows, each with at most one pair per symbol of a
            # domain; results the two int64 results of a C call.
            arrays.tables = [*[(c_int64 * rows)() for _ in range(4)], (c_int32 * rows)(), (c_int32 * ends)(),
                             (c_int32 * states)(), (c_int32 * (4 * pairs))(), (c_int64 * pairs)(), (c_int64 * 2)()]
            ctx = arrays.ctx
            (ctx.pre_min, ctx.pre_max, ctx.suf_min, ctx.suf_max, ctx.live, ctx.live_len,
             ctx.stamp) = map(ctypes.addressof, arrays.tables[:7])
        (self.pre_min, self.pre_max, self.suf_min, self.suf_max, self.live, self.live_len, self.stamp,
         self.found, self.witnesses, self.results) = arrays.tables
        # The thread's context, which points into its arrays; only n is this table's.
        self.ctx = arrays.ctx
        self.ctx.n = n

    def compute(self, dfa, store) -> "CTable":
        """This table's prefix half rebuilt in full for ``store`` now, as :meth:`SweepTable.compute` builds it.

        ``dfa`` and ``store`` are the ones the table was made for; the call
        takes them so that it has :meth:`SweepTable.compute`'s shape.  Only
        the prefix sides given at construction are built, and ``least``
        (``greatest``) is defined only where the min (max) side is.  No
        suffix side is built.  Returns the table itself.
        """
        self.domains = array("Q", store.domains)
        self.ctx.domains = self.domains.buffer_info()[0]
        _lib.rc_prefix(self.ctx, *self.prefix_sides, self.results)
        self.least, self.greatest = self.results
        self.suffixes = (False, False)
        return self

    def suffix(self, dfa, store, min_side: bool, max_side: bool) -> None:
        """Build the suffix sides ``(min_side, max_side)``, as :meth:`SweepTable.suffix` builds them."""
        for minimize, built in ((1, min_side), (0, max_side)):
            if built:
                _lib.rc_suffix(self.ctx, minimize)
        self.suffixes = (min_side, max_side)

    def ends(self) -> list[tuple[int, int]]:
        """The ``(cheapest, costliest)`` interval of each reached end state; both sides built."""
        start = self.n * self.num_states
        low = self.pre_min[start:start + self.num_states]
        high = self.pre_max[start:start + self.num_states]
        return [(low[q], high[q]) for q in self.live[start:start + self.live_len[self.n]]]

    def unsupported(self, dfa, store, windows, holes: bool, seen: set | None) -> list[tuple[int, int]]:
        """The ``(position, symbol)`` pairs no interval supports, as :meth:`SweepTable.unsupported` finds them."""
        bounds = array("q", [_CLAMPED.get(v, v) for window in windows for v in window])
        # The C loop reads dom(N) only where it has holes.
        counter = array("q", store.counter) if holes else None
        _lib.rc_unsupported(self.ctx, *self.suffixes, bounds.buffer_info()[0], len(windows), holes,
                            counter.buffer_info()[0] if holes else None, len(store.counter), self.found,
                            self.witnesses if seen is not None else None, self.results)
        if seen is not None:
            seen.update(self.witnesses[:self.results[1]])
        pairs = iter(self.found[:2 * self.results[0]])
        return list(zip(pairs, pairs))
