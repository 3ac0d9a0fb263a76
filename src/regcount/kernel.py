"""The compiled pass kernel: one propagator pass over tables kept in C arrays.

``_pass.c`` is the C counterpart of :mod:`regcount.sweep`'s Python kernels
(``forward_pair``/``forward`` and ``backward`` at the reached states) and of
:meth:`~regcount.sweep.SweepTable.unsupported`, the interval loop.
:class:`CTable` is its counterpart of :class:`~regcount.sweep.SweepTable`:
the same ``compute`` and ``unsupported`` calls, the same ``least``,
``greatest`` and ``suffixes``, so :mod:`regcount.propagators` runs one pass
loop, one N rule and one ground scan over either kernel.  The rows stay in C
arrays; Python reads only the end rows, for the N rule, and the unsupported
``(position, symbol)`` pairs, which it removes itself.  A C table builds
every row in full on every pass: it has no partial rebuild.

When it runs.  :func:`usable` sends a store to the C kernel only if

* n × num_states is at least ``_MIN_CELLS``, the measured crossover below
  which the per-call cost of the C kernel outweighs its speed;
* the alphabet has at most 64 symbols, so a domain is one ``uint64`` mask;
* n × (largest increment) is below 2^62 and every dom(N) value below 2^63,
  so no ``int64`` sum overflows and a counter means the same on both
  kernels;
* the library loads.

Every other store runs the Python kernels.

Where it is built.  The first store that passes the other tests builds
``_pass.c`` with ``cc -O2 -shared -fPIC`` into ``_build/`` next to it, under
a name keyed by the source's CRC-32, written to a temporary name and renamed
into place, so processes that build at once never load a half-written file.
The directory must belong to the user and be writable by no one else.  If
anything fails (no compiler, a compile error, a directory that cannot be
used, a library that does not load), every store runs the Python kernels
for the rest of the process, and nothing is printed.
"""

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import tempfile
import zlib
from array import array
from ctypes import POINTER, c_int, c_int32, c_int64, c_void_p

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pass.c")
_CACHE = os.path.join(os.path.dirname(_SOURCE), "_build")
_CC = "cc"
#: Least n × num_states that runs the C kernel (see CHANGES.md for the measurement).
_MIN_CELLS = 200
#: The library, once loaded; ``False`` once loading failed; ``None`` before the first try.
_lib = None

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1


class _Pass(ctypes.Structure):
    # rc_pass in _pass.c.
    _fields_ = [("n", c_int32), ("num_states", c_int32), ("num_symbols", c_int32), ("start", c_int32),
                ("next_state", c_void_p), ("increment", c_void_p), ("domains", c_void_p),
                ("pre_min", c_void_p), ("pre_max", c_void_p), ("suf_min", c_void_p), ("suf_max", c_void_p),
                ("live", c_void_p), ("live_len", c_void_p), ("stamp", c_void_p)]


def usable(dfa, store) -> bool:
    """True iff the C kernel runs ``store``'s passes (see the module docstring)."""
    n = len(store.domains)
    return (n * dfa.num_states >= _MIN_CELLS and dfa.num_symbols <= 64
            and n * max(map(max, dfa.increment)) < 2**62 and store.counter[-1] <= _INT64_MAX
            and _library() is not None)


def _library():
    global _lib
    if _lib is None:
        _lib = _load() or False
    return _lib or None


def _load():
    if os.name != "posix":
        return None
    try:
        with open(_SOURCE, "rb") as fh:
            path = os.path.join(_CACHE, f"_pass-{zlib.crc32(fh.read()):08x}.so")
        os.makedirs(_CACHE, mode=0o700, exist_ok=True)
        info = os.stat(_CACHE)
        if info.st_uid != os.getuid() or info.st_mode & 0o022:
            return None
        if not os.path.exists(path):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_CACHE)
            os.close(fd)
            try:
                subprocess.run([_CC, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE], check=True,
                               capture_output=True)
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
    An entry is defined only where ``SweepTable``'s is exact (see
    ``_pass.c``).
    """

    def __init__(self, dfa, store):
        n, num_states, num_symbols = store.n, dfa.num_states, dfa.num_symbols
        self.num_states = num_states
        self.next_state = array("i", [t for row in dfa.next_state for t in row])
        self.increment = array("q", [c for row in dfa.increment for c in row])
        rows = (n + 2) * num_states
        self.pre_min, self.pre_max, self.suf_min, self.suf_max = [(c_int64 * rows)() for _ in range(4)]
        self.live = (c_int32 * rows)()
        self.live_len = (c_int32 * (n + 1))()
        self.stamp = (c_int32 * num_states)()
        # At most two windows, each with at most one pair per symbol of a domain.
        self.found = (c_int32 * (4 * n * num_symbols))()
        self.witnesses = (c_int64 * (n * num_symbols))()
        self.results = (c_int64 * 2)()  # the two int64 results of the last C call
        # ctx points into these arrays, which live as long as the table.
        address = ctypes.addressof
        self.ctx = _Pass(n, num_states, num_symbols, dfa.start, self.next_state.buffer_info()[0],
                         self.increment.buffer_info()[0], None, address(self.pre_min), address(self.pre_max),
                         address(self.suf_min), address(self.suf_max), address(self.live),
                         address(self.live_len), address(self.stamp))

    @classmethod
    def compute(cls, dfa, store, min_side: bool = True, max_side: bool = True, previous: "CTable | None" = None,
                after_prefix=None) -> "CTable":
        """The table of ``store`` now, as :meth:`SweepTable.compute` builds it.

        The prefix rows of the chosen sides come first, then ``after_prefix``
        as there, then the suffix sides it asks for.  ``previous``, a C table
        of the same store and sides, lends its arrays: it is rebuilt in full
        and returned.
        """
        table = previous if previous is not None else cls(dfa, store)
        table.domains = array("Q", store.domains)
        table.ctx.domains = table.domains.buffer_info()[0]
        ctx = ctypes.byref(table.ctx)
        _lib.rc_prefix(ctx, min_side, max_side, table.results)
        table.least = table.results[0] if min_side else -math.inf
        table.greatest = table.results[1] if max_side else math.inf
        table.suffixes = (min_side, max_side)
        if after_prefix is not None:
            need_min, need_max = after_prefix(store, table)
            table.suffixes = (min_side and need_min, max_side and need_max)
        for minimize, built in zip((1, 0), table.suffixes):
            if built:
                _lib.rc_suffix(ctx, minimize)
        return table

    def ends(self) -> list[tuple[int, int]]:
        """The ``(cheapest, costliest)`` interval of each reached end state; both sides built."""
        start = (len(self.live_len) - 1) * self.num_states
        low = self.pre_min[start:start + self.num_states]
        high = self.pre_max[start:start + self.num_states]
        return [(low[q], high[q]) for q in self.live[start:start + self.live_len[-1]]]

    def unsupported(self, dfa, store, windows, holes: bool, seen: set | None) -> list[tuple[int, int]]:
        """The ``(position, symbol)`` pairs no interval supports, as :meth:`SweepTable.unsupported` finds them."""
        bounds = array("q", [min(max(v, _INT64_MIN), _INT64_MAX) for window in windows for v in window])
        counter = array("q", store.counter if holes else ())
        _lib.rc_unsupported(ctypes.byref(self.ctx), *self.suffixes, bounds.buffer_info()[0], len(windows), holes,
                            counter.buffer_info()[0], len(counter), self.found,
                            self.witnesses if seen is not None else None, self.results)
        if seen is not None:
            seen.update(self.witnesses[:self.results[1]])
        pairs = iter(self.found[:2 * self.results[0]])
        return list(zip(pairs, pairs))
