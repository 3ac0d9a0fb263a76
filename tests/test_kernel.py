"""The compiled pass kernel against the Python kernels, its reference.

Every test here runs the C kernel on this host: ``kernels.forced("c")``
fails, rather than skips, when the library does not build.
"""

import contextlib
import io
import itertools
import math
import os
import stat
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kernels
import test_propagators
from regcount import (DEFAULT_CAP, CounterDfa, DomainStore, GenConfig, Instance, SweepTable, cli, kernel, propagate,
                      save_instance)
from regcount.generator import _fuzz_range
from regcount.kernel import CTable
from strategies import NEAR_U64_MAX, SHORT_PAIRS, WINDOWED_PAIRS, dfa_store_pairs, root_long_shaped

MODES = ("atmost", "atleast", "exact", "decomposed")


def outcomes(dfa, store):
    """Per mode: status, removals in order, passes and the final domains."""
    result = []
    for mode in MODES:
        work = store.copy()
        out = propagate(dfa, work, mode)
        result.append((mode, out.status, out.removals, out.passes, work.domains, work.counter))
    return result


def on_both_kernels(dfa, store):
    """Assert that both kernels give ``store`` the same outcomes; returns True iff the C kernel ran it."""
    with kernels.forced("python"):
        expected = outcomes(dfa, store)
    with kernels.forced("c"):
        ran_c = kernel.usable(dfa, store)
        assert outcomes(dfa, store) == expected
    return ran_c


@contextlib.contextmanager
def recorded_tables():
    """Record, per table a pass builds in the block, its kernel and its
    entries wherever the filter reads them: the prefix half when ``compute``
    returns, then the whole table once the pass's ``suffix`` returns."""
    builds = []

    def recording(cls, snapshot):
        # SweepTable.compute is a classmethod, CTable.compute a method.
        descriptor, suffix = cls.__dict__["compute"], cls.suffix
        compute = getattr(descriptor, "__func__", descriptor)

        def computing(owner, dfa, store):
            table = compute(owner, dfa, store)
            builds.append((cls.__name__, snapshot(table)))
            return table

        def suffixing(table, dfa, store, min_side, max_side):
            suffix(table, dfa, store, min_side, max_side)
            builds[-1] = (cls.__name__, snapshot(table))

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
    entries are built on its ``prefix_sides`` only."""
    width = table.num_states
    live = [table.live[i * width:i * width + count] for i, count in enumerate(table.live_len)]
    rows = [live]
    rows += [[[pre[i * width + q] for q in states] for i, states in enumerate(live)]
             for pre, built in zip((table.pre_min, table.pre_max), table.prefix_sides) if built]
    rows += [[[suf[i * width + q] for q in live[i - 1]] for i in range(1, len(live))]
             for suf, built in zip((table.suf_min, table.suf_max), table.suffixes) if built]
    return rows


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=100, deadline=None)
def test_the_kernels_agree_on_short_and_windowed_pairs(pair):
    event("C kernel" if on_both_kernels(*pair) else "Python kernels")


@given(st.integers(0, 10**6), st.sampled_from(["least", "greatest"]), st.booleans())
@settings(max_examples=4, deadline=None)
def test_the_kernels_agree_on_root_long_shaped_stores(index, end, holed):
    dfa, store = root_long_shaped(index, end, holed, n=1000, seed=27011)
    assert on_both_kernels(dfa, store)


@pytest.mark.parametrize("index, end", [(0, "least"), (1, "greatest"), (2, "least"), (3, "greatest")])
def test_the_kernels_build_equal_tables_on_every_pass(index, end):
    # dom(N) is the two values either side of the bound end's counter, so
    # exact and the decomposition take several passes; every pass of either
    # kernel builds its table in full, the C kernel into one reused table.
    dfa, store = root_long_shaped(index, end, holed=True, n=400, seed=27012)
    for mode in ("exact", "decomposed"):
        tables = {}
        for name in kernels.KERNELS:
            with kernels.forced(name), recorded_tables() as builds:
                propagate(dfa, store.copy(), mode)
            tables[name] = builds
        assert [kind for kind, _ in tables["c"]] == ["CTable"] * len(tables["c"])
        assert [kind for kind, _ in tables["python"]] == ["SweepTable"] * len(tables["python"])
        assert len(tables["c"]) >= 2
        assert [rows for _, rows in tables["c"]] == [rows for _, rows in tables["python"]], mode


@pytest.mark.parametrize("end", ["least", "greatest"])
@pytest.mark.parametrize("sides", list(itertools.product((False, True), repeat=2)))
def test_suffix_builds_exactly_the_sides_asked_for_on_both_kernels(sides, end):
    # A fresh C table's arrays are zero, so an unbuilt C side stays zero;
    # an unbuilt Python side reads as unbounded.
    dfa, store = root_long_shaped(5, end, holed=True, n=200, seed=27012)
    with kernels.forced("c"):
        python = SweepTable.compute(dfa, store)
        compiled = CTable(dfa, store, True, True).compute(dfa, store)
    assert python.suffixes == compiled.suffixes == (False, False)
    assert (python.least, python.greatest) == (compiled.least, compiled.greatest)
    assert sweep_entries(python) == c_entries(compiled)
    python.suffix(dfa, store, *sides)
    compiled.suffix(dfa, store, *sides)
    assert python.suffixes == compiled.suffixes == sides
    assert sweep_entries(python) == c_entries(compiled)
    for built, rows, unbounded, flat in ((sides[0], python.suf_min, -math.inf, compiled.suf_min),
                                         (sides[1], python.suf_max, math.inf, compiled.suf_max)):
        if not built:
            assert all(c == unbounded for row in rows for c in row) and not any(flat)


@pytest.mark.parametrize("name", list(test_propagators.MULTI_PASS_WITNESSES))
def test_the_multi_pass_witnesses_reach_their_fixpoints_on_the_c_kernel(name):
    with kernels.forced("c"):
        test_propagators.test_exact_reaches_the_fixpoint_on_multi_pass_witnesses(name)


@pytest.mark.parametrize("seed", [27013])
def test_the_fuzz_checks_pass_on_the_c_kernel(seed):
    # check_instance and check_among_instance, as `regcount fuzz` runs them.
    with kernels.forced("c"), recorded_tables() as builds:
        checked, violations = _fuzz_range(GenConfig(seed=seed), 0, 200, Instance.MODES, DEFAULT_CAP)
    assert (checked, violations) == (200, [])
    assert {kind for kind, _ in builds} == {"CTable"}


@given(dfa_store_pairs(max_n=6, increments=NEAR_U64_MAX))
@settings(max_examples=50, deadline=None)
def test_counters_that_could_leave_int64_run_the_python_kernels(pair):
    dfa, store = pair
    with kernels.forced("c"), recorded_tables() as builds:
        fits = store.n * max(map(max, dfa.increment)) < 2**62
        assert kernel.usable(dfa, store) == fits
        outcomes(dfa, store)
    assert fits or {kind for kind, _ in builds} <= {"SweepTable"}
    event("fits" if fits else "Python kernels")
    on_both_kernels(dfa, store)


TWO_SYMBOLS = CounterDfa(num_states=2, alphabet=("a", "b"), start=0, next_state=((1, 0), (1, 1)),
                         increment=((1, 0), (0, 2)))
WIDE = CounterDfa(num_states=1, alphabet=tuple(f"s{k}" for k in range(65)), start=0,
                  next_state=((0,) * 65,), increment=(tuple(range(65)),))


@pytest.mark.parametrize("dfa, counter, runs_c", [
    (TWO_SYMBOLS, (1, 2**63 - 1), True),
    (TWO_SYMBOLS, (1, 2**63), False),
    (TWO_SYMBOLS, (2**63, 2**64), False),
    (WIDE, (3, 70), False),  # a domain no longer fits one uint64 mask
])
def test_the_route_follows_the_range_of_dom_n_and_the_alphabet(dfa, counter, runs_c):
    store = DomainStore(dfa.num_symbols, [range(dfa.num_symbols)] * 3, counter)
    assert on_both_kernels(dfa, store) == runs_c


def run_main(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_without_a_compiler_every_store_runs_the_python_kernels(monkeypatch, tmp_path):
    dfa, store = root_long_shaped(4, "least", holed=True, seed=27012)
    path = tmp_path / "instance.json"
    save_instance(Instance(dfa=dfa, mode="exact", var_domains=[store.symbols(i) for i in range(store.n)],
                           counter_values=list(store.counter)), str(path))
    with kernels.forced("python"):
        expected = outcomes(dfa, store)
        printed = run_main("propagate", str(path))
    monkeypatch.setattr(kernel, "_CC", str(tmp_path / "no-such-cc"))
    monkeypatch.setattr(kernel, "_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_lib", None)
    monkeypatch.setattr(kernel, "_MIN_CELLS", 0)
    with recorded_tables() as builds:
        assert outcomes(dfa, store) == expected
        assert run_main("propagate", str(path)) == printed
    assert kernel._lib is False and {kind for kind, _ in builds} == {"SweepTable"}
    assert printed[0] == 0 and printed[2] == ""


def test_a_cache_directory_others_can_write_is_not_used(monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setattr(kernel, "_CACHE", str(cache))
    monkeypatch.setattr(kernel, "_lib", None)
    assert kernel._library() is None and os.listdir(cache) == []


def test_processes_that_build_at_once_all_load_one_library(tmp_path):
    # Each process builds under a temporary name and renames the result into
    # place, so none loads a half-written library.
    cache = tmp_path / "cache"
    # kernel.py imports nothing from the package, so it loads on its own.
    script = ("import importlib.util, sys; spec = importlib.util.spec_from_file_location('kernel', sys.argv[1]); "
              "kernel = importlib.util.module_from_spec(spec); spec.loader.exec_module(kernel); "
              "kernel._CACHE = sys.argv[2]; sys.exit(kernel._library() is None)")
    workers = [subprocess.Popen([sys.executable, "-c", script, kernel.__file__, str(cache)]) for _ in range(3)]
    assert [worker.wait(timeout=60) for worker in workers] == [0, 0, 0]
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].startswith("_pass-") and built[0].endswith(".so")
    assert not stat.S_IMODE(os.stat(cache).st_mode) & 0o022
