"""The compiled pass kernel against the Python kernels, its reference.

Every test here runs the C kernel on this host: ``kernels.forced("c")``
fails, rather than skips, when the library does not build.
"""

import contextlib
import io
import itertools
import math
import os
import re
import stat
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kernels
from kernels import MODES, c_entries, checked_outcomes, outcomes, recorded_tables, sweep_entries
from regcount import (COUNTER_VAR, DEFAULT_CAP, CounterDfa, DomainStore, GenConfig, Instance, SweepTable, cli, kernel,
                      propagate, save_instance)
from regcount.generator import _fuzz_range
from regcount.kernel import CTable
from regcount.propagators import FIXPOINT
from strategies import (GAP, MULTI_PASS_WITNESSES, NEAR_U64_MAX, SHORT_PAIRS, WINDOWED_PAIRS, dfa_store_pairs,
                        ground_pairs, root_long_shaped)

#: An int64 no sweep of the test stores writes.
SENTINEL = -2**63 + 12345


def on_both_kernels(dfa, store):
    """Assert that both kernels give ``store`` the same outcomes; returns True iff the C kernel ran it."""
    with kernels.forced("python"):
        expected = outcomes(dfa, store)
    with kernels.forced("c"):
        ran_c = kernel.usable(dfa, store)
        assert outcomes(dfa, store) == expected
    return ran_c


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
    # exact and the decomposition take several passes; each pass builds its
    # table in full into one reused C table, judged against a fresh
    # SweepTable of the pass's store.
    dfa, store = root_long_shaped(index, end, holed=True, n=400, seed=27012)
    with kernels.forced("c"):
        builds = checked_outcomes(dfa, store, ("exact", "decomposed"))[1]
    for mode, recorded in builds.items():
        assert {build.kind for build in recorded} == {"CTable"} and len(recorded) >= 2, mode


@pytest.mark.parametrize("end", ["least", "greatest"])
@pytest.mark.parametrize("sides", list(itertools.product((False, True), repeat=2)))
def test_suffix_builds_exactly_the_sides_asked_for_on_both_kernels(sides, end):
    # The C table's arrays are the thread's and may hold stale entries, so
    # both suffix sides are filled with a sentinel first: an unbuilt C side
    # must still hold it everywhere, never written; an unbuilt Python side
    # reads as unbounded.
    dfa, store = root_long_shaped(5, end, holed=True, n=200, seed=27012)
    with kernels.forced("c"):
        python = SweepTable.compute(dfa, store)
        compiled = CTable(dfa, store, True, True).compute(dfa, store)
    assert python.suffixes == compiled.suffixes == (False, False)
    assert (python.least, python.greatest) == (compiled.least, compiled.greatest)
    assert sweep_entries(python) == c_entries(compiled)
    filled = [SENTINEL] * len(compiled.suf_min)
    compiled.suf_min[:] = compiled.suf_max[:] = filled
    python.suffix(dfa, store, *sides)
    compiled.suffix(dfa, store, *sides)
    assert python.suffixes == compiled.suffixes == sides
    assert sweep_entries(python) == c_entries(compiled)
    for built, rows, unbounded, flat in ((sides[0], python.suf_min, -math.inf, compiled.suf_min),
                                         (sides[1], python.suf_max, math.inf, compiled.suf_max)):
        if not built:
            assert all(c == unbounded for row in rows for c in row) and flat[:] == filled


@contextlib.contextmanager
def stale_prefix_entries():
    """Fill a C table's prefix arrays before each of its passes with the
    values that would win a relax: the least int64 on the min side, the
    greatest on the max side."""
    compute = CTable.compute

    def computing(table, dfa, store):
        table.pre_min[:] = [kernel._INT64_MIN] * len(table.pre_min)
        table.pre_max[:] = [kernel._INT64_MAX] * len(table.pre_max)
        return compute(table, dfa, store)

    with mock.patch.object(CTable, "compute", computing):
        yield


@pytest.mark.parametrize("index, end", [(0, "least"), (1, "greatest")])
def test_stale_prefix_entries_never_reach_a_table(index, end):
    # rc_prefix loads an entry on a state's first reach and throws it away;
    # a select that kept it would leave a sentinel in the table.  One-sided
    # modes build one prefix side, two-sided modes both, over several passes.
    dfa, store = root_long_shaped(index, end, holed=True, n=400, seed=27012)
    with kernels.forced("python"):
        expected = outcomes(dfa, store)
    with kernels.forced("c"), stale_prefix_entries():
        got, builds = checked_outcomes(dfa, store)
    assert got == expected
    for mode, recorded in builds.items():
        assert {build.kind for build in recorded} == {"CTable"}, mode
        assert len(recorded) >= (2 if mode in ("exact", "decomposed") else 1), mode


def test_one_thread_reuses_its_arrays_across_stores_of_changing_shape():
    # A new thread starts with no C arrays.  Its stores, (n, num_states,
    # num_symbols), replace them when the rows grow, and then when only
    # stamp, only live_len and only found and witnesses would not fit; they
    # reuse them, stale entries and all, when the next store fits.  Every
    # pass's table is judged against its store, and the outcomes must still
    # equal the Python kernels'.
    shapes = [(400, 8, 3), (200, 20, 8), (400, 12, 5), (200, 12, 5), (150, 30, 4), (300, 8, 2), (60, 8, 20),
              (50, 8, 6)]

    def check():
        for index, (n, num_states, num_symbols) in enumerate(shapes):
            cfg = GenConfig(min_states=num_states, max_states=num_states, min_symbols=num_symbols,
                            max_symbols=num_symbols)
            dfa, store = root_long_shaped(index, ("least", "greatest")[index % 2], holed=True, n=n, seed=27012,
                                          cfg=cfg)
            with kernels.forced("python"):
                expected = outcomes(dfa, store)
            with kernels.forced("c"):
                got, builds = checked_outcomes(dfa, store)
            assert kernel.usable(dfa, store) and got == expected, (n, num_states, num_symbols)
            # Both prefix sides of a C table are built in the two-sided modes only.
            assert {build.kind for mode in MODES for build in builds[mode]} == {"CTable"}
            assert len(builds["exact"]) + len(builds["decomposed"]) >= 2

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(check).result()


def test_one_thread_alternating_two_automata_points_its_context_at_each():
    # The thread's pass context is re-pointed when its automaton changes (the
    # flat transitions and increments) and when a store outgrows its arrays,
    # with or without a change of automaton.  Two automata of different
    # shapes, A and B, take turns on stores that grow and then shrink; every
    # pass's table is judged against its own store, and the outcomes must
    # equal the Python kernels'.
    cfgs = [GenConfig(min_states=q, max_states=q, min_symbols=s, max_symbols=s) for q, s in ((8, 3), (12, 5))]
    automata = [root_long_shaped(k, "least", n=1, seed=27012, cfg=cfg)[0] for k, cfg in enumerate(cfgs)]
    steps = [(0, 40), (1, 40), (0, 300), (0, 400), (1, 300), (1, 60), (0, 60), (0, 20), (1, 20)]

    def check():
        for index, (k, n) in enumerate(steps):
            # The same stream gives an automaton equal to A's (B's), so the store suits the first object.
            _, store = root_long_shaped(k, ("least", "greatest")[index % 2], holed=True, n=n, seed=27012,
                                        cfg=cfgs[k])
            dfa = automata[k]
            with kernels.forced("python"):
                expected = outcomes(dfa, store)
            with kernels.forced("c"):
                got, builds = checked_outcomes(dfa, store)
            assert got == expected, (index, k, n)
            assert {build.kind for mode in MODES for build in builds[mode]} == {"CTable"}

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(check).result()


def test_threads_that_propagate_at_once_match_a_sequential_run():
    # ctypes releases the GIL during a C call, so the threads' passes
    # overlap; each thread's tables must be its own.
    stores = [root_long_shaped(0, "least", holed=True, n=1000, seed=27011),
              root_long_shaped(1, "greatest", holed=True, n=600, seed=27011)]
    rounds = 8
    got = [None] * len(stores)
    start = threading.Barrier(len(stores))

    def run(k):
        start.wait()
        got[k] = [outcomes(*stores[k]) for _ in range(rounds)]

    with kernels.forced("c"):
        expected = [outcomes(*pair) for pair in stores]
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(stores))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert got == [[outcome] * rounds for outcome in expected]


def test_the_kernel_source_compiles_without_warnings():
    result = subprocess.run([kernel._CC, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", kernel._SOURCE],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_the_cached_library_is_keyed_by_the_compiler_command(monkeypatch):
    path = kernel._library_path()
    assert kernel._library_path() == path
    monkeypatch.setattr(kernel, "_FLAGS", ("-O3", "-shared", "-fPIC"))
    flags = kernel._library_path()
    monkeypatch.setattr(kernel, "_CC", "clang")
    compiler = kernel._library_path()
    assert len({path, flags, compiler}) == 3


@pytest.mark.parametrize("name", list(MULTI_PASS_WITNESSES))
def test_the_multi_pass_witnesses_reach_their_fixpoints_on_the_c_kernel(name):
    with kernels.forced("c"):
        kernels.multi_pass_witness_reaches_its_fixpoint(name)


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=60, deadline=None)
def test_certified_fixpoints_remove_nothing_more_on_the_c_kernel(pair):
    with kernels.forced("c"):
        kernels.certified_fixpoints_remove_nothing_more(*pair)


@given(ground_pairs())
@settings(max_examples=30, deadline=None)
def test_ground_stores_take_one_pass_without_a_table_on_the_c_kernel(pair):
    with kernels.forced("c"):
        kernels.ground_store_takes_one_pass_without_a_table(*pair)


@pytest.mark.parametrize("name, kind", [("python", "SweepTable"), ("c", "CTable")])
def test_the_recorder_sees_the_certifying_pass_on_both_kernels(name, kind):
    # Exact's one pass over GAP with dom(N) = {0, 1} removes N = 1, builds
    # the min suffix side alone, removes y and certifies the fixpoint.
    store = DomainStore(GAP.num_symbols, [(0, 1)], range(2))
    with kernels.forced(name), kernels.checked("exact") as builds:
        out = propagate(GAP, store.copy(), "exact")
    assert (out.status, out.removals, out.passes) == (FIXPOINT, [(COUNTER_VAR, 1), (0, 1)], 1)
    assert [(build.kind, build.sides, build.logged) for build in builds] == [(kind, (True, False), 1)]
    with kernels.forced(name):
        assert list(kernels.certified_fixpoints_remove_nothing_more(GAP, store)) == ["exact"]


@pytest.mark.parametrize("seed", [27013])
def test_the_fuzz_checks_pass_on_the_c_kernel(seed):
    # check_instance and check_among_instance, as `regcount fuzz` runs them.
    with kernels.forced("c"), recorded_tables() as builds:
        report = _fuzz_range(GenConfig(seed=seed), 0, 200, Instance.MODES, DEFAULT_CAP)
    assert (report.checked, report.violations, report.capped) == (200, [], [])
    assert {build.kind for build in builds if build} == {"CTable"}


@pytest.mark.parametrize("seed", [38321])
def test_the_fuzzer_judges_both_kernels_on_its_own_route(seed):
    # `regcount fuzz`'s default stream, unforced: stores at or above the
    # cut-off run C and the others Python, and the oracle judges both.
    with recorded_tables() as builds:
        report = _fuzz_range(GenConfig(seed=seed), 0, 200, Instance.MODES, DEFAULT_CAP)
    assert (report.checked, report.violations, report.capped) == (200, [], [])
    assert {build.kind for build in builds if build} == {"CTable", "SweepTable"}


@given(dfa_store_pairs(max_n=6, increments=NEAR_U64_MAX))
@settings(max_examples=50, deadline=None)
def test_counters_that_could_leave_int64_run_the_python_kernels(pair):
    dfa, store = pair
    with kernels.forced("c"):
        fits = store.n * max(map(max, dfa.increment)) < 2**62
        assert kernel.usable(dfa, store) == fits
        builds = checked_outcomes(dfa, store)[1]
    assert fits or {build.kind for mode in MODES for build in builds[mode] if build} <= {"SweepTable"}
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
    (TWO_SYMBOLS, (-2**63, 1), True),
    (TWO_SYMBOLS, (-2**63 - 1, 1), False),
])
def test_the_route_follows_the_range_of_dom_n_and_the_alphabet(dfa, counter, runs_c):
    store = DomainStore(dfa.num_symbols, [range(dfa.num_symbols)] * 3, counter)
    assert on_both_kernels(dfa, store) == runs_c


ONE_STATE = CounterDfa(num_states=1, alphabet=("a", "b"), start=0, next_state=((0, 0),), increment=((0, 1),))


@pytest.mark.parametrize("cells, runs_c", [(kernel._MIN_CELLS - 1, False), (kernel._MIN_CELLS, True)])
def test_the_route_starts_at_the_cut_off(cells, runs_c):
    # The route as it runs, unforced: a one-state automaton over `cells`
    # positions, the kernel each mode's tables are built on, and the same
    # outcomes on both kernels.
    store = DomainStore(ONE_STATE.num_symbols, [(0, 1)] * cells, (1, 3))
    with recorded_tables() as builds:
        outcomes(ONE_STATE, store)
    assert kernel.usable(ONE_STATE, store) == runs_c
    assert {build.kind for build in builds} == {"CTable" if runs_c else "SweepTable"}
    on_both_kernels(ONE_STATE, store)


def test_the_readme_states_the_cut_off():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        paragraph = fh.read().split("Large stores run each pass in C.", 1)[1].split("\n\n", 1)[0]
    stated = re.findall(r"state count is at least (\d+)", " ".join(paragraph.split()))
    assert stated == [str(kernel._MIN_CELLS)]


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
    assert kernel._lib is False and {build.kind for build in builds} == {"SweepTable"}
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
