"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a PASS/FAIL line through the conftest hook.  Seeds are fixed
so every run checks the same corpora.
"""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from regcount import (
    COUNTER_VAR,
    DomainStore,
    GenConfig,
    build_subset_sum_dfa,
    catalog,
    check_among_instance,
    enumerate_support,
    forward,
    generate_corpus,
    kernel,
    propagate_atmost,
    propagate_decomposed,
    propagate_exact,
    random_among_instance,
    random_cdfa,
    rng_for,
    run_fuzz,
    solve_collect,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SEED_BOUNDS_CORPUS = 20260811
SEED_SEARCH_CORPUS = 31337
SEED_MEMBERSHIP_CORPUS = 90210
SEED_SUBSET_SUM = 4242
SEED_COMPLEXITY = 1234

B = catalog("B")
ONE, TWO = B.symbol_id("1"), B.symbol_id("2")


def run_cli(*args, stdin=None):
    """``python -m regcount ARGS`` in a subprocess that imports regcount from this checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "regcount", *args],
        capture_output=True,
        text=True,
        input=stdin,
        env=env,
    )


# -- 1. reference trace ----------------------------------------------------------


def test_criterion_1_reference_trace_golden_and_fast():
    result = run_cli("dump-sweep", "--automaton", "catalog:RST", "--uniform", "r,t", "--n", "6",
                     "--mode", "max", "--table", "pre")
    assert result.returncode == 0
    with open(os.path.join(DATA, "rst_premax_n6.golden"), "rb") as fh:
        golden = fh.read()
    assert result.stdout.encode() == golden
    assert "6: eps=3,r=3,rr=3,rrt=3,rrtr=4" in result.stdout

    # the table construction itself must run in under a millisecond
    rst = catalog("RST")
    store = DomainStore(rst.num_symbols, [(rst.symbol_id("r"), rst.symbol_id("t"))] * 6, (0,))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        forward(rst, store)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"prefix sweep took {best * 1e3:.3f} ms"


# -- 2. witness triple -------------------------------------------------------------


def test_criterion_2_witness_triple():
    # A store routed to the C kernel would build its library on first use;
    # build it here, so that the timing holds the propagators alone.
    kernel._library()
    started = time.perf_counter()

    # (a) two-state automaton, <2, x, 2>, N in {0,1,2}: the decomposition
    # performs no counter pruning although 1 has no support
    store_a = DomainStore(B.num_symbols, [(TWO,), (ONE, TWO), (TWO,)], (0, 1, 2))
    out_a = propagate_decomposed(B, store_a)
    assert not out_a.failed
    assert not any(var == COUNTER_VAR for var, _ in out_a.removals)
    oracle_a = enumerate_support(B, DomainStore(B.num_symbols, [(TWO,), (ONE, TWO), (TWO,)], (0, 1, 2)), "exact")
    assert 1 not in oracle_a.supported_counter
    assert oracle_a.supported_counter == {0, 2}

    # (b) <2, x, 1, y, z>, N = {1}: the exact rule removes z = 2
    domains_b = [(TWO,), (ONE, TWO), (ONE,), (ONE, TWO), (ONE, TWO)]
    store_b = DomainStore(B.num_symbols, domains_b, (1,))
    out_b = propagate_exact(B, store_b)
    assert not out_b.failed
    assert (4, TWO) in out_b.removals
    assert store_b.symbols(4) == [ONE]

    # (c) <2, 2, x, 2, y>, N = {1,3}: y = 2 is unsupported but kept
    domains_c = [(TWO,), (TWO,), (ONE, TWO), (TWO,), (ONE, TWO)]
    store_c = DomainStore(B.num_symbols, domains_c, (1, 3))
    out_c = propagate_exact(B, store_c)
    assert not out_c.failed
    assert (4, TWO) not in out_c.removals
    oracle_c = enumerate_support(B, DomainStore(B.num_symbols, domains_c, (1, 3)), "exact")
    assert TWO not in oracle_c.supported[4]

    elapsed = time.perf_counter() - started
    assert elapsed < 0.010, f"witness triple took {elapsed * 1e3:.1f} ms"


# -- 3 + 4. differential fuzz -------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_report():
    cfg = GenConfig(max_n=6, seed=SEED_BOUNDS_CORPUS)  # 5 states, 4 symbols max
    return run_fuzz(cfg, 10_000, threads=2)


def test_criterion_3_bound_propagators_fuzz(fuzz_report):
    assert fuzz_report.checked == 10_000
    bound_violations = [v for v in fuzz_report.violations if v.mode in ("atmost", "atleast")]
    assert bound_violations == []
    assert fuzz_report.elapsed < 60.0, f"fuzz took {fuzz_report.elapsed:.1f}s"


def test_criterion_4_exact_soundness_and_strictness(fuzz_report):
    exact_violations = [v for v in fuzz_report.violations if v.mode == "exact"]
    assert exact_violations == []
    # strict containment on the five-position witness
    domains = [(TWO,), (ONE, TWO), (ONE,), (ONE, TWO), (ONE, TWO)]
    exact_out = propagate_exact(B, DomainStore(B.num_symbols, domains, (1,)))
    decomposed_out = propagate_decomposed(B, DomainStore(B.num_symbols, domains, (1,)))
    assert set(exact_out.removals) > set(decomposed_out.removals)


# -- 5. hardness reduction ------------------------------------------------------------


def test_criterion_5_subset_sum_reduction():
    started = time.perf_counter()
    rng = rng_for(SEED_SUBSET_SUM)
    mismatches = 0
    for _ in range(200):
        k = int(rng.integers(1, 13))
        values = [int(v) for v in rng.integers(1, 51, size=k)]
        if rng.random() < 0.5:
            mask = int(rng.integers(0, 1 << k))
            target = sum(v for j, v in enumerate(values) if mask >> j & 1)
        else:
            target = int(rng.integers(0, sum(values) + 3))

        # direct brute force over all 2^k subsets
        expected = any(
            sum(chosen) == target
            for size in range(k + 1)
            for chosen in itertools.combinations(values, size)
        )

        dfa = build_subset_sum_dfa(values)
        zero = dfa.symbol_id("0")
        domains = [(zero, dfa.symbol_id(str(v))) for v in values]
        store = DomainStore(dfa.num_symbols, domains, (target,))
        report = enumerate_support(dfa, store, "exact")
        if report.satisfiable != expected:
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0, f"reduction check took {elapsed:.1f}s"


# -- 6. complexity smoke ---------------------------------------------------------------


def _complexity_inputs(n):
    cfg = GenConfig(min_states=5, max_states=5, min_symbols=4, max_symbols=4, seed=SEED_COMPLEXITY)
    dfa = random_cdfa(cfg, rng_for(SEED_COMPLEXITY))
    store = DomainStore(dfa.num_symbols, [tuple(range(4))] * n, range(n + 1))
    return dfa, store


def _time_propagation(sizes, repeats=5):
    """Best of ``repeats`` propagation times per size; the sizes take turns in
    each round, so a drift in CPU speed reaches all of them alike."""
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(repeats):
        for n in sizes:
            dfa, store = _complexity_inputs(n)
            t0 = time.perf_counter()
            out = propagate_atmost(dfa, store)
            best[n] = min(best[n], time.perf_counter() - t0)
            assert not out.failed
    return [best[n] for n in sizes]


def _peak_memory(n):
    dfa, store = _complexity_inputs(n)
    tracemalloc.start()
    tracemalloc.reset_peak()
    propagate_atmost(dfa, store)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_criterion_6_linear_time_and_space():
    t_small, t_large = _time_propagation((1000, 2000))
    ratio = t_large / t_small
    assert ratio < 2.5, f"time ratio {ratio:.2f} (t1000={t_small * 1e3:.1f}ms, t2000={t_large * 1e3:.1f}ms)"

    m_small, m_large = _peak_memory(1000), _peak_memory(2000)
    mem_ratio = m_large / m_small
    assert mem_ratio < 2.5, f"memory ratio {mem_ratio:.2f} ({m_small} vs {m_large} bytes)"


# -- 7. search equivalence ----------------------------------------------------------------


def test_criterion_7_search_equivalence():
    cfg = GenConfig(max_n=5, seed=SEED_SEARCH_CORPUS)
    violations = 0
    for _, dfa, inst in generate_corpus(cfg, 1000):
        exact_stats, exact_solutions = solve_collect(dfa, inst.make_store(), "exact", "exact")
        baseline_stats, baseline_solutions = solve_collect(dfa, inst.make_store(), "exact", "decomposed")
        report = enumerate_support(dfa, inst.make_store(), "exact")
        if set(exact_solutions) != set(baseline_solutions):
            violations += 1
        elif exact_stats.solutions != report.solution_count:
            violations += 1
        elif exact_stats.nodes > baseline_stats.nodes:
            violations += 1
    assert violations == 0


# -- 8. membership-count channeling ----------------------------------------------------------


def test_criterion_8_membership_composite_dc():
    cfg = GenConfig(max_n=6, seed=SEED_MEMBERSHIP_CORPUS)
    rng = rng_for(SEED_MEMBERSHIP_CORPUS)
    violations = []
    for index in range(1000):
        inst = random_among_instance(cfg, rng, universe_size=5)
        violations.extend(check_among_instance(inst, modes=("atmost", "atleast"), index=index))
    assert violations == []
