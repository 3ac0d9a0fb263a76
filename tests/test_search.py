import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from regcount import (
    DomainStore,
    GenConfig,
    Instance,
    catalog,
    enumerate_support,
    format_bench,
    generate_corpus,
    bench,
    build_subset_sum_dfa,
    propagate_decomposed,
    propagate_exact,
    run,
    solve,
    solve_collect,
)
from regcount import search as search_module
from strategies import dfa_store_pairs, windowed

B = catalog("B")
ONE, TWO = B.symbol_id("1"), B.symbol_id("2")


def b_2x2(counter=(0, 1, 2)):
    return DomainStore(B.num_symbols, [(TWO,), (ONE, TWO), (TWO,)], counter)


def test_solve_enumerates_both_solutions():
    for propagator in ("exact", "decomposed"):
        stats, solutions = solve_collect(B, b_2x2(), "exact", propagator)
        assert stats.solutions == 2
        assert set(solutions) == {((TWO, ONE, TWO), 0), ((TWO, TWO, TWO), 2)}


def test_solve_unsatisfiable_counts_failures():
    store = DomainStore(B.num_symbols, [(TWO,), (TWO,)], (5,))
    stats = solve(B, store, "exact")
    assert stats.solutions == 0
    assert stats.failures >= 1
    assert stats.nodes >= 1


def test_solve_matches_oracle_on_bound_modes():
    for mode in ("atmost", "atleast"):
        report = enumerate_support(B, b_2x2(), mode)
        stats = solve(B, b_2x2(), mode)
        assert stats.solutions == report.solution_count == 4


def test_solve_rejects_mismatched_propagator():
    free = DomainStore(B.num_symbols, [(ONE, TWO)] * 4, (1,))
    # atmost filtering under exact semantics would count 12 solutions; the oracle has 8
    for store, mode, propagator in ((b_2x2(), "atmost", "decomposed"), (free, "exact", "atmost")):
        with pytest.raises(ValueError):
            solve(B, store, mode, propagator)


def test_solution_sets_match_and_exact_never_expands_the_tree():
    cfg = GenConfig(max_n=4, seed=71)
    for _, dfa, inst in generate_corpus(cfg, 200):
        exact_stats, exact_solutions = solve_collect(dfa, inst.make_store(), "exact", "exact")
        decomposed_stats, decomposed_solutions = solve_collect(dfa, inst.make_store(), "exact", "decomposed")
        assert set(exact_solutions) == set(decomposed_solutions)
        report = enumerate_support(dfa, inst.make_store(), "exact")
        assert exact_stats.solutions == report.solution_count
        assert exact_stats.nodes <= decomposed_stats.nodes


def test_root_pruning_and_failure_dominance():
    cfg = GenConfig(max_n=5, seed=72)
    for _, dfa, inst in generate_corpus(cfg, 200):
        exact_out = propagate_exact(dfa, inst.make_store())
        decomposed_out = propagate_decomposed(dfa, inst.make_store())
        if decomposed_out.failed:
            assert exact_out.failed
        elif not exact_out.failed:
            assert len(exact_out.removals) >= len(decomposed_out.removals)


#: Windowed stores reduce half the positions to one symbol in half the
#: pairs, so many branches have one value left.
SEARCH_PAIRS = st.one_of(dfa_store_pairs(), windowed(dfa_store_pairs(max_n=6, max_increment=3)))


@given(SEARCH_PAIRS)
@settings(max_examples=150, deadline=None)
def test_solve_matches_the_search_that_propagates_every_node(pair):
    # One-value branches skip the propagator; every count and the solution
    # order must equal those of propagating every node.
    dfa, store = pair
    for mode, propagator in (("atmost", "atmost"), ("atleast", "atleast"), ("exact", "exact"),
                             ("exact", "decomposed")):
        found, expected = [], []
        stats = solve(dfa, store.copy(), mode, propagator, on_solution=found.append)
        reference = reference_kernel.solve(dfa, store.copy(), propagator, on_solution=expected.append)
        counts = (stats.nodes, stats.failures, stats.prunings, stats.solutions)
        assert counts == (reference.nodes, reference.failures, reference.prunings, reference.solutions), propagator
        assert found == expected, propagator


@pytest.mark.parametrize("word", ["", "2", "21212"])
def test_ground_store_propagates_only_the_root(monkeypatch, word):
    calls = []
    original = search_module.propagate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search_module, "propagate", counted)
    symbols = [(B.symbol_id(ch),) for ch in word]
    store = DomainStore(B.num_symbols, symbols, (run(B, word).counter,))
    found = []
    stats = solve(B, store, "exact", on_solution=found.append)
    assert (stats.nodes, stats.failures, stats.prunings, stats.solutions) == (len(word) + 2, 0, 0, 1)
    assert len(calls) == 1
    assert found == [(tuple(sym for (sym,) in symbols), run(B, word).counter)]


class FirstSolution(Exception):
    """Ends a search at its first solution."""


def test_solve_finds_a_first_solution_deeper_than_the_recursion_limit():
    # N <= n prunes nothing, so every position branches and the first
    # solution lies n propagated levels below the root: a walk that took a
    # Python frame per level would raise RecursionError long before it.
    n = 400
    dfa = build_subset_sum_dfa([1])
    store = DomainStore(dfa.num_symbols, [(0, 1)] * n, [n])
    found = []

    def first(solution):
        found.append(solution)
        raise FirstSolution

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        with pytest.raises(FirstSolution):
            solve(dfa, store, "atmost", on_solution=first)
    finally:
        sys.setrecursionlimit(limit)
    # Values go ascending, so the first solution takes symbol 0 everywhere.
    assert found == [((0,) * n, n)]


# -- bench ----------------------------------------------------------------------


def witness_instance(name=""):
    return Instance(
        dfa=B,
        mode="exact",
        var_domains=[[TWO], [ONE, TWO], [ONE], [ONE, TWO], [ONE, TWO]],
        counter_values=[1],
        name=name,
    )


def test_bench_empty_corpus():
    assert bench([]) == []


def test_bench_counts_are_deterministic():
    corpus = [("w", witness_instance()), ("w", witness_instance())]
    first = bench(corpus)
    second = bench(corpus)
    assert len(first) == 1 and first[0].instances == 2
    assert first[0].failures == second[0].failures
    assert first[0].prunings == second[0].prunings
    # the exact rule removes z != 2 at the root; the decomposition misses it
    assert first[0].prunings == {"exact": 2, "decomposed": 0}
    assert first[0].failures == {"exact": 0, "decomposed": 0}


def test_bench_aggregate_dominance_on_random_corpus():
    cfg = GenConfig(max_n=5, seed=8)
    corpus = [(f"q{dfa.num_states}", inst) for _, dfa, inst in generate_corpus(cfg, 150)]
    total_failures = {"exact": 0, "decomposed": 0}
    total_prunings = {"exact": 0, "decomposed": 0}
    for row in bench(corpus):
        for prop in ("exact", "decomposed"):
            total_failures[prop] += row.failures[prop]
            total_prunings[prop] += row.prunings[prop]
    assert total_failures["exact"] >= total_failures["decomposed"]
    assert total_prunings["exact"] >= total_prunings["decomposed"]
    assert total_failures["exact"] + total_prunings["exact"] > 0


def test_bench_formats():
    rows = bench([("w", witness_instance())])
    table = format_bench(rows)
    tsv = format_bench(rows, fmt="tsv")
    assert table.splitlines()[0].split()[0] == "family"
    header = tsv.splitlines()[0].split("\t")
    assert header == ["family", "#inst", "exact:s", "exact:fail", "exact:prune",
                      "decomposed:s", "decomposed:fail", "decomposed:prune"]
    row = tsv.splitlines()[1].split("\t")
    assert row[0] == "w" and row[1] == "1"
