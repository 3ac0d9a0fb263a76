import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel
from regcount import (
    COUNTER_VAR,
    U64_MAX,
    CounterDfa,
    DomainStore,
    SweepTable,
    backward,
    catalog,
    forward,
    format_row,
    propagate,
    run,
)
from regcount import domains as domains_module
from regcount.oracle import check_dc
from regcount.propagators import FIXPOINT
from regcount.sweep import UNREACHABLE_MAX, UNREACHABLE_MIN
import kernels
from kernels import MODES
from strategies import GAP, NEAR_U64_MAX, dfa_store_pairs, root_long_shaped, windowed

#: The index of each mode's rows in ``forward``'s ``(pre_min, pre_max)``.
SIDE = {"min": 0, "max": 1}


# -- brute-force row oracle (enumeration; shares no sweep code) --------------


def brute_forward(dfa, store, mode):
    """Extremal prefix counters per state by enumerating all admissible prefixes."""
    rows = []
    for i in range(store.n + 1):
        best = {}
        for word in itertools.product(*(store.symbols(j) for j in range(i))):
            result = run(dfa, word)
            seen = best.get(result.end_state)
            if seen is None or (result.counter < seen if mode == "min" else result.counter > seen):
                best[result.end_state] = result.counter
        rows.append(best)
    return rows


def brute_backward(dfa, store, mode):
    """Extremal suffix counters per state, over admissible suffixes ending anywhere."""
    rows = {store.n + 1: {q: 0 for q in range(dfa.num_states)}}
    for i in range(store.n, 0, -1):
        best = {}
        for q in range(dfa.num_states):
            from_q = dataclasses.replace(dfa, start=q)
            for word in itertools.product(*(store.symbols(j) for j in range(i - 1, store.n))):
                result = run(from_q, word)
                seen = best.get(q)
                if seen is None or (result.counter < seen if mode == "min" else result.counter > seen):
                    best[q] = result.counter
        rows[i] = best
    return rows


def as_dict(row):
    return {q: int(c) for q, c in enumerate(row) if not math.isinf(c)}


# -- reference trace on the RST automaton ------------------------------------

# Worked max-prefix trace for six variables over {r, t}; note row 6 keeps 4 on
# rrtr even though rrt had a smaller counter than three other states at row 5,
# which is why a single global maximum would not do.
RST_PREMAX_ROWS = [
    {"eps": 0},
    {"eps": 0, "r": 1},
    {"eps": 1, "r": 1, "rr": 1},
    {"eps": 1, "r": 2, "rr": 1, "rrt": 1},
    {"eps": 2, "r": 2, "rr": 2, "rrt": 1, "rrtr": 3},
    {"eps": 2, "r": 3, "rr": 3, "rrt": 2, "rrtr": 3},
    {"eps": 3, "r": 3, "rr": 3, "rrt": 3, "rrtr": 4},
]


def rst_store():
    rst = catalog("RST")
    doms = [(rst.symbol_id("r"), rst.symbol_id("t"))] * 6
    return rst, DomainStore(rst.num_symbols, doms, (0,))


def test_rst_reference_max_rows():
    rst, store = rst_store()
    rows = forward(rst, store)[1]
    named = [{rst.state_names[q]: v for q, v in as_dict(row).items()} for row in rows]
    assert named == RST_PREMAX_ROWS


def test_rst_reference_rows_match_brute_force():
    rst, store = rst_store()
    assert [as_dict(r) for r in forward(rst, store)[1]] == brute_forward(rst, store, "max")


def test_row_zero_is_start_at_zero():
    for name in ("AAB", "B", "RST"):
        dfa = catalog(name)
        store = DomainStore(dfa.num_symbols, [(0,)], (0,))
        for mode in ("min", "max"):
            assert as_dict(forward(dfa, store)[SIDE[mode]][0]) == {dfa.start: 0}


@given(dfa_store_pairs(max_n=4))
@settings(max_examples=60)
def test_ground_sequences_collapse_to_run(pair):
    dfa, store = pair
    ground = DomainStore(dfa.num_symbols, [store.symbols(i)[:1] for i in range(store.n)], store.counter)
    word = [ground.symbols(i)[0] for i in range(ground.n)]
    expected = run(dfa, word)
    for mode in ("min", "max"):
        assert as_dict(forward(dfa, ground)[SIDE[mode]][ground.n]) == {expected.end_state: expected.counter}


def test_backward_empty_sequence_base():
    dfa = catalog("B")
    store = DomainStore(dfa.num_symbols, [], (0,))
    suf = backward(dfa, store, "min")
    assert as_dict(suf[1]) == {q: 0 for q in range(dfa.num_states)}


def test_backward_ground_word_costs_the_run():
    dfa = catalog("AAB")
    word = "aabab"
    store = DomainStore(dfa.num_symbols, [(dfa.symbol_id(c),) for c in word], (0,))
    suf = backward(dfa, store, "min")
    assert suf[1][dfa.start] == run(dfa, word).counter == 1


def b_2x2_store():
    b = catalog("B")
    one, two = b.symbol_id("1"), b.symbol_id("2")
    return b, DomainStore(b.num_symbols, [(two,), (one, two), (two,)], (0, 1, 2))


def test_b_suffix_bounds_from_enumeration():
    b, store = b_2x2_store()
    # independent expectation: the two ground words give counters {0, 2}
    counters = {run(b, ["2", x, "2"]).counter for x in ("1", "2")}
    assert counters == {0, 2}
    suf_min = backward(b, store, "min")
    suf_max = backward(b, store, "max")
    eps = b.state_names.index("eps")
    assert suf_min[1][eps] == 0
    assert suf_max[1][eps] == 2


def test_global_bounds_examples():
    b, store = b_2x2_store()
    table = SweepTable.compute(b, store)
    assert table.least == 0
    assert table.greatest == 2

    rst, rstore = rst_store()
    assert SweepTable.compute(rst, rstore).greatest == 4

    aab = catalog("AAB")
    ground = DomainStore(aab.num_symbols, [(aab.symbol_id(c),) for c in "aab"], (0,))
    table = SweepTable.compute(aab, ground)
    assert table.least == table.greatest == 1


# -- invariants ---------------------------------------------------------------


@given(dfa_store_pairs())
@settings(max_examples=80)
def test_forward_backward_consistency(pair):
    dfa, store = pair
    table = SweepTable.compute(dfa, store)
    table.suffix(dfa, store, True, True)
    assert table.least == table.suf_min[1][dfa.start]
    assert table.greatest == table.suf_max[1][dfa.start]


@given(dfa_store_pairs(max_n=4))
@settings(max_examples=60, deadline=None)
def test_rows_match_brute_force(pair):
    dfa, store = pair
    for mode in ("min", "max"):
        assert [as_dict(r) for r in forward(dfa, store)[SIDE[mode]]] == brute_forward(dfa, store, mode)
        suf = backward(dfa, store, mode)
        got = {i: as_dict(suf[i]) for i in range(1, store.n + 2)}
        assert got == brute_backward(dfa, store, mode)


@given(dfa_store_pairs(max_n=4))
@settings(max_examples=50)
def test_ground_collapse_min_equals_max(pair):
    dfa, store = pair
    ground = DomainStore(dfa.num_symbols, [store.symbols(i)[:1] for i in range(store.n)], store.counter)
    min_rows, max_rows = ([as_dict(r) for r in rows] for rows in forward(dfa, ground))
    assert min_rows == max_rows


@given(dfa_store_pairs(min_n=1, max_n=4), st.data())
@settings(max_examples=60)
def test_shrinking_domains_moves_rows_one_way(pair, data):
    dfa, store = pair
    position = data.draw(st.integers(0, store.n - 1))
    symbols = store.symbols(position)
    shrunk = store.copy()
    shrunk.remove_symbol(position, data.draw(st.sampled_from(symbols)))
    if shrunk.domains[position] == 0:
        return  # emptied: sweeps are only defined for nonempty domains
    (before_min, before_max), (after_min, after_max) = forward(dfa, store), forward(dfa, shrunk)
    for before, after in zip(before_min, after_min):
        assert all(b <= a for b, a in zip(before, after))  # inf sorts above ints
    for before, after in zip(before_max, after_max):
        assert all(b >= a for b, a in zip(before, after))


@given(dfa_store_pairs())
@settings(max_examples=60)
def test_suffix_base_row_is_zero_at_every_state(pair):
    dfa, store = pair
    table = SweepTable.compute(dfa, store)
    table.suffix(dfa, store, True, True)
    n = store.n
    support = {q for q, c in enumerate(table.pre_min[n]) if c != UNREACHABLE_MIN}
    assert support == {q for q, c in enumerate(table.pre_max[n]) if c != UNREACHABLE_MAX}
    every_state = {q: 0 for q in range(dfa.num_states)}
    assert as_dict(table.suf_min[n + 1]) == every_state
    assert as_dict(table.suf_max[n + 1]) == every_state


def test_format_row_skips_unreachable():
    rst, store = rst_store()
    row = forward(rst, store)[1][4]
    assert format_row(row, rst.state_names) == "eps=2,r=2,rr=2,rrt=1,rrtr=3"


# -- overflow -----------------------------------------------------------------

def one_state_dfa(increments):
    """One state, one symbol per increment, every symbol a self-loop."""
    return CounterDfa(
        num_states=1,
        alphabet=tuple("abcd"[: len(increments)]),
        start=0,
        next_state=((0,) * len(increments),),
        increment=(tuple(increments),),
    )


def test_u64_max_increment_read_twice_is_exact():
    # a adds U64_MAX and b adds nothing: reading a twice gives 2 * U64_MAX,
    # which the sweeps hold as an exact integer, like the oracle.
    dfa = one_state_dfa([U64_MAX, 0])
    store = DomainStore(dfa.num_symbols, [(0,), (0,)], (0,))
    for mode in ("min", "max"):
        assert forward(dfa, store)[SIDE[mode]][2] == [2 * U64_MAX]
        assert backward(dfa, store, mode)[1] == [2 * U64_MAX]
    stores = (
        store,
        DomainStore(dfa.num_symbols, [(0, 1), (0, 1), (1,)], (0, 1)),
        DomainStore(dfa.num_symbols, [(0, 1), (0, 1)], (0, U64_MAX + 1, 2 * U64_MAX)),
    )
    for before in stores:
        for mode in MODES:
            out = propagate(dfa, before.copy(), mode)
            assert check_dc(dfa, before, mode, out).ok(mode), (before, mode)
    # With x3 = b and N in {0, 1}, only bbb solves exact counting.
    out = propagate(dfa, stores[1].copy(), "exact")
    assert set(out.removals) == {(0, 0), (1, 0), (COUNTER_VAR, 1)}


def test_counter_of_exactly_u64_max_does_not_overflow():
    # The counter reaches exactly U64_MAX in one step in the first automaton
    # and in two steps in the second.
    one_step = (one_state_dfa([U64_MAX]), 1)
    two_steps = (
        CounterDfa(num_states=2, alphabet=("a",), start=0, next_state=((1,), (1,)), increment=((U64_MAX - 5,), (5,))),
        2,
    )
    for dfa, n in (one_step, two_steps):
        store = DomainStore(dfa.num_symbols, [(0,)] * n, (U64_MAX,))
        for mode in ("min", "max"):
            pre = forward(dfa, store)[SIDE[mode]]
            assert max(as_dict(pre[n]).values()) == U64_MAX
            assert backward(dfa, store, mode)[1][dfa.start] == U64_MAX
        for mode in MODES:
            out = propagate(dfa, store.copy(), mode)
            assert not out.failed and out.removals == []


def test_u64_max_increment_outside_every_domain_does_not_overflow():
    # Symbol b adds U64_MAX but no domain holds it, so the rows hold only the
    # small counters that a builds up.
    dfa = one_state_dfa([1, U64_MAX])
    store = DomainStore(dfa.num_symbols, [(0,)] * 3, (2, 3))
    for mode in ("min", "max"):
        pre = forward(dfa, store)[SIDE[mode]]
        assert pre == reference_kernel.forward(dfa, store, mode)
        zero = [0] * dfa.num_states
        assert backward(dfa, store, mode) == reference_kernel.backward(dfa, store, zero, mode)
    for mode in MODES:
        out = propagate(dfa, store.copy(), mode)
        assert not out.failed
        assert out.removals == ([] if mode == "atleast" else [(COUNTER_VAR, 2)])


# -- differential: the kernel against the plain per-cell loops ------------------

def assert_reachable_ints(rows, sent):
    for row in rows:
        if row is not None:
            assert all(type(c) is int for c in row if c != sent)


def assert_true_where_read(suffix_rows, reference_rows, reach_rows, sent):
    """Suffix row ``i`` is exact at every state that prefix row ``i - 1``
    reaches, the only entries the filter reads, and holds its true value or
    the sentinel everywhere else."""
    assert len(suffix_rows) == len(reference_rows)
    for i in range(1, len(reference_rows)):
        for q, (got, want) in enumerate(zip(suffix_rows[i], reference_rows[i])):
            if reach_rows[i - 1][q] != sent:
                assert got == want, (i, q)
            else:
                assert got == want or got == sent, (i, q)


def assert_live_matches_reference(live, dfa, store):
    """``live[i]`` lists, once each, the states the reference prefix row ``i`` reaches."""
    reference = reference_kernel.forward(dfa, store, "min")
    assert len(live) == len(reference)
    for states, row in zip(live, reference):
        assert len(states) == len(set(states))
        assert set(states) == {q for q, c in enumerate(row) if c != UNREACHABLE_MIN}


def reference_suffix_rows(dfa, store, mode):
    # Suffixes may end anywhere: the reference's base row is 0 at every state.
    return reference_kernel.backward(dfa, store, [0] * dfa.num_states, mode)


@given(st.one_of(dfa_store_pairs(max_n=12), dfa_store_pairs(max_n=12, increments=NEAR_U64_MAX)))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_reference_loops(pair):
    dfa, store = pair
    table = {}
    for mode, sent in (("min", UNREACHABLE_MIN), ("max", UNREACHABLE_MAX)):
        pre = forward(dfa, store)[SIDE[mode]]
        assert pre == reference_kernel.forward(dfa, store, mode)
        suf = backward(dfa, store, mode)
        assert suf == reference_suffix_rows(dfa, store, mode)
        assert_reachable_ints(pre, sent)
        assert_reachable_ints(suf, sent)
        table[mode] = pre, suf
    # A table holds the same prefix rows and no suffix side until ``suffix``
    # builds the sides asked for: exact wherever the filter reads them,
    # while every entry of an unbuilt side reads as unbounded.
    prefix = SweepTable.compute(dfa, store)
    assert (prefix.pre_min, prefix.pre_max, prefix.symbols, prefix.suffixes, prefix.least, prefix.greatest) == (
        table["min"][0], table["max"][0], store.symbol_tuples(), (False, False),
        min(table["min"][0][-1]), max(table["max"][0][-1]))
    assert all(c == -math.inf for row in prefix.suf_min for c in row)
    assert all(c == math.inf for row in prefix.suf_max for c in row)
    for sides in itertools.product((False, True), repeat=2):
        built = SweepTable.compute(dfa, store)
        built.suffix(dfa, store, *sides)
        assert built.suffixes == sides
        assert (built.pre_min, built.pre_max, built.live) == (prefix.pre_min, prefix.pre_max, prefix.live)
        for side, suf, full, unbounded, sent in (
                (sides[0], built.suf_min, table["min"], -math.inf, UNREACHABLE_MIN),
                (sides[1], built.suf_max, table["max"], math.inf, UNREACHABLE_MAX)):
            if side:
                assert_true_where_read(suf, full[1], full[0], sent)
            else:
                assert all(c == unbounded for row in suf for c in row)


@st.composite
def emptied(draw, pairs):
    """A pair drawn from ``pairs``, with one position's domain emptied half the time."""
    dfa, store = draw(pairs)
    domains = [store.symbols(i) for i in range(store.n)]
    if domains and draw(st.booleans()):
        domains[draw(st.integers(0, store.n - 1))] = ()
    return dfa, DomainStore(dfa.num_symbols, domains, store.counter)


#: Pairs with small and near-U64_MAX increments, some with an empty domain.
EDGE_PAIRS = emptied(st.one_of(dfa_store_pairs(max_n=12), dfa_store_pairs(max_n=12, increments=NEAR_U64_MAX)))


@given(EDGE_PAIRS)
@settings(max_examples=200, deadline=None)
def test_forward_matches_the_reference_loops_and_brute_force(pair):
    dfa, store = pair
    live = []
    pre_min, pre_max = forward(dfa, store, live=live)
    assert pre_min == reference_kernel.forward(dfa, store, "min")
    assert pre_max == reference_kernel.forward(dfa, store, "max")
    assert_live_matches_reference(live, dfa, store)
    # Row i depends only on the first i domains, so the first rows of every
    # pair are checked against an enumeration of their prefixes.
    head = DomainStore(dfa.num_symbols, [store.symbols(i) for i in range(min(store.n, 6))], store.counter)
    brute = {mode: brute_forward(dfa, head, mode) for mode in SIDE}
    assert [as_dict(r) for r in pre_min[:head.n + 1]] == brute["min"]
    assert [as_dict(r) for r in pre_max[:head.n + 1]] == brute["max"]
    assert [set(states) for states in live[:head.n + 1]] == [set(row) for row in brute["min"]]
    assert_reachable_ints(pre_min, UNREACHABLE_MIN)
    assert_reachable_ints(pre_max, UNREACHABLE_MAX)
    # The filter tests reachability with ``is``: every unreachable entry is
    # its side's sentinel object, and both sides reach the same states.
    for low, high in zip(pre_min, pre_max):
        for c, d in zip(low, high):
            assert (c is UNREACHABLE_MIN) == (c == UNREACHABLE_MIN) == (d is UNREACHABLE_MAX)


@given(st.one_of(EDGE_PAIRS, windowed(dfa_store_pairs(max_n=12))))
@settings(max_examples=200, deadline=None)
def test_backward_builds_reachable_entries_exactly(pair):
    # ``windowed`` reduces half the positions of half its pairs to one symbol.
    dfa, store = pair
    for mode, sent in (("min", UNREACHABLE_MIN), ("max", UNREACHABLE_MAX)):
        reference = reference_suffix_rows(dfa, store, mode)
        # Without ``live`` every entry is true, also for dump-sweep.
        assert backward(dfa, store, mode) == reference
        live = []
        pre = forward(dfa, store, live=live)[SIDE[mode]]
        suffix = backward(dfa, store, mode, live=live)
        assert_true_where_read(suffix, reference, pre, sent)
        assert_reachable_ints(suffix, sent)
        # Every row, at one-symbol positions too, is built exactly at the
        # states the prefix row one position earlier reaches.
        for i in range(1, store.n + 1):
            assert all(suffix[i][q] is sent for q in range(dfa.num_states) if q not in live[i - 1])


def test_empty_domain_rows_match_reference_loops():
    dfa = catalog("AAB")
    store = DomainStore(dfa.num_symbols, [(0, 1), (), (1,)], (0,))
    for mode in ("min", "max"):
        assert forward(dfa, store)[SIDE[mode]] == reference_kernel.forward(dfa, store, mode)
        zero = [0] * dfa.num_states
        assert backward(dfa, store, mode) == reference_kernel.backward(dfa, store, zero, mode)


@given(dfa_store_pairs(max_n=6), st.integers(1, 3))
@settings(max_examples=60)
def test_pass_symbols_match_store_symbols(pair, cache_size):
    dfa, store = pair
    saved = domains_module.SYMBOL_CACHE_SIZE
    domains_module.SYMBOL_CACHE_SIZE = cache_size  # a tiny bound forces evictions
    domains_module._symbol_tuples.clear()
    try:
        got = store.symbol_tuples()
        assert len(domains_module._symbol_tuples) <= cache_size
        singles = [store.symbols(i) for i in range(store.n)]
        assert len(domains_module._symbol_tuples) <= cache_size
    finally:
        domains_module.SYMBOL_CACHE_SIZE = saved
    # Both read the one decoder; the plain bit test is the reference.
    expected = [[s for s in range(dfa.num_symbols) if mask >> s & 1] for mask in store.domains]
    assert [list(syms) for syms in got] == singles == expected


# -- every pass's table, on the kernel the route picks ---------------------------

#: Longer rows, on which exact more often takes several passes that each
#: remove symbols at several positions.
LONG_PAIRS = st.one_of(dfa_store_pairs(max_states=5, min_n=6, max_n=16),
                       dfa_store_pairs(max_states=5, min_n=6, max_n=16, increments=NEAR_U64_MAX))
#: Long pairs whose dom(N) :func:`strategies.windowed` places against their
#: counter range, with wider increments so that windows cut into it more often.
WINDOWED_LONG_PAIRS = windowed(st.one_of(dfa_store_pairs(max_states=5, min_n=6, max_n=16, max_increment=3),
                                         dfa_store_pairs(max_states=5, min_n=6, max_n=16, increments=NEAR_U64_MAX)))


def every_pass_table_is_judged(dfa, store):
    # Every pass is recorded once, and each table a pass builds is judged
    # against its own store, after the removals of the passes before it.  A
    # ground store's one pass builds no table; otherwise each pass builds
    # one.  A store with an empty domain fails before its first pass.
    ground = all(len(store.symbols(i)) == 1 for i in range(store.n))
    for mode in MODES:
        with kernels.checked(mode) as builds:
            out = propagate(dfa, store.copy(), mode)
        assert len(builds) == out.passes, mode
        assert all((build is None) == ground for build in builds), mode


@given(st.one_of(LONG_PAIRS, WINDOWED_LONG_PAIRS))
@settings(max_examples=150, deadline=None)
def test_every_pass_table_matches_a_full_rebuild(pair):
    every_pass_table_is_judged(*pair)


@given(st.one_of(LONG_PAIRS, WINDOWED_LONG_PAIRS))
@settings(max_examples=30, deadline=None)
def test_every_pass_table_matches_a_full_rebuild_on_the_c_kernel(pair):
    with kernels.forced("c"):
        every_pass_table_is_judged(*pair)


@pytest.mark.parametrize("counter, removals, builds", [
    # The N rule leaves {0, 3} of [0, 3]: with holes, pass 1 builds both
    # sides, removes no symbol and so ends the loop.
    (range(4), [(COUNTER_VAR, 1), (COUNTER_VAR, 2)], [(True, True)]),
    # The N rule leaves a window at the low end, which needs only the min
    # side, or at the high end, which needs only the max side.  The pass
    # removes a symbol and certifies the fixpoint: N is fixed at the bound
    # end's counter.
    (range(2), [(COUNTER_VAR, 1), (0, 1)], [(True, False)]),
    (range(2, 6), [(COUNTER_VAR, 2), (COUNTER_VAR, 4), (COUNTER_VAR, 5), (0, 0)], [(False, True)]),
    # dom(N) misses [0, 3]: the pass fails and builds no suffix side.
    (range(4, 6), [], [(False, False)]),
])
def test_exact_builds_the_suffix_sides_dom_n_can_bind(counter, removals, builds):
    store = DomainStore(GAP.num_symbols, [(0, 1)], counter)
    reference = store.copy()
    with kernels.checked("exact") as built:
        out = propagate(GAP, store, "exact")
    assert (out.removals, [build.sides for build in built]) == (removals, builds)
    expected = reference_kernel.propagate_exact(GAP, reference)
    assert (out.status, out.removals, store) == (expected.status, expected.removals, reference)
    # The reference loop ends a fixpoint with a pass that removes nothing.
    assert out.passes == expected.passes - (out.status == FIXPOINT)


@pytest.mark.parametrize("mode", ["exact", "decomposed"])
def test_the_n_rule_narrows_dom_n_before_the_symbol_loop(mode):
    # dom(N) = {0, 5} against the end intervals [0, 0] and [3, 3]: the N rule
    # removes 5 first, so the one pass checks the low end alone, removes y
    # and certifies.  Applied after the symbol loop, the N rule would leave
    # the decomposition's first pass no side to check (it could stop there,
    # keeping y) and exact's first pass the holes of {0, 5}.
    store = DomainStore(GAP.num_symbols, [(0, 1)], (0, 5))
    with kernels.checked(mode) as builds:
        out = propagate(GAP, store, mode)
    assert (out.status, out.removals, out.passes) == (FIXPOINT, [(COUNTER_VAR, 5), (0, 1)], 1)
    assert [build.sides for build in builds] == [(True, False)]
    assert (store.symbols(0), store.counter) == ([0], [0])


# -- root-long-shaped inputs -------------------------------------------------------

def propagate_root_long_shaped(index, end, holed):
    """Check every mode on a root-long-shaped input against the reference
    loops; returns the passes and table builds of exact and the decomposition."""
    dfa, store = root_long_shaped(index, end, holed)
    reached = [sum(c != UNREACHABLE_MIN for c in row) for row in forward(dfa, store)[0]]
    assert sum(reached) < 0.75 * len(reached) * dfa.num_states  # many entries are never read
    two_sided = {}
    for mode in MODES:
        reference = reference_kernel.PROPAGATORS.get(mode, reference_kernel.propagate_decomposed)
        expected = reference(dfa, store.copy())
        # Every table a pass builds, after the first pass's removals too, is
        # judged against its own store, on the C kernel at this size.
        with kernels.checked(mode) as builds:
            out = propagate(dfa, store.copy(), mode)
        assert (out.status, set(out.removals)) == (expected.status, set(expected.removals)), mode
        assert {build.kind for build in builds} == {"CTable"}, mode
        if mode in ("exact", "decomposed"):
            assert out.removals, mode
            two_sided[mode] = out.passes, [build.sides for build in builds]
    return two_sided


ROOT_LONG_CASES = [(0, "least"), (1, "least"), (2, "greatest"), (3, "greatest")]


@pytest.mark.parametrize("index, end", ROOT_LONG_CASES)
def test_root_long_shaped_inputs_match_reference_loops(index, end):
    # dom(N) binds one end and has no holes: the first pass builds that
    # end's suffix side alone and certifies the fixpoint, so no pass
    # confirms it.
    bound = (end == "least", end == "greatest")
    for mode, (passes, builds) in propagate_root_long_shaped(index, end, holed=False).items():
        assert (passes, builds) == (1, [bound]), mode


@pytest.mark.parametrize("index, end", ROOT_LONG_CASES)
def test_holed_root_long_shaped_inputs_build_the_bound_side_again(index, end):
    # dom(N) is {c - 1, c + 1} around the bound end's counter c.  The first
    # pass's N rule leaves only the value inside [least, greatest], which
    # binds both ends, so no certificate fires and the second pass builds
    # the bound end's suffix side again, on the domains the first left.
    side = 0 if end == "least" else 1
    for mode, (passes, builds) in propagate_root_long_shaped(index, end, holed=True).items():
        assert passes == len(builds) == 2 and builds[1][side], mode
