import dataclasses

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kernels
import reference_kernel
from regcount import (
    COUNTER_VAR,
    U64_MAX,
    CounterDfa,
    DomainStore,
    Mode,
    SweepTable,
    catalog,
    check_dc,
    enumerate_support,
    propagate,
    propagate_atleast,
    propagate_atmost,
    propagate_decomposed,
    propagate_exact,
    run,
)
from regcount.propagators import FIXPOINT
from strategies import NEAR_U64_MAX, SHORT_PAIRS, WINDOWED_PAIRS, cdfas, dfa_store_pairs

B = catalog("B")
ONE, TWO = B.symbol_id("1"), B.symbol_id("2")


def b_store(domains, counter):
    return DomainStore(B.num_symbols, domains, counter)


def b_2x2(counter=(0, 1, 2)):
    return b_store([(TWO,), (ONE, TWO), (TWO,)], counter)


def b_witness_z(counter=(1,)):
    # <2, x, 1, y, z> with x, y, z in {1, 2}
    return b_store([(TWO,), (ONE, TWO), (ONE,), (ONE, TWO), (ONE, TWO)], counter)


def b_witness_y(counter=(1, 3)):
    # <2, 2, x, 2, y> with x, y in {1, 2}
    return b_store([(TWO,), (TWO,), (ONE, TWO), (TWO,), (ONE, TWO)], counter)


# -- feasibility and edge costs ----------------------------------------------


def test_feasible_atmost_on_b():
    # Feasibility is the bound propagators' failure test: the least (greatest)
    # full-string counter against max(dom(N)) (min(dom(N))).
    assert not propagate_atmost(B, b_2x2((0, 1, 2))).failed
    # the counter can stay at 0 (x = 1), so even a 0 bound is feasible
    assert not propagate_atmost(B, b_2x2((0,))).failed
    assert not propagate_atleast(B, b_2x2((2,))).failed
    assert propagate_atleast(B, b_2x2((3,))).failed


def full_table(dfa, store):
    """The Python table of ``store`` with both suffix sides built."""
    table = SweepTable.compute(dfa, store)
    table.suffix(dfa, store, True, True)
    return table


def completion_cost(dfa, table, i, sym, pick):
    """Least (``pick=min``) or greatest (``pick=max``) full-string counter through
    symbol ``sym`` at position ``i`` (1-based); the side's sentinel if none."""
    pre, suf = (table.pre_min, table.suf_min) if pick is min else (table.pre_max, table.suf_max)
    return pick(pre[i - 1][q] + dfa.increment[q][sym] + suf[i + 1][dfa.next_state[q][sym]]
                for q in range(dfa.num_states))


def test_min_cost_on_b_choice_position():
    store = b_2x2()
    table = full_table(B, store)
    assert completion_cost(B, table, 2, TWO, min) == 2
    assert completion_cost(B, table, 2, ONE, min) == 0
    assert completion_cost(B, table, 2, ONE, max) == 0
    assert completion_cost(B, table, 2, TWO, max) == 2


def test_min_cost_on_ground_word_equals_run():
    aab = catalog("AAB")
    word = "aabab"
    store = DomainStore(aab.num_symbols, [(aab.symbol_id(c),) for c in word], (0, 1))
    table = full_table(aab, store)
    counter = run(aab, word).counter
    for i, c in enumerate(word, start=1):
        assert completion_cost(aab, table, i, aab.symbol_id(c), min) == counter
        assert completion_cost(aab, table, i, aab.symbol_id(c), max) == counter


def test_min_cost_unreachable_symbol():
    # position 1 is pinned to "2", so "1" there has no admissible completion
    store = b_2x2()
    table = full_table(B, store)
    assert completion_cost(B, table, 1, ONE, min) == 0  # "1" still reaches q with counter 0
    pinned = b_store([(TWO,)], (0,))
    table = full_table(B, pinned)
    assert completion_cost(B, table, 1, TWO, min) == 0


# -- atmost -------------------------------------------------------------------


def test_atmost_keeps_everything_on_loose_bound():
    store = b_2x2((0, 1, 2))
    out = propagate_atmost(B, store)
    assert not out.failed and out.removals == [] and out.passes == 1


def test_atmost_removes_expensive_choice():
    store = b_2x2((0,))
    out = propagate_atmost(B, store)
    assert not out.failed
    assert out.removals == [(1, TWO)]
    assert store.symbols(1) == [ONE]


def test_atmost_aab_full_domains_no_pruning():
    aab = catalog("AAB")
    store = DomainStore(aab.num_symbols, [(0, 1)] * 3, (1,))
    out = propagate_atmost(aab, store)
    assert not out.failed and out.removals == []


def test_atmost_prunes_low_counter_values():
    # both admissible words cost at least 1, so N = 0 loses its support
    store = b_store([(TWO,), (TWO,)], (0, 1, 5))
    out = propagate_atmost(B, store)
    assert (COUNTER_VAR, 0) in out.removals
    assert store.counter == [1, 5]


def test_atmost_fails_when_min_exceeds_bound():
    store = b_store([(TWO,), (TWO,)], (0,))
    out = propagate_atmost(B, store)
    assert out.failed


# -- atleast ------------------------------------------------------------------


def test_atleast_removes_cheap_choice():
    store = b_2x2((2,))
    out = propagate_atleast(B, store)
    assert not out.failed
    assert out.removals == [(1, ONE)]


def test_atleast_zero_is_vacuous():
    for store in (b_2x2((0,)), b_witness_z((0,)), b_witness_y((0,))):
        out = propagate_atleast(B, store)
        assert not out.failed and out.removals == []


def test_atleast_rst_reference_is_feasible():
    rst = catalog("RST")
    doms = [(rst.symbol_id("r"), rst.symbol_id("t"))] * 6
    store = DomainStore(rst.num_symbols, doms, (4,))
    out = propagate_atleast(rst, store)
    assert not out.failed


def test_atleast_prunes_high_counter_values():
    store = b_2x2((0, 2, 7))
    out = propagate_atleast(B, store)
    assert (COUNTER_VAR, 7) in out.removals
    assert store.counter == [0, 2]


# -- exact --------------------------------------------------------------------


def test_exact_infers_last_position_on_witness():
    store = b_witness_z((1,))
    out = propagate_exact(B, store)
    assert not out.failed
    assert out.removals == [(4, TWO)]
    assert store.symbols(4) == [ONE]
    assert out.passes >= 2  # the removal enables (and requires) a re-check


def test_exact_misses_merged_interval_witness():
    store = b_witness_y((1, 3))
    out = propagate_exact(B, store)
    assert not out.failed
    assert (4, TWO) not in out.removals
    # ... although the oracle knows y = 2 is unsupported
    report = enumerate_support(B, b_witness_y((1, 3)), "exact")
    assert TWO not in report.supported[4]


def test_exact_counter_pruning_is_sound_but_partial():
    before = b_2x2((0, 1, 2))
    store = b_2x2((0, 1, 2))
    out = propagate_exact(B, store)
    assert not out.failed
    assert set(out.removals) <= {(COUNTER_VAR, 1)}
    verdict = check_dc(B, before, "exact", out)
    assert verdict.unsound == [] and not verdict.failed_on_satisfiable


def test_exact_counter_pruning_fires_on_ground_words():
    store = b_store([(TWO,), (TWO,)], (0, 1, 2))
    out = propagate_exact(B, store)
    assert not out.failed
    assert set(out.removals) == {(COUNTER_VAR, 0), (COUNTER_VAR, 2)}
    assert store.counter == [1]


def test_exact_fails_fast_outside_reachable_range():
    store = b_store([(TWO,), (TWO,)], (5,))
    out = propagate_exact(B, store)
    assert out.failed


#: Multi-pass exact witnesses over two states: (next_state, increment,
#: domains, dom(N), exact's removals and passes, the decomposition's
#: removals), symbols by name.  On "prefix", exact's first pass removes
#: symbols at positions 0, 1 and 5, and only the prefix rows its second pass
#: builds from the shrunk domains show that N = 11 has lost its support.  On
#: "suffix-jump", exact's first pass removes (4, b) and (11, b).  The min
#: suffix rows 12 down to 6 of its second pass equal the first pass's,
#: though row 12 reads the shrunk position 11, and row 5, which reads
#: position 4, differs; from there the second pass removes (3, b) and the
#: third (0, a).  A sweep that reused the first pass's suffix rows would
#: have to resume at position 4 after finding row 12 unchanged.
MULTI_PASS_WITNESSES = {
    "prefix": (((1, 1, 0), (1, 0, 1)), ((2, 0, 1), (3, 3, 3)), "b,c;a,c;c;b;a,b;b,c;c;a", (11, 12),
               [(0, "b"), (1, "a"), (5, "c"), (COUNTER_VAR, 11)], 2, [(0, "b"), (1, "a")]),
    "suffix-jump": (((1, 0), (0, 1)), ((0, 0), (1, 3)), "a,b;b;a;a,b;a,b;a;b;a;b;b;b;a,b", (11, 12),
                    [(4, "b"), (11, "b"), (COUNTER_VAR, 11), (3, "b"), (0, "a")], 3, []),
}


@pytest.mark.parametrize("name", list(MULTI_PASS_WITNESSES))
def test_exact_reaches_the_fixpoint_on_multi_pass_witnesses(name):
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


# -- decomposition baseline ----------------------------------------------------


def test_decomposed_misses_counter_hole():
    store = b_2x2((0, 1, 2))
    out = propagate_decomposed(B, store)
    assert not out.failed
    assert not any(var == COUNTER_VAR for var, _ in out.removals)
    report = enumerate_support(B, b_2x2((0, 1, 2)), "exact")
    assert report.supported_counter == {0, 2}  # 1 is unsupported yet kept


def test_decomposed_misses_last_position_inference():
    store = b_witness_z((1,))
    out = propagate_decomposed(B, store)
    assert not out.failed
    assert (4, TWO) not in out.removals
    assert TWO in store.symbols(4)


def test_decomposed_ground_satisfiable_is_silent():
    store = b_store([(TWO,), (TWO,)], (1,))
    out = propagate_decomposed(B, store)
    assert not out.failed and out.removals == []


def test_dispatch_and_empty_store():
    store = b_2x2((0, 1, 2))
    assert not propagate(B, store, "decomposed").failed
    empty = b_store([(TWO,), ()], (0,))
    for mode in ("atmost", "atleast", "exact"):
        assert propagate(B, empty.copy(), mode).failed


def test_dispatch_takes_members_and_values_and_rejects_unknown_modes():
    for mode in Mode:
        assert propagate(B, b_2x2(), mode) == propagate(B, b_2x2(), mode.value)
    for unknown in ("EXACT", "nope", None, ["exact"]):
        with pytest.raises(ValueError):
            propagate(B, b_2x2(), unknown)


# -- fuzzed invariants ----------------------------------------------------------


@given(dfa_store_pairs())
@settings(max_examples=80, deadline=None)
def test_bound_propagators_are_domain_consistent(pair):
    dfa, store = pair
    for mode, propagator in (("atmost", propagate_atmost), ("atleast", propagate_atleast)):
        work = store.copy()
        out = propagator(dfa, work)
        verdict = check_dc(dfa, store, mode, out)
        assert verdict.ok(mode), (mode, verdict)
        report = enumerate_support(dfa, store, mode)
        assert out.failed == (not report.satisfiable)


@given(dfa_store_pairs())
@settings(max_examples=80, deadline=None)
def test_exact_is_sound(pair):
    dfa, store = pair
    work = store.copy()
    out = propagate_exact(dfa, work)
    verdict = check_dc(dfa, store, "exact", out)
    assert verdict.unsound == [] and not verdict.failed_on_satisfiable, verdict


@given(dfa_store_pairs())
@settings(max_examples=80, deadline=None)
def test_exact_dominates_decomposition(pair):
    dfa, store = pair
    exact_store, decomposed_store = store.copy(), store.copy()
    exact_out = propagate_exact(dfa, exact_store)
    decomposed_out = propagate_decomposed(dfa, decomposed_store)
    if decomposed_out.failed:
        assert exact_out.failed
    elif not exact_out.failed:
        assert set(exact_out.removals) >= set(decomposed_out.removals)


@given(dfa_store_pairs())
@settings(max_examples=60, deadline=None)
def test_exact_pass_count_is_bounded(pair):
    dfa, store = pair
    budget = sum(map(int.bit_count, store.domains)) + len(store.counter)
    out = propagate_exact(dfa, store.copy())
    assert out.passes <= max(budget, 1)


def test_exact_strictly_dominates_on_witness():
    exact_store, decomposed_store = b_witness_z((1,)), b_witness_z((1,))
    exact_out = propagate_exact(B, exact_store)
    decomposed_out = propagate_decomposed(B, decomposed_store)
    assert set(exact_out.removals) > set(decomposed_out.removals)


def test_lifted_automaton_prunes_words_ending_rejected():
    # forbid words whose last letters end with exactly one trailing "a" by
    # marking that state rejecting and lifting; with the end-of-string symbol
    # appended, the penalty exceeds every allowed N and atmost filtering
    # rules the rejected words out
    import dataclasses

    from regcount import lift_accepting

    flagged = dataclasses.replace(catalog("AAB"), accepting=(True, False, True))
    lifted = lift_accepting(flagged, penalty=2)  # max(dom(N)) + 1
    a, b_sym, dollar = (lifted.symbol_id(s) for s in ("a", "b", "$"))
    store = DomainStore(lifted.num_symbols, [(a, b_sym), (a,), (dollar,)], (0, 1))
    out = propagate_atmost(lifted, store)
    assert not out.failed
    # "aa$" survives (ends accepted, counter 0); "ba$" would end rejected
    assert out.removals == [(0, b_sym)]
    assert store.symbols(0) == [a]


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=200, deadline=None)
def test_propagators_are_idempotent(pair):
    # search.solve skips the propagator on one-value branches, whose store is
    # the parent's fixpoint; a second run there must change nothing.
    # Windowed stores make exact and the decomposition take several passes.
    dfa, store = pair
    for propagator in (propagate_atmost, propagate_atleast, propagate_exact, propagate_decomposed):
        work = store.copy()
        if not propagator(dfa, work).failed:
            settled = work.copy()
            second = propagator(dfa, work)
            assert (second.status, second.removals) == (FIXPOINT, []), propagator.__name__
            assert work == settled and work.removal_log == settled.removal_log


def _matches_the_plain_loops(dfa, store):
    # The one interval loop against a plain loop per semantics: the bound
    # rules' least/greatest edge cost and the exact rule's interval check.
    # Windowed stores reach every skip: exact passes that build one suffix
    # side or none, and positions reduced to one symbol.
    for mode, reference in reference_kernel.PROPAGATORS.items():
        new_store, old_store = store.copy(), store.copy()
        new = propagate(dfa, new_store, mode)
        old = reference(dfa, old_store)
        assert (new.status, new.removals) == (old.status, old.removals), mode
        assert new_store == old_store
        # A certified fixpoint, or one whose last pass removed only N-values,
        # skips the reference's last pass, which removed nothing on the same
        # store.
        certified = old.status == FIXPOINT and old.passes >= 2 and new.passes == old.passes - 1
        assert new.passes == old.passes or certified, mode


def _decomposed_reaches_the_fixpoint_of_alternating_runs(dfa, store):
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


def _certified_fixpoints_remove_nothing_more(dfa, store):
    # Exact and the decomposition return after a pass that removed a symbol
    # when that pass certifies that the next one would remove nothing: only
    # a pass that built one suffix side can, by its supports' counters.  On
    # such a call's result, a fresh run and the plain reference loop remove
    # nothing.  Returns the certifying pass's build, by mode.
    certified = {}
    for mode, reference in (("exact", reference_kernel.propagate_exact),
                            ("decomposed", reference_kernel.propagate_decomposed)):
        work = store.copy()
        with kernels.recorded_tables() as builds:
            out = propagate(dfa, work, mode)
        if out.failed or not builds or builds[-1].logged in (None, len(work.removal_log)):
            continue  # no pass certified: none built a table, or the last one checked or removed no symbol
        certified[mode] = last = builds[-1]
        assert last.sides in ((True, False), (False, True)), mode
        again = propagate(dfa, work.copy(), mode)
        assert (again.status, again.removals) == (FIXPOINT, []), mode
        confirmed = reference(dfa, work.copy())
        assert (confirmed.status, confirmed.removals) == (FIXPOINT, []), mode
    return certified


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=300, deadline=None)
def test_interval_filter_matches_reference_loops(pair):
    _matches_the_plain_loops(*pair)


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=300, deadline=None)
def test_decomposed_reaches_the_fixpoint_of_alternating_runs(pair):
    _decomposed_reaches_the_fixpoint_of_alternating_runs(*pair)


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=300, deadline=None)
def test_certified_fixpoints_remove_nothing_more(pair):
    for mode, build in _certified_fixpoints_remove_nothing_more(*pair).items():
        event(f"{mode} certified after a pass with suffix sides {build.sides}")


@st.composite
def ground_pairs(draw):
    """A store with one symbol per position, n = 0..12, and a dom(N) drawn
    around its word's counter, near 0 or anywhere up to 2 * U64_MAX."""
    dfa = draw(st.one_of(cdfas(), cdfas(increments=NEAR_U64_MAX)))
    word = draw(st.lists(st.integers(0, dfa.num_symbols - 1), max_size=12))
    c = run(dfa, word).counter
    value = st.one_of(st.integers(max(0, c - 2), c + 2), st.integers(0, 12), st.integers(0, 2 * U64_MAX))
    counter = draw(st.sets(value, min_size=1, max_size=6))
    return dfa, DomainStore(dfa.num_symbols, [[s] for s in word], counter)


def _ground_store_takes_one_pass_without_a_table(dfa, store):
    # A ground store has one word: its one pass runs the word and applies
    # the N rule, and builds no table on either kernel.  The outcome is the
    # plain loops': status, removals in order and final store, and for the
    # decomposition the status, and at a fixpoint the final store and
    # removal set.
    for mode, reference in reference_kernel.PROPAGATORS.items():
        new_store, old_store = store.copy(), store.copy()
        with kernels.recorded_tables() as builds:
            new = propagate(dfa, new_store, mode)
        assert (builds, new.passes) == ([], 1), mode
        old = reference(dfa, old_store)
        assert (new.status, new.removals, new_store) == (old.status, old.removals, old_store), mode
    with kernels.recorded_tables() as builds:
        passes = propagate_decomposed(dfa, store.copy()).passes
    assert (builds, passes) == ([], 1)
    _decomposed_reaches_the_fixpoint_of_alternating_runs(dfa, store)


@given(ground_pairs())
@settings(max_examples=150, deadline=None)
def test_ground_stores_take_one_pass_without_a_table(pair):
    _ground_store_takes_one_pass_without_a_table(*pair)


def test_interleaved_automata_do_not_reuse_stale_tables():
    # Same transitions, different increments: reusing one automaton's columns
    # for the other would change the outcome.
    a = CounterDfa(num_states=1, alphabet=("x", "y"), start=0, next_state=((0, 0),), increment=((0, 1),))
    b = dataclasses.replace(a, increment=((1, 0),))
    a_twin = dataclasses.replace(a)
    assert a_twin == a and a_twin is not a
    store = DomainStore(a.num_symbols, [(0, 1), (0,)], (1,))
    expected = {id(dfa): kernels.outcomes(dfa, store) for dfa in (a, b, a_twin)}
    assert expected[id(a)] != expected[id(b)]
    for dfa in (a, b, a_twin, b, a, a_twin, a):
        assert kernels.outcomes(dfa, store) == expected[id(dfa)]
