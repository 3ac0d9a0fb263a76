import dataclasses

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kernels
import reference_kernel
from regcount import (
    COUNTER_VAR,
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
from strategies import (B, MULTI_PASS_WITNESSES, ONE, SHORT_PAIRS, TWO, WINDOWED_PAIRS, b_2x2, b_store, b_witness_y,
                        b_witness_z, dfa_store_pairs, ground_pairs)


# -- feasibility and edge costs ----------------------------------------------


def test_feasible_atmost_on_b():
    # Feasibility is the bound propagators' failure test: the least (greatest)
    # full-string counter against max(dom(N)) (min(dom(N))).
    assert not propagate_atmost(B, b_2x2()).failed
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
    store = b_2x2()
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
    store = b_witness_z()
    out = propagate_exact(B, store)
    assert not out.failed
    assert out.removals == [(4, TWO)]
    assert store.symbols(4) == [ONE]
    assert out.passes >= 2  # the removal enables (and requires) a re-check


def test_exact_misses_merged_interval_witness():
    store = b_witness_y()
    out = propagate_exact(B, store)
    assert not out.failed
    assert (4, TWO) not in out.removals
    # ... although the oracle knows y = 2 is unsupported
    report = enumerate_support(B, b_witness_y(), "exact")
    assert TWO not in report.supported[4]


def test_exact_counter_pruning_is_sound_but_partial():
    before = b_2x2()
    store = b_2x2()
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


@pytest.mark.parametrize("name", list(MULTI_PASS_WITNESSES))
def test_exact_reaches_the_fixpoint_on_multi_pass_witnesses(name):
    kernels.multi_pass_witness_reaches_its_fixpoint(name)


# -- decomposition baseline ----------------------------------------------------


def test_decomposed_misses_counter_hole():
    store = b_2x2()
    out = propagate_decomposed(B, store)
    assert not out.failed
    assert not any(var == COUNTER_VAR for var, _ in out.removals)
    report = enumerate_support(B, b_2x2(), "exact")
    assert report.supported_counter == {0, 2}  # 1 is unsupported yet kept


def test_decomposed_misses_last_position_inference():
    store = b_witness_z()
    out = propagate_decomposed(B, store)
    assert not out.failed
    assert (4, TWO) not in out.removals
    assert TWO in store.symbols(4)


def test_decomposed_ground_satisfiable_is_silent():
    store = b_store([(TWO,), (TWO,)], (1,))
    out = propagate_decomposed(B, store)
    assert not out.failed and out.removals == []


def test_dispatch_and_empty_store():
    store = b_2x2()
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
    exact_store, decomposed_store = b_witness_z(), b_witness_z()
    exact_out = propagate_exact(B, exact_store)
    decomposed_out = propagate_decomposed(B, decomposed_store)
    assert set(exact_out.removals) > set(decomposed_out.removals)


def test_lifted_automaton_prunes_words_ending_rejected():
    # forbid words whose last letters end with exactly one trailing "a" by
    # leaving that state out of the accepting ones and lifting; with the end-of-string symbol
    # appended, the penalty exceeds every allowed N and atmost filtering
    # rules the rejected words out
    from regcount import lift_accepting

    lifted = lift_accepting(catalog("AAB"), [0, 2], penalty=2)  # max(dom(N)) + 1
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


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=300, deadline=None)
def test_interval_filter_matches_reference_loops(pair):
    _matches_the_plain_loops(*pair)


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=300, deadline=None)
def test_decomposed_reaches_the_fixpoint_of_alternating_runs(pair):
    kernels.decomposed_reaches_the_fixpoint_of_alternating_runs(*pair)


@given(st.one_of(SHORT_PAIRS, WINDOWED_PAIRS))
@settings(max_examples=300, deadline=None)
def test_certified_fixpoints_remove_nothing_more(pair):
    for mode, build in kernels.certified_fixpoints_remove_nothing_more(*pair).items():
        event(f"{mode} certified after a pass with suffix sides {build.sides}")


@given(ground_pairs())
@settings(max_examples=150, deadline=None)
def test_ground_stores_take_one_pass_without_a_table(pair):
    kernels.ground_store_takes_one_pass_without_a_table(*pair)


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
