import itertools
import operator

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from regcount import (
    COUNTER_VAR,
    FIXPOINT,
    GenConfig,
    CapExceeded,
    CounterDfa,
    Mode,
    DomainStore,
    PropagationOutcome,
    build_subset_sum_dfa,
    catalog,
    check_dc,
    enumerate_all_modes,
    enumerate_all_modes_native,
    enumerate_support,
    enumerate_support_native,
    among_signature,
    propagate_decomposed,
    propagate_exact,
    random_among_instance,
    rng_for,
    run,
)
from regcount.domains import project_store
from regcount.oracle import judge
from strategies import NEAR_U64_MAX, dfa_store_pairs, few_choice_pairs, few_choice_signature_instances, signature_instances

B = catalog("B")
ONE, TWO = B.symbol_id("1"), B.symbol_id("2")


def b_store(domains, counter):
    return DomainStore(B.num_symbols, domains, counter)


def test_exact_counter_support_has_a_hole():
    store = b_store([(TWO,), (ONE, TWO), (TWO,)], (0, 1, 2))
    report = enumerate_support(B, store, "exact")
    assert report.supported_counter == {0, 2}
    assert report.solution_count == 2


def test_exact_position_support_on_witness():
    store = b_store([(TWO,), (ONE, TWO), (ONE,), (ONE, TWO), (ONE, TWO)], (1,))
    report = enumerate_support(B, store, "exact")
    assert report.supported[4] == {ONE}
    assert report.satisfiable


def test_subset_sum_instance_is_satisfiable():
    dfa = build_subset_sum_dfa([3, 5, 7])
    zero = dfa.symbol_id("0")
    domains = [(zero, dfa.symbol_id(str(v))) for v in (3, 5, 7)]
    store = DomainStore(dfa.num_symbols, domains, (8,))
    report = enumerate_support(dfa, store, "exact")
    assert report.satisfiable  # 3 + 5
    assert report.supported[2] == {zero}  # 7 cannot participate in a sum of 8


def test_atmost_and_atleast_counts():
    store = b_store([(TWO,), (ONE, TWO), (TWO,)], (0, 1, 2))
    atmost = enumerate_support(B, store, "atmost")
    atleast = enumerate_support(B, store, "atleast")
    # counters are {0, 2}: atmost pairs (0,{0,1,2}) and (2,{2}); atleast mirrors
    assert atmost.solution_count == 4
    assert atleast.solution_count == 4
    assert atmost.supported_counter == {0, 1, 2}
    assert atleast.supported_counter == {0, 1, 2}


def test_empty_sequence_has_one_string():
    store = DomainStore(B.num_symbols, [], (0, 3))
    report = enumerate_support(B, store, "atmost")
    assert report.solution_count == 2  # counter 0 vs N in {0, 3}
    assert enumerate_support(B, store, "exact").supported_counter == {0}


def test_reports_are_deterministic():
    store = b_store([(ONE, TWO), (ONE, TWO)], (1,))
    first = enumerate_support(B, store, "exact")
    second = enumerate_support(B, store, "exact")
    assert first == second


def test_all_modes_matches_per_mode_calls():
    store = b_store([(TWO,), (ONE, TWO), (ONE, TWO)], (1, 3))
    combined = enumerate_all_modes(B, store)
    for mode in ("atmost", "atleast", "exact"):
        assert combined[mode] == enumerate_support(B, store, mode)


def test_long_ground_instance_reports_its_word():
    # 1500 one-choice positions, deeper than the default recursion limit.
    word = [(ONE, TWO)[i % 3 == 0] for i in range(1500)]
    counter = run(B, word).counter
    store = b_store([(s,) for s in word], (counter - 1, counter, counter + 1))
    reports = enumerate_all_modes(B, store)
    expected_counter = {"atmost": {counter, counter + 1}, "atleast": {counter - 1, counter}, "exact": {counter}}
    for mode, report in reports.items():
        assert report.supported == [{s} for s in word]
        assert report.supported_counter == expected_counter[mode]
        assert report.solution_count == len(expected_counter[mode])


def test_cap_is_enforced():
    store = b_store([(ONE, TWO)] * 3, (0,))
    with pytest.raises(CapExceeded):
        enumerate_support(B, store, "exact", cap=7)
    enumerate_support(B, store, "exact", cap=8)


@given(dfa_store_pairs())
@settings(max_examples=60, deadline=None)
def test_exact_support_implies_both_bound_supports(pair):
    dfa, store = pair
    reports = enumerate_all_modes(dfa, store)
    for i in range(store.n):
        assert reports["exact"].supported[i] <= reports["atmost"].supported[i]
        assert reports["exact"].supported[i] <= reports["atleast"].supported[i]
    assert reports["exact"].supported_counter <= reports["atmost"].supported_counter
    assert reports["exact"].supported_counter <= reports["atleast"].supported_counter


@given(dfa_store_pairs())
@settings(max_examples=60, deadline=None)
def test_satisfiable_iff_solutions_iff_full_support(pair):
    dfa, store = pair
    for mode in ("atmost", "atleast", "exact"):
        report = enumerate_support(dfa, store, mode)
        assert report.satisfiable == (report.solution_count > 0)
        nonempty = all(report.supported[i] for i in range(store.n)) and bool(report.supported_counter)
        assert report.satisfiable == nonempty


def _brute_force(dfa, domains, symbol_of, counter_values, mode):
    """(supported values, supported N, solution count) from every assignment, one by one."""
    holds = {"atmost": operator.le, "atleast": operator.ge, "exact": operator.eq}[mode]
    supported = [set() for _ in domains]
    supported_counter = set()
    count = 0
    for word in itertools.product(*(sorted(set(dom)) for dom in domains)):
        counter = run(dfa, [symbol_of(i, v) for i, v in enumerate(word)]).counter
        for v in counter_values:
            if holds(counter, v):
                count += 1
                supported_counter.add(v)
                for i, value in enumerate(word):
                    supported[i].add(value)
    return supported, supported_counter, count


AMONG = catalog("AMONG")


def among_case(members, natives, counter):
    return AMONG, among_signature(AMONG, members, natives), natives, counter


# From state 0, a and b both step to state 1 and add 1; from state 1 they both
# step to state 0, adding 0 and 2.
MERGING = CounterDfa(2, ("a", "b", "c"), 0, ((1, 1, 0), (0, 0, 1)), ((1, 1, 0), (0, 2, 1)))


def merging_store(domains, counter):
    return DomainStore(3, [tuple(MERGING.symbol_id(s) for s in dom) for dom in domains], counter)


# Inputs: small random rows; rows of up to 10 positions of which at most two
# have several choices, so that one-choice runs sit between the oracle's frames
# and after the last one; huge increments.  The examples pin n = 0, exactly one
# position with several choices, and none.  The last example merges a and b
# into one step at position 0, a frame that is not the last, and again at
# position 3, the last frame, when it is entered in state 0; position 2's a and
# b end in one state with different counters and stay apart.  Their supports
# differ between the modes.  The native test draws the same shapes.
@given(st.one_of(dfa_store_pairs(), few_choice_pairs(dfa_store_pairs(max_n=10)),
                 few_choice_pairs(dfa_store_pairs(max_n=10, increments=NEAR_U64_MAX)),
                 dfa_store_pairs(increments=NEAR_U64_MAX)))
@example((B, b_store([], (0, 2))))
@example((B, b_store([(TWO,), (ONE,), (ONE, TWO), (TWO,), (ONE,)], (1, 2, 3))))
@example((B, b_store([(TWO,), (ONE,), (TWO,)], (0, 1))))
@example((MERGING, merging_store(["ab", "c", "abc", "ab"], (3, 6))))
@settings(max_examples=120, deadline=None)
def test_all_modes_matches_brute_force(pair):
    dfa, store = pair
    reports = enumerate_all_modes(dfa, store)
    domains = [store.symbols(i) for i in range(store.n)]
    for mode in ("atmost", "atleast", "exact"):
        report = reports[mode]
        got = (report.supported, report.supported_counter, report.solution_count)
        assert got == _brute_force(dfa, domains, lambda i, s: s, store.counter, mode)


@given(st.one_of(signature_instances(), few_choice_signature_instances(signature_instances(max_n=10)),
                 few_choice_signature_instances(signature_instances(max_n=10, increments=NEAR_U64_MAX)),
                 signature_instances(increments=NEAR_U64_MAX)))
@example(among_case({1}, [], [0, 2]))
@example(among_case({1, 4}, [[1], [2, 2], [1, 3], [4], [0]], [1, 2]))
@example(among_case({1}, [[0], [1, 1], [2]], [0, 1]))
# Members merge, and so do non-members: position 0 holds all five values
# (two steps, a frame that is not the last), and the last frame's 0 and 2.
# Only the members of the first frame support N = 3 under atleast.
@example(among_case({1, 4}, [[0, 1, 2, 3, 4], [2], [1, 3], [4, 0, 4, 2]], [3]))
@settings(max_examples=120, deadline=None)
def test_native_oracle_matches_brute_force(case):
    dfa, sig, natives, counter = case
    for mode in ("atmost", "atleast", "exact"):
        report = enumerate_support_native(dfa, sig, natives, counter, mode)
        got = (report.supported, report.supported_counter, report.solution_count)
        assert got == _brute_force(dfa, natives, sig.symbol_of, counter, mode)


@pytest.mark.parametrize("seed", range(4))
def test_native_all_modes_report_holds_each_one_mode_report(seed):
    # The among check enumerates once for every mode; each one-mode report is
    # the same mode's entry of that one enumeration.
    for index in range(25):
        inst = random_among_instance(GenConfig(max_n=6), rng_for(seed, index), universe_size=5)
        args = (inst.dfa, inst.signature, inst.native_domains, inst.counter_values)
        reports = enumerate_all_modes_native(*args)
        assert sorted(reports) == ["atleast", "atmost", "exact"]
        for mode in ("atmost", "atleast", "exact", "decomposed"):
            assert enumerate_support_native(*args, mode) == reports[Mode(mode).semantics.value], (index, mode)


# -- check_dc -------------------------------------------------------------------


def test_judge_names_a_repeated_native_value_once():
    # The shape the native brute-force test draws: a value may repeat in its domain.
    natives = [[1, 1, 3], [2, 2]]
    report = enumerate_support_native(AMONG, among_signature(AMONG, {1}, natives), natives, [0], "atmost")
    assert report.supported == [{3}, {2}]
    verdict = judge(report, natives, [0, 0], PropagationOutcome(FIXPOINT, [(1, 2)]))
    assert (verdict.unsound, verdict.gaps) == ([(1, 2)], [(0, 1)])


def test_check_dc_flags_the_merged_interval_gap():
    before = b_store([(TWO,), (TWO,), (ONE, TWO), (TWO,), (ONE, TWO)], (1, 3))
    work = before.copy()
    out = propagate_exact(B, work)
    verdict = check_dc(B, before, "exact", out)
    assert verdict.unsound == []
    assert (4, TWO) in verdict.gaps
    # gaps are allowed to every exact filtering, however the mode is spelled, and to no other
    assert [verdict.ok(m) for m in ("exact", Mode.EXACT, "decomposed", "atmost")] == [True, True, True, False]


def test_check_dc_flags_decomposition_counter_gap():
    before = b_store([(TWO,), (ONE, TWO), (TWO,)], (0, 1, 2))
    work = before.copy()
    out = propagate_decomposed(B, work)
    verdict = check_dc(B, before, "exact", out)
    assert (COUNTER_VAR, 1) in verdict.gaps


def test_check_dc_clean_on_failed_unsatisfiable():
    before = b_store([(TWO,), (TWO,)], (5,))
    out = propagate_exact(B, before.copy())
    verdict = check_dc(B, before, "exact", out)
    assert (verdict.unsound, verdict.gaps, verdict.failed_on_satisfiable) == ([], [], False)
    assert verdict.ok("exact")


# -- native-value oracle ----------------------------------------------------------


def test_native_oracle_membership_counts():
    dfa = catalog("AMONG")
    natives = [[1, 2], [2, 3], [4]]
    sig = among_signature(dfa, {2, 4}, natives)
    report = enumerate_support_native(dfa, sig, natives, [2], "exact")
    # value 4 at the last position is always a member, so exactly one of the
    # first two positions may take a member value
    assert report.satisfiable
    assert report.supported == [{1, 2}, {2, 3}, {4}]
    assert report.supported_counter == {2}


def test_native_oracle_agrees_with_symbol_oracle_on_satisfiability():
    dfa = catalog("AMONG")
    natives = [[0, 1], [1]]
    sig = among_signature(dfa, {1}, natives)
    for mode in ("atmost", "atleast", "exact"):
        native_report = enumerate_support_native(dfa, sig, natives, [2], mode)
        store = project_store(dfa, sig, natives, [2])
        symbol_report = enumerate_support(dfa, store, mode)
        assert native_report.satisfiable == symbol_report.satisfiable
        for i in range(2):
            images = {sig.symbol_of(i, v) for v in native_report.supported[i]}
            assert images == symbol_report.supported[i]


def test_native_oracle_cap():
    dfa = catalog("AMONG")
    natives = [[0, 1]] * 4
    sig = among_signature(dfa, {0}, natives)
    with pytest.raises(CapExceeded):
        enumerate_support_native(dfa, sig, natives, [1], "exact", cap=15)
    # a repeated native value is one value: it adds no solution and does not count toward the cap
    report = enumerate_support_native(dfa, sig, natives, [1], "exact", cap=16)
    assert enumerate_support_native(dfa, sig, [[0, 0, 1]] + natives[1:], [1], "exact", cap=16) == report
