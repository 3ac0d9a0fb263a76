import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regcount import (
    CATALOG_NAMES,
    U64_MAX,
    CounterDfa,
    MalformedAutomaton,
    UnknownAutomaton,
    automaton_from_json,
    automaton_to_json,
    build_subset_sum_dfa,
    catalog,
    lift_accepting,
    run,
    validate,
)
from strategies import cdfas, dfa_word_pairs


# -- catalog shapes ---------------------------------------------------------


def test_catalog_aab_shape():
    aab = catalog("AAB")
    assert aab.num_states == 3
    assert aab.alphabet == ("a", "b")
    nonzero = [(q, s) for q in range(3) for s in range(2) if aab.increment[q][s]]
    assert nonzero == [(aab.state_names.index("aa"), aab.symbol_id("b"))]
    assert aab.increment[2][1] == 1


def test_catalog_b_shape():
    b = catalog("B")
    assert b.num_states == 2
    nonzero = [(q, s) for q in range(2) for s in range(2) if b.increment[q][s]]
    q, two = b.state_names.index("q"), b.symbol_id("2")
    assert nonzero == [(q, two)]
    assert b.next_state[q][two] == q


def test_catalog_rst_shape():
    rst = catalog("RST")
    assert rst.num_states == 6
    assert rst.alphabet == ("r", "s", "t")
    byname = {(rst.state_names[q], rst.alphabet[s]): rst.increment[q][s] for q in range(6) for s in range(3)}
    carried = {k: v for k, v in byname.items() if v}
    assert carried == {("eps", "r"): 1, ("rrt", "r"): 2, ("rrs", "r"): 2}


def test_catalog_among_shape():
    among = catalog("AMONG")
    assert among.num_states == 1
    assert set(among.alphabet) == {"in", "notin"}
    assert among.increment[0][among.symbol_id("in")] == 1
    assert among.increment[0][among.symbol_id("notin")] == 0


def test_catalog_unknown_name():
    with pytest.raises(UnknownAutomaton):
        catalog("NOPE")


def test_catalog_all_validate():
    for name in CATALOG_NAMES:
        validate(catalog(name))


# -- run --------------------------------------------------------------------


def test_run_counts_the_word_aab():
    aab = catalog("AAB")
    result = run(aab, "aab")
    assert result.counter == 1
    assert result.end_state == aab.state_names.index("eps")


def test_run_empty_word_is_start_and_zero():
    for name in CATALOG_NAMES:
        dfa = catalog(name)
        assert run(dfa, []) == run(dfa, "") and run(dfa, []).end_state == dfa.start
        assert run(dfa, []).counter == 0


def test_run_counts_two_occurrences():
    assert run(catalog("AAB"), "aabaab").counter == 2


def test_run_is_deterministic():
    aab = catalog("AAB")
    assert run(aab, "ababab") == run(aab, "ababab")


@given(dfa_word_pairs(), st.data())
def test_run_additivity_over_splits(pair, data):
    dfa, word = pair
    cut = data.draw(st.integers(0, len(word)))
    head, tail = word[:cut], word[cut:]
    first = run(dfa, head)
    resumed = run(dataclasses.replace(dfa, start=first.end_state), tail)
    whole = run(dfa, word)
    assert whole.counter == first.counter + resumed.counter
    assert whole.end_state == resumed.end_state


def test_run_counter_is_an_exact_integer():
    dfa = CounterDfa(1, ("a",), 0, ((0,),), ((U64_MAX,),))
    validate(dfa)
    assert run(dfa, "a").counter == U64_MAX
    assert run(dfa, "aa").counter == 2 * U64_MAX


# -- validate ---------------------------------------------------------------


def test_validate_rejects_empty_alphabet():
    dfa = CounterDfa(1, (), 0, ((),), ((),))
    with pytest.raises(MalformedAutomaton):
        validate(dfa)


def test_validate_rejects_missing_cell():
    doc = automaton_to_json(catalog("AAB"))
    doc["transitions"] = doc["transitions"][:-1]
    with pytest.raises(MalformedAutomaton, match="missing transition"):
        automaton_from_json(doc)


def test_from_json_counts_transitions_before_building_tables():
    # The message shows the count was checked before any table was built.
    doc = automaton_to_json(catalog("B"))
    doc["states"] = 10**6
    with pytest.raises(MalformedAutomaton, match="need 2000000 entries, got 4"):
        automaton_from_json(doc)


def test_validate_rejects_negative_increment():
    dfa = CounterDfa(1, ("a",), 0, ((0,),), ((-1,),))
    with pytest.raises(MalformedAutomaton, match="increment"):
        validate(dfa)


def test_validate_rejects_out_of_range_target():
    dfa = CounterDfa(1, ("a",), 0, ((3,),), ((0,),))
    with pytest.raises(MalformedAutomaton, match="target"):
        validate(dfa)


def test_validate_rejects_oversized_increment():
    dfa = CounterDfa(1, ("a",), 0, ((0,),), ((U64_MAX + 1,),))
    with pytest.raises(MalformedAutomaton, match="64-bit"):
        validate(dfa)


def test_validate_rejects_bad_start():
    dfa = CounterDfa(1, ("a",), 5, ((0,),), ((0,),))
    with pytest.raises(MalformedAutomaton, match="start"):
        validate(dfa)


@pytest.mark.parametrize(("names", "message"), [
    ([1, {"x": [2]}], "state names must be nonempty strings"),
    (["eps", ""], "state names must be nonempty strings"),
    (["q", "q"], "state names must be distinct"),
], ids=["not-strings", "empty", "repeated"])
def test_state_names_are_distinct_nonempty_strings(names, message):
    doc = automaton_to_json(catalog("B"))
    doc["names"] = names
    with pytest.raises(MalformedAutomaton, match=message):
        automaton_from_json(doc)
    with pytest.raises(MalformedAutomaton, match=message):
        validate(dataclasses.replace(catalog("B"), state_names=tuple(names)))


# -- JSON interchange -------------------------------------------------------


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_json_round_trip(name):
    dfa = catalog(name)
    assert automaton_from_json(automaton_to_json(dfa)) == dfa


def test_json_rejects_duplicate_transition():
    doc = automaton_to_json(catalog("B"))
    doc["transitions"].append(dict(doc["transitions"][0]))
    with pytest.raises(MalformedAutomaton, match="duplicate"):
        automaton_from_json(doc)


def test_json_rejects_unknown_symbol():
    doc = automaton_to_json(catalog("B"))
    doc["transitions"][0]["symbol"] = "zzz"
    with pytest.raises(MalformedAutomaton, match="not in alphabet"):
        automaton_from_json(doc)


def test_default_names_and_flags_are_shared_per_state_count():
    # Automata built without names or flags share one tuple of each per state
    # count; explicit ones are kept, and equality and JSON are unchanged.
    def build(**extra):
        return CounterDfa(num_states=3, alphabet=("a",), start=0, next_state=((1,), (2,), (0,)),
                          increment=((0,), (1,), (0,)), **extra)

    first, second = build(), build()
    assert first.state_names is second.state_names and first.accepting is second.accepting
    assert first.state_names == ("q0", "q1", "q2") and first.accepting == (True, True, True)
    named = build(state_names=("x", "y", "z"), accepting=(True, False, True))
    assert (named.state_names, named.accepting) == (("x", "y", "z"), (True, False, True))
    assert build(state_names=["q0", "q1", "q2"], accepting=[1, 1, 1]) == first
    assert automaton_from_json(automaton_to_json(first)) == first
    assert CounterDfa(num_states=2, alphabet=("a",), start=0, next_state=((0,), (1,)),
                      increment=((0,), (0,))).state_names == ("q0", "q1")


def test_json_accepting_round_trip():
    dfa = dataclasses.replace(catalog("AAB"), accepting=(True, False, True))
    again = automaton_from_json(automaton_to_json(dfa))
    assert again.accepting == (True, False, True)


# -- subset-sum construction ------------------------------------------------


def test_subset_sum_dfa_shape():
    dfa = build_subset_sum_dfa([3, 5])
    assert dfa.num_states == 1
    assert len(dfa.alphabet) == 3
    assert sorted(dfa.increment[0]) == [0, 3, 5]


def test_subset_sum_smallest_instance():
    dfa = build_subset_sum_dfa([1])
    assert dfa.num_states == 1 and len(dfa.alphabet) == 2


def test_subset_sum_run_sums_chosen_values():
    dfa = build_subset_sum_dfa([2, 3, 7])
    assert run(dfa, ["2", "0", "7"]).counter == 9


def test_subset_sum_duplicate_values_share_symbols():
    dfa = build_subset_sum_dfa([3, 3, 5])
    assert sorted(dfa.alphabet) == ["0", "3", "5"]


def test_subset_sum_rejects_bad_values():
    with pytest.raises(ValueError):
        build_subset_sum_dfa([])
    with pytest.raises(ValueError):
        build_subset_sum_dfa([4, 0])


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True), st.data())
def test_subset_sum_counter_is_order_independent(values, data):
    dfa = build_subset_sum_dfa(values)
    picks = data.draw(st.lists(st.sampled_from([str(v) for v in values] + ["0"]), max_size=6))
    total = sum(int(p) for p in picks)
    for perm in itertools.islice(itertools.permutations(picks), 12):
        assert run(dfa, list(perm)).counter == total


# -- accepting-state lifting ------------------------------------------------


def test_lift_all_accepting_adds_free_end_symbol():
    lifted = lift_accepting(catalog("AAB"), penalty=5)
    dollar = lifted.symbol_id("$")
    assert all(lifted.increment[q][dollar] == 0 for q in range(3))
    assert all(lifted.accepting)
    assert run(lifted, "aab$").counter == 1


def test_lift_single_non_accepting_state_pays_penalty():
    dfa = dataclasses.replace(catalog("AAB"), accepting=(True, False, True))
    lifted = lift_accepting(dfa, penalty=7)
    dollar = lifted.symbol_id("$")
    paying = [q for q in range(lifted.num_states) if lifted.increment[q][dollar]]
    assert paying == [1] and lifted.increment[1][dollar] == 7
    assert run(lifted, "a$").counter == 7  # "a" ends in the non-accepting state


def test_lift_end_state_loops_for_free():
    lifted = lift_accepting(catalog("B"), penalty=3)
    q_end = lifted.num_states - 1
    assert all(t == q_end for t in lifted.next_state[q_end])
    assert all(i == 0 for i in lifted.increment[q_end])


@given(cdfas(), st.data())
def test_lift_preserves_counts_and_charges_rejects(dfa, data):
    flags = tuple(data.draw(st.booleans()) for _ in range(dfa.num_states))
    flagged = dataclasses.replace(dfa, accepting=flags)
    lifted = lift_accepting(flagged, penalty=100)
    word = data.draw(st.lists(st.integers(0, dfa.num_symbols - 1), max_size=5))
    plain = run(dfa, word)
    ended = run(lifted, word + [lifted.symbol_id("$")])
    expected = plain.counter if flags[plain.end_state] else plain.counter + 100
    assert ended.counter == expected


def test_lift_rejects_bad_penalty_and_dollar_clash():
    with pytest.raises(ValueError):
        lift_accepting(catalog("B"), penalty=0)
    with pytest.raises(MalformedAutomaton):
        lift_accepting(lift_accepting(catalog("B"), 1), 1)
    # The end state's name clashes as its symbol does.
    with pytest.raises(MalformedAutomaton, match="state names must be distinct"):
        lift_accepting(dataclasses.replace(catalog("B"), state_names=("qend", "q")), 1)
