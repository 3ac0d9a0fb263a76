import dataclasses
import itertools
import re

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
    with pytest.raises(MalformedAutomaton):
        CounterDfa(1, (), 0, ((),), ((),))


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
    with pytest.raises(MalformedAutomaton, match="increment"):
        CounterDfa(1, ("a",), 0, ((0,),), ((-1,),))


def test_validate_rejects_out_of_range_target():
    with pytest.raises(MalformedAutomaton, match="target"):
        CounterDfa(1, ("a",), 0, ((3,),), ((0,),))


def test_validate_rejects_oversized_increment():
    with pytest.raises(MalformedAutomaton, match="64-bit"):
        CounterDfa(1, ("a",), 0, ((0,),), ((U64_MAX + 1,),))


def test_validate_rejects_bad_start():
    with pytest.raises(MalformedAutomaton, match="start"):
        CounterDfa(1, ("a",), 5, ((0,),), ((0,),))


#: One change to catalog B per rule of ``validate``, and the message it raises.
BROKEN_B = {
    "no-state": ({"num_states": 0}, "at least one state"),
    "no-symbol": ({"alphabet": ()}, "alphabet must be nonempty"),
    "names-short": ({"state_names": ("eps",)}, "one entry per state"),
    "empty-symbol": ({"alphabet": ("1", "")}, "alphabet names must be nonempty strings"),
    "repeated-symbol": ({"alphabet": ("1", "1")}, "alphabet names must be distinct"),
    "repeated-name": ({"state_names": ("q", "q")}, "state names must be distinct"),
    "start": ({"start": 2}, "start state 2 out of range"),
    "rows": ({"next_state": ((1, 1),)}, "one row per state"),
    "row-short": ({"increment": ((0,), (0, 1))}, r"state 0: transition row must cover the whole alphabet"),
    "target": ({"next_state": ((1, 2), (0, 1))}, r"transition \(0, '2'\): target 2 out of range"),
    "bool-increment": ({"increment": ((0, True), (0, 1))}, "increment must be a nonnegative integer"),
    "negative-increment": ({"increment": ((0, -1), (0, 1))}, "increment must be a nonnegative integer"),
    "past-u64": ({"increment": ((0, U64_MAX + 1), (0, 1))}, "increment exceeds 64-bit range"),
}


@pytest.mark.parametrize(("change", "message"), BROKEN_B.values(), ids=BROKEN_B.keys())
def test_every_validate_rule_fires_when_an_automaton_is_built(change, message):
    # Construction runs validate, whether by the constructor or by replace.
    b = catalog("B")
    fields = {name: getattr(b, name) for name in ("num_states", "alphabet", "start", "next_state", "increment",
                                                  "state_names")}
    with pytest.raises(MalformedAutomaton, match=message):
        CounterDfa(**{**fields, **change})
    with pytest.raises(MalformedAutomaton, match=message):
        dataclasses.replace(b, **change)


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


def test_json_names_a_duplicate_that_follows_a_null_target():
    # The entry count leaves no cell empty only if no duplicate goes unseen.
    doc = automaton_to_json(catalog("B"))
    doc["transitions"][0]["to"] = None
    doc["transitions"][1] = dict(doc["transitions"][0], to=1)
    with pytest.raises(MalformedAutomaton, match=r"^duplicate transition for state 0, symbol '1'$"):
        automaton_from_json(doc)


def test_json_rejects_unknown_symbol():
    doc = automaton_to_json(catalog("B"))
    doc["transitions"][0]["symbol"] = "zzz"
    with pytest.raises(MalformedAutomaton, match="not in alphabet"):
        automaton_from_json(doc)


def test_default_names_are_shared_per_state_count():
    # Automata built without names share one tuple per state count; explicit
    # ones are kept, and equality and JSON are unchanged.
    def build(**extra):
        return CounterDfa(num_states=3, alphabet=("a",), start=0, next_state=((1,), (2,), (0,)),
                          increment=((0,), (1,), (0,)), **extra)

    first, second = build(), build()
    assert first.state_names is second.state_names
    assert first.state_names == ("q0", "q1", "q2")
    assert build(state_names=("x", "y", "z")).state_names == ("x", "y", "z")
    assert build(state_names=["q0", "q1", "q2"]) == first
    assert automaton_from_json(automaton_to_json(first)) == first
    assert CounterDfa(num_states=2, alphabet=("a",), start=0, next_state=((0,), (1,)),
                      increment=((0,), (0,))).state_names == ("q0", "q1")


def test_json_accepting_round_trip():
    # Every state of a counter automaton accepts: a list naming every state,
    # in any order and with repeats, loads as a document without the key,
    # and the writer never emits it.
    for name in CATALOG_NAMES:
        doc = automaton_to_json(catalog(name))
        assert "accepting" not in doc
        states = list(range(doc["states"]))
        assert automaton_from_json({**doc, "accepting": states[::-1] + states[:1]}) == automaton_from_json(doc)


@pytest.mark.parametrize(("accepting", "left_out"), [([0], "[1]"), ([], "[0, 1]")], ids=["one", "none"])
def test_json_accepting_that_leaves_a_state_out_is_malformed(accepting, left_out):
    doc = {**automaton_to_json(catalog("B")), "accepting": accepting}
    with pytest.raises(MalformedAutomaton, match=rf"^'accepting' leaves out states {re.escape(left_out)}, .*lift_accepting$"):
        automaton_from_json(doc)


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
    lifted = lift_accepting(catalog("AAB"), range(3), penalty=5)
    dollar = lifted.symbol_id("$")
    assert all(lifted.increment[q][dollar] == 0 for q in range(3))
    assert run(lifted, "aab$").counter == 1


def test_lift_single_non_accepting_state_pays_penalty():
    lifted = lift_accepting(catalog("AAB"), [0, 2], penalty=7)
    dollar = lifted.symbol_id("$")
    paying = [q for q in range(lifted.num_states) if lifted.increment[q][dollar]]
    assert paying == [1] and lifted.increment[1][dollar] == 7
    assert run(lifted, "a$").counter == 7  # "a" ends in the non-accepting state


def test_lift_end_state_loops_for_free():
    lifted = lift_accepting(catalog("B"), [0, 1], penalty=3)
    q_end = lifted.num_states - 1
    assert all(t == q_end for t in lifted.next_state[q_end])
    assert all(i == 0 for i in lifted.increment[q_end])


@given(cdfas(), st.data())
def test_lift_preserves_counts_and_charges_rejects(dfa, data):
    flags = tuple(data.draw(st.booleans()) for _ in range(dfa.num_states))
    lifted = lift_accepting(dfa, [q for q, accepts in enumerate(flags) if accepts], penalty=100)
    word = data.draw(st.lists(st.integers(0, dfa.num_symbols - 1), max_size=5))
    plain = run(dfa, word)
    ended = run(lifted, word + [lifted.symbol_id("$")])
    expected = plain.counter if flags[plain.end_state] else plain.counter + 100
    assert ended.counter == expected


@pytest.mark.parametrize("penalty", [True, 1.5, 0, 2**64], ids=["bool", "float", "zero", "past-u64"])
@pytest.mark.parametrize("accepting", [(0, 1), (0,)], ids=["all-accepting", "one-rejecting"])
def test_lift_rejects_a_penalty_that_is_no_increment(penalty, accepting):
    # Named as the penalty, whether or not a state pays it.
    with pytest.raises(ValueError, match=r"^penalty must be an integer in 1\.\.18446744073709551615; got ") as raised:
        lift_accepting(catalog("B"), accepting, penalty)
    assert type(raised.value) is ValueError


def test_lift_accepts_the_largest_increment_as_penalty():
    lifted = lift_accepting(catalog("B"), [0], U64_MAX)
    assert lifted.increment[1][lifted.symbol_id("$")] == U64_MAX


@pytest.mark.parametrize("accepting", [[2], [-1], [True], ["0"]], ids=["past-the-end", "negative", "bool", "string"])
def test_lift_rejects_an_accepting_state_that_is_no_state_id(accepting):
    with pytest.raises(ValueError, match=r"^accepting states must be state ids in 0\.\.1$"):
        lift_accepting(catalog("B"), accepting, 1)


def test_lift_rejects_bad_penalty_and_dollar_clash():
    with pytest.raises(ValueError):
        lift_accepting(catalog("B"), [0, 1], penalty=0)
    with pytest.raises(MalformedAutomaton):
        lift_accepting(lift_accepting(catalog("B"), [0, 1], 1), range(3), 1)
    # The end state's name clashes as its symbol does.
    with pytest.raises(MalformedAutomaton, match="state names must be distinct"):
        lift_accepting(dataclasses.replace(catalog("B"), state_names=("qend", "q")), [0, 1], 1)
