import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kernels
from regcount import (
    COUNTER_VAR,
    CounterDfa,
    DomainStore,
    MalformedInstance,
    RemoveResult,
    SignatureMap,
    catalog,
    enumerate_support,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
)
from regcount.automaton import automaton_to_json
from regcount.domains import project_store, symbol_ids


def make_store(domains=((0, 1), (1,), (0, 1, 2)), counter=(0, 1, 2), k=3):
    return DomainStore(k, domains, counter)


# -- removal semantics --------------------------------------------------------


def test_remove_absent_value_is_unchanged():
    store = make_store()
    assert store.remove_symbol(1, 0) is RemoveResult.UNCHANGED
    assert store.removal_log == []


def test_remove_middle_value():
    store = DomainStore(3, [(0, 1, 2)], (0,))
    assert store.remove_symbol(0, 1) is RemoveResult.CHANGED
    assert store.symbols(0) == [0, 2]
    assert store.removal_log == [(0, 1)]


def test_remove_last_value_empties():
    store = DomainStore(2, [(1,)], (0,))
    assert store.remove_symbol(0, 1) is RemoveResult.EMPTIED
    assert store.symbols(0) == []


def test_counter_remove_mirrors_symbol_remove():
    store = make_store(counter=(1, 3))
    assert store.remove_counter(2) is RemoveResult.UNCHANGED
    assert store.remove_counter(1) is RemoveResult.CHANGED
    assert store.remove_counter(3) is RemoveResult.EMPTIED
    assert store.removal_log == [(COUNTER_VAR, 1), (COUNTER_VAR, 3)]


# -- counter bounds -----------------------------------------------------------


def test_counter_min_max():
    # The counter domain is kept sorted and free of duplicates, so its bounds
    # are its first and last entries.
    for values, bounds in (((0, 1, 2), (0, 2)), ((3, 1, 3), (1, 3)), ((5,), (5, 5))):
        store = make_store(counter=values)
        assert (store.counter[0], store.counter[-1]) == bounds


def test_counter_has_between_respects_holes():
    store = make_store(counter=(1, 3))
    assert store.counter_has_between(0, 1)
    assert not store.counter_has_between(2, 2)
    assert store.counter_has_between(2, 3)
    assert not store.counter_has_between(4, 9)


# -- replay and copies --------------------------------------------------------


@given(st.data())
def test_replaying_the_log_reproduces_the_store(data):
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 4))
    domains = [data.draw(st.sets(st.integers(0, k - 1), min_size=1)) for _ in range(n)]
    counter = data.draw(st.sets(st.integers(0, 6), min_size=1))
    store = DomainStore(k, domains, counter)
    snapshot = store.copy()
    for _ in range(data.draw(st.integers(0, 10))):
        if data.draw(st.booleans()):
            store.remove_symbol(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1)))
        else:
            store.remove_counter(data.draw(st.integers(0, 6)))
    for var, value in store.removal_log:
        if var == COUNTER_VAR:
            snapshot.remove_counter(value)
        else:
            snapshot.remove_symbol(var, value)
    assert snapshot == store


def test_copy_is_independent():
    store = make_store()
    dup = store.copy()
    dup.remove_symbol(0, 0)
    dup.remove_counter(0)
    assert store.symbols(0) == [0, 1] and store.counter == [0, 1, 2]
    assert dup != store


def test_assign_goes_through_the_log():
    store = make_store()
    store.assign_symbol(2, 1)
    store.assign_counter(2)
    assert store.symbols(2) == [1] and store.counter == [2]
    assert set(store.removal_log) == {(2, 0), (2, 2), (COUNTER_VAR, 0), (COUNTER_VAR, 1)}
    assert store.symbols(0) == [0, 1]  # untouched


def test_assign_symbol_logs_what_the_per_symbol_removals_log():
    # Every mask of a 3-symbol alphabet, and every symbol up to one outside
    # it, so some are not in the domain.
    for mask in range(8):
        for sym in range(4):
            store = DomainStore(3, [(0, 2), ()], (0,))
            store.domains[1] = mask
            store.removal_log.append((0, 1))
            reference = store.copy()
            store.assign_symbol(1, sym)
            for other in reference.symbols(1):
                if other != sym:
                    reference.remove_symbol(1, other)
            case = (mask, sym)
            assert store.domains == reference.domains, case
            assert store.removal_log == reference.removal_log, case


def test_stores_reject_a_symbol_outside_the_alphabet():
    # B has two symbols, so symbol 5 is outside it, whichever way the store is built.
    dfa = catalog("B")
    with pytest.raises(ValueError):
        DomainStore(2, [[0, 5]], [0])
    sig = SignatureMap([{1: 0, 2: 5}])
    with pytest.raises(ValueError):
        project_store(dfa, sig, [[1, 2]], [0])
    assert project_store(dfa, sig, [[1]], [0]) == DomainStore(2, [[0]], [0])
    assert DomainStore(2, [[0, 1], []], [0]).domains == [0b11, 0]


@pytest.mark.parametrize("name", ["python", "c"])
@pytest.mark.parametrize("n", [2, 12])
def test_a_store_of_numpy_integers_holds_ints_and_propagates_as_one_of_ints(name, n):
    # rng.integers draws numpy integers; the store reads each mask and
    # N-value as an int, so both kernels and the oracle see what an int
    # store gives them.
    rst = catalog("RST")
    rng = np.random.default_rng(40011)
    symbols = rng.integers(0, rst.num_symbols, size=(n, 2))
    # N in {0, n/2 - 1}: every mode but atleast removes a symbol.
    given = DomainStore(rst.num_symbols, list(symbols), np.array([0, n // 2 - 1]))
    plain = DomainStore(rst.num_symbols, symbols.tolist(), [0, n // 2 - 1])
    assert {type(v) for v in given.domains + given.counter} == {int}
    assert given == plain
    with kernels.forced(name):
        assert kernels.outcomes(rst, given) == kernels.outcomes(rst, plain)
    for mode in ("atmost", "atleast", "exact"):
        assert enumerate_support(rst, given, mode) == enumerate_support(rst, plain, mode)
    # A signature whose symbols are numpy integers projects to int masks too.
    signature = SignatureMap([dict(enumerate(row)) for row in symbols])
    assert project_store(rst, signature, [[0, 1]] * n, given.counter) == plain


@pytest.mark.parametrize("sym", [63, 64])
def test_a_numpy_symbol_id_past_62_keeps_its_bit(sym):
    # A numpy mask would turn negative at bit 63 and drop the symbol from 64 on.
    assert DomainStore(70, [[np.int64(sym), np.int64(3)]], [0]).domains == [1 << sym | 1 << 3]
    wide = CounterDfa(1, tuple(f"s{s}" for s in range(70)), 0, [[0] * 70], [[0] * 70])
    signature = SignatureMap([{1: np.int64(sym), 2: np.int64(3)}])
    assert project_store(wide, signature, [[1, 2]], [0]).domains == [1 << sym | 1 << 3]


def test_a_float_counter_value_is_refused_where_the_store_is_built():
    with pytest.raises(TypeError):
        DomainStore(3, [[0]] * 12, [1.5, 3.0])


# -- instance files -----------------------------------------------------------


def witness_doc():
    return {
        "automaton": automaton_to_json(catalog("B")),
        "vars": [["2"], ["1", "2"], ["1"], ["1", "2"], ["1", "2"]],
        "counter": [1],
        "mode": "exact",
    }


def test_instance_round_trip():
    inst = instance_from_json(witness_doc())
    assert inst.n == 5 and inst.mode == "exact" and not inst.is_composite
    again = instance_from_json(instance_to_json(inst))
    assert again.var_domains == inst.var_domains
    assert again.counter_values == inst.counter_values


def test_instance_store_projection():
    inst = instance_from_json(witness_doc())
    store = inst.make_store()
    two = inst.dfa.symbol_id("2")
    assert store.symbols(0) == [two]
    assert store.counter == [1]


def test_instance_file_round_trip(tmp_path):
    inst = instance_from_json(witness_doc())
    path = tmp_path / "instance.json"
    save_instance(inst, str(path))
    again = load_instance(str(path))
    assert again.var_domains == inst.var_domains


def test_instance_automaton_by_path(tmp_path):
    auto_path = tmp_path / "b.json"
    auto_path.write_text(json.dumps(automaton_to_json(catalog("B"))))
    doc = witness_doc()
    doc["automaton"] = "b.json"
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(doc))
    inst = load_instance(str(inst_path))
    assert inst.dfa.num_states == 2


def test_instance_with_membership_signature():
    doc = {
        "automaton": automaton_to_json(catalog("AMONG")),
        "vars": [[1, 2, 3], [2]],
        "counter": [1],
        "mode": "atmost",
        "signature": {"set": [2, 5]},
    }
    inst = instance_from_json(doc)
    assert inst.is_composite
    store = inst.make_store()
    sym_in, sym_notin = inst.dfa.symbol_id("in"), inst.dfa.symbol_id("notin")
    assert store.symbols(0) == sorted([sym_in, sym_notin])
    assert store.symbols(1) == [sym_in]


def test_instance_with_explicit_signature_maps():
    doc = {
        "automaton": automaton_to_json(catalog("AMONG")),
        "vars": [[4, 7]],
        "counter": [0, 1],
        "mode": "atleast",
        "signature": [{"4": "in", "7": "notin"}],
    }
    inst = instance_from_json(doc)
    assert inst.signature.symbol_of(0, 4) == inst.dfa.symbol_id("in")
    again = instance_from_json(instance_to_json(inst))
    assert again.signature.maps == inst.signature.maps


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("mode"),
        lambda d: d.update(mode="between"),
        lambda d: d.update(counter=[]),
        lambda d: d.update(counter=[-1]),
        lambda d: d.update(vars=[[]]),
        lambda d: d.update(vars=[["zzz"]]),
        # Two keys naming one native value: whichever came last would win.
        lambda d: d.update(automaton=automaton_to_json(catalog("AMONG")), vars=[[1]], counter=[0, 1], mode="atmost",
                           signature=[{"1": "in", "01": "notin"}]),
        lambda d: d.update(automaton=automaton_to_json(catalog("AMONG")), vars=[[0]], counter=[0, 1], mode="atmost",
                           signature=[{"0": "in", "-0": "notin"}]),
    ],
)
def test_malformed_instances_are_rejected(mutate):
    doc = witness_doc()
    mutate(doc)
    with pytest.raises(MalformedInstance):
        instance_from_json(doc)


def test_signature_must_cover_the_domain():
    doc = {
        "automaton": automaton_to_json(catalog("AMONG")),
        "vars": [[4, 7]],
        "counter": [0],
        "mode": "atmost",
        "signature": [{"4": "in"}],
    }
    with pytest.raises(MalformedInstance, match="cover"):
        instance_from_json(doc)


def test_symbol_ids_keep_order_and_reject_an_unknown_name():
    b = catalog("B")
    assert symbol_ids(b, ["2", 1, "2"]) == [1, 0, 1]
    with pytest.raises(MalformedInstance, match=r"^unknown symbol 'z'; alphabet is \['1', '2'\]$"):
        symbol_ids(b, ["1", "z"])
