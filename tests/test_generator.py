import dataclasses
import math
import pickle
from concurrent.futures import Future

import pytest

from regcount import (
    FAILED,
    FIXPOINT,
    FuzzReport,
    FuzzViolation,
    GenConfig,
    Instance,
    PropagationOutcome,
    SignatureMap,
    among_signature,
    catalog,
    check_among_instance,
    check_instance,
    generate_corpus,
    instance_to_json,
    random_among_instance,
    random_cdfa,
    random_instance,
    rng_for,
    U64_MAX,
    propagate_composite,
    propagate_exact,
    run_fuzz,
    validate,
)
from regcount.oracle import DEFAULT_CAP, CapExceeded, enumerate_all_modes, enumerate_all_modes_native
from strategies import B, ONE, TWO


def test_config_rejects_bad_ranges():
    with pytest.raises(ValueError):
        GenConfig(increment_probability=1.5)
    with pytest.raises(ValueError):
        GenConfig(min_states=3, max_states=2)
    with pytest.raises(ValueError):
        GenConfig(min_n=5, max_n=1)
    with pytest.raises(ValueError):
        GenConfig(counter_shapes=("rhombus",))


def test_config_rejects_more_symbols_than_letters():
    # Symbols are named a..z, so 26 is the widest alphabet random_cdfa builds.
    with pytest.raises(ValueError, match="max_symbols must be at most 26"):
        GenConfig(min_symbols=27, max_symbols=27)
    assert random_cdfa(GenConfig(min_symbols=26, max_symbols=26), rng_for(0)).alphabet[-1] == "z"


@pytest.mark.parametrize("value", [True, 1.0, -1, U64_MAX + 1], ids=["bool", "float", "negative", "past-u64"])
def test_config_rejects_an_increment_value_that_is_no_increment(value):
    # Rejected when configured, not at the first draw that carries an increment.
    with pytest.raises(ValueError, match=r"^increment_value must be an integer in 0\.\.18446744073709551615$") as raised:
        GenConfig(increment_value=value)
    assert type(raised.value) is ValueError
    for bound in (0, U64_MAX):
        cfg = GenConfig(increment_probability=1.0, increment_value=bound)
        assert set(random_cdfa(cfg, rng_for(0)).increment[0]) == {bound}


def test_counter_shape_subset_is_honored():
    cfg = GenConfig(counter_shapes=("single",), seed=3)
    rng = rng_for(3)
    dfa = random_cdfa(cfg, rng)
    assert all(len(random_instance(cfg, dfa, rng).counter_values) == 1 for _ in range(50))


def test_same_seed_same_automaton_and_instance():
    cfg = GenConfig(seed=123)
    first = list(generate_corpus(cfg, 3))
    second = list(generate_corpus(cfg, 3))
    for (_, dfa_a, inst_a), (_, dfa_b, inst_b) in zip(first, second):
        assert dfa_a == dfa_b
        assert instance_to_json(inst_a) == instance_to_json(inst_b)


def test_distinct_indices_differ():
    cfg = GenConfig(seed=123)
    items = list(generate_corpus(cfg, 20))
    assert len({item[1] for item in items}) > 1


def test_single_state_forces_self_loops():
    cfg = GenConfig(min_states=1, max_states=1)
    dfa = random_cdfa(cfg, rng_for(5))
    assert dfa.num_states == 1
    assert all(t == 0 for t in dfa.next_state[0])


def test_generated_automata_validate_and_instances_fit_cap():
    cfg = GenConfig(seed=9)
    for _, dfa, inst in generate_corpus(cfg, 300):
        validate(dfa)
        assert all(inst.var_domains[i] for i in range(inst.n))
        assert inst.counter_values
        assert math.prod(len(d) for d in inst.var_domains) <= DEFAULT_CAP


def test_increment_frequency_matches_probability():
    cfg = GenConfig(min_states=5, max_states=5, min_symbols=2, max_symbols=2, seed=77)
    rng = rng_for(77)
    carrying = total = 0
    for _ in range(10_000):
        dfa = random_cdfa(cfg, rng)
        carrying += sum(1 for row in dfa.increment for inc in row if inc)
        total += dfa.num_states * dfa.num_symbols
    assert 0.18 <= carrying / total <= 0.22


def classify_counter_shape(values):
    if len(values) == 1:
        return "single"
    if len(values) == 3:
        return "interval3"
    return "interval2" if values[1] - values[0] == 1 else "pair"


def test_counter_domain_shapes_are_uniform():
    cfg = GenConfig(seed=31)
    rng = rng_for(31)
    dfa = random_cdfa(cfg, rng)
    counts = {"single": 0, "pair": 0, "interval2": 0, "interval3": 0}
    samples = 10_000
    for _ in range(samples):
        inst = random_instance(cfg, dfa, rng)
        counts[classify_counter_shape(inst.counter_values)] += 1
    for shape, count in counts.items():
        assert 0.22 <= count / samples <= 0.28, (shape, count)


def test_among_instances_are_well_formed():
    cfg = GenConfig(max_n=5, seed=13)
    rng = rng_for(13)
    for _ in range(100):
        inst = random_among_instance(cfg, rng, universe_size=4)
        assert inst.is_composite
        assert all(inst.native_domains[i] for i in range(inst.n))
        store = inst.make_store()
        assert all(store.domains[i] for i in range(store.n))


def test_among_instance_uses_the_membership_automaton():
    cfg = GenConfig(seed=13)
    inst = random_among_instance(cfg, rng_for(13))
    assert inst.dfa == catalog("AMONG")


def test_run_fuzz_small_clean():
    report = run_fuzz(GenConfig(max_n=5, seed=424242), 150)
    assert report.ok and report.checked == 150


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(increment_value=3, increment_probability=0.4, max_n=5, seed=11),
        GenConfig(min_n=0, max_n=4, seed=12),
        GenConfig(min_symbols=1, max_symbols=2, max_n=5, seed=13),
        GenConfig(counter_shapes=("holed-pair",), max_n=5, seed=14),
    ],
    ids=["non-unit-increments", "empty-sequences", "tiny-alphabets", "holed-counter-pairs"],
)
def test_run_fuzz_corner_configs(cfg):
    report = run_fuzz(cfg, 150)
    assert report.ok and report.checked == 150


def test_run_fuzz_catches_planted_bug(monkeypatch):
    # cripple the atmost propagator and make sure the harness notices
    import regcount.generator as generator_module

    def broken_atmost(dfa, store):
        out = original(dfa, store)
        if not out.failed and store.n and store.symbols(0):
            store.remove_symbol(0, store.symbols(0)[0])
            out.removals = store.removal_log[-1:]
        return out

    original = generator_module.propagate_atmost
    monkeypatch.setattr(generator_module, "propagate_atmost", broken_atmost)
    report = run_fuzz(GenConfig(max_n=4, seed=5), 40, modes=("atmost",))
    assert not report.ok
    assert any(v.kind in ("unsound", "not-idempotent", "dc-gap") for v in report.violations)


def test_run_fuzz_checks_each_index_plain_instance_then_an_among_instance(monkeypatch):
    # The among instance comes after the plain one in the index's stream, so
    # the plain instances are those of generate_corpus.
    import regcount.generator as generator_module

    plain, among = [], []
    monkeypatch.setattr(generator_module, "check_instance",
                        lambda dfa, inst, modes, cap, index: plain.append((index, inst, modes)) or [])
    monkeypatch.setattr(generator_module, "check_among_instance",
                        lambda inst, modes, cap, index: among.append((index, inst, modes)) or [])
    cfg = GenConfig(max_n=9, seed=31)
    assert run_fuzz(cfg, 5, modes=("atleast", "exact")).checked == 5
    assert plain == [(index, inst, ("atleast", "exact")) for index, _, inst in generate_corpus(cfg, 5)]
    assert [index for index, _, _ in among] == list(range(5))
    assert all(inst.is_composite and inst.dfa == catalog("AMONG") and 1 <= len(inst.native_domains) <= 6
               and modes == ("atleast", "exact") for _, inst, modes in among)


def test_run_fuzz_catches_a_failing_composite_propagator(monkeypatch):
    import regcount.generator as generator_module

    monkeypatch.setattr(generator_module, "propagate_composite", lambda *args: PropagationOutcome(FAILED, [], 1))
    report = run_fuzz(GenConfig(max_n=4, seed=5), 20, modes=("atmost",))
    assert report.violations
    assert all(v.instance.is_composite and v.kind == "failed-on-satisfiable" for v in report.violations)


def test_run_fuzz_threads_match_serial():
    cfg = GenConfig(max_n=4, seed=99)
    serial = run_fuzz(cfg, 60, threads=1)
    parallel = run_fuzz(cfg, 60, threads=2)
    assert serial.checked == parallel.checked == 60
    assert serial.ok and parallel.ok


def test_run_fuzz_lists_the_indices_past_the_cap_and_goes_on():
    cfg = GenConfig(max_n=30, seed=3)
    for threads in (1, 2):
        report = run_fuzz(cfg, 8, cap=2000, threads=threads)
        assert (report.checked, report.capped, report.violations) == (6, [1, 7], [])


def test_run_fuzz_keeps_the_violations_found_before_an_index_hits_the_cap(monkeypatch):
    import regcount.generator as generator_module

    def capped(inst, modes, cap, index):
        raise CapExceeded("over the cap")

    monkeypatch.setattr(generator_module, "check_instance", lambda dfa, inst, modes, cap, index: [index])
    monkeypatch.setattr(generator_module, "check_among_instance", capped)
    report = run_fuzz(GenConfig(seed=31), 3)
    assert (report.checked, report.capped, report.violations) == (0, [0, 1, 2], [0, 1, 2])


@pytest.mark.parametrize("increment", [U64_MAX, U64_MAX // 3], ids=["u64-max", "third-of-u64-max"])
def test_run_fuzz_counters_past_u64_max(increment):
    # Counters of two or more such increments pass U64_MAX; the propagators
    # must agree with the oracle's exact integers on them.
    report = run_fuzz(GenConfig(increment_value=increment, max_n=8, seed=5), 500)
    assert report.checked == 500
    assert report.violations == []


@pytest.mark.parametrize(
    "threads, count, cpus, pools",
    [(64, 200, 3, [3]), (64, 200, None, []), (4, 9, 8, [3]), (1000, 20000, 2, [2]), (1000, 1500, 2, [2])],
    ids=["cpu-bound", "cpu-count-unknown", "chunk-bound", "huge-thread-count", "threads-past-the-cpus"],
)
def test_run_fuzz_caps_the_worker_count(monkeypatch, threads, count, cpus, pools):
    # A fake pool records max_workers and runs each chunk inline, and the
    # chunks check nothing, so no worker process is ever started.  Each
    # worker gets one chunk; one worker runs in this process, with no pool.
    import regcount.generator as generator_module

    asked, chunks = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            chunks.append(args[1:3])
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(generator_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(generator_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(generator_module, "_fuzz_range", lambda cfg, a, b, modes, cap: FuzzReport(checked=b - a))
    report = run_fuzz(GenConfig(), count, threads=threads)
    assert report.checked == count
    assert asked == pools
    assert len(chunks) == sum(pools)


def test_run_fuzz_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_fuzz(GenConfig(), 1, modes=("sometimes",))


def test_check_among_instance_clean():
    cfg = GenConfig(max_n=4, seed=2)
    rng = rng_for(2)
    for _ in range(50):
        inst = random_among_instance(cfg, rng, universe_size=4)
        assert check_among_instance(inst) == []


# -- planted bugs: every kind each checker reports fires ---------------------------------

# <2, x, y> with N = {0}: satisfiable under every semantics, x1 = 2 is
# supported, and the decomposition removes x2 = 2.
PLAIN = Instance(dfa=B, mode="exact", var_domains=[[TWO], [ONE, TWO], [ONE, TWO]], counter_values=[0])


def failing(*args):
    return PropagationOutcome(FAILED)


def idle(*args):
    return PropagationOutcome(FIXPOINT)


def exact_dropping_x1(dfa, store):
    out = propagate_exact(dfa, store)
    return PropagationOutcome(out.status, out.removals + [(0, TWO)], out.passes)


def miscounting(enumerate_reports):
    """``enumerate_reports`` with one more exact solution counted, as a miscounting leaf would add."""
    def enumerate_and_miscount(*args):
        reports = enumerate_reports(*args)
        reports["exact"] = dataclasses.replace(reports["exact"], solution_count=reports["exact"].solution_count + 1)
        return reports
    return enumerate_and_miscount


@pytest.mark.parametrize(
    ("name", "planted", "mode", "kind"),
    [
        ("propagate_atmost", failing, "atmost", "failed-on-satisfiable"),
        ("propagate_atleast", failing, "atleast", "failed-on-satisfiable"),
        ("propagate_exact", failing, "exact", "failed-on-satisfiable"),
        ("propagate_exact", exact_dropping_x1, "exact", "unsound"),
        ("propagate_decomposed", failing, "exact", "dominance"),
        ("propagate_exact", idle, "exact", "dominance"),
        # Reported under the instance's own mode, whatever modes are checked.
        ("enumerate_all_modes", miscounting(enumerate_all_modes), "exact", "oracle-count"),
    ],
    ids=["atmost-fails", "atleast-fails", "exact-fails", "exact-unsound", "decomposition-fails",
         "exact-misses-decomposition", "oracle-miscounts"],
)
def test_check_instance_reports_each_planted_bug(monkeypatch, name, planted, mode, kind):
    import regcount.generator as generator_module

    monkeypatch.setattr(generator_module, name, planted)
    violations = check_instance(B, PLAIN, modes=(mode,), index=3)
    assert [(v.index, v.mode, v.kind) for v in violations] == [(3, mode, kind)]


# x2 = 2 is "in" at every solution; under N in {1, 2} both bounds are satisfiable.
AMONG = catalog("AMONG")
NATIVES = [[1, 2], [2], [2, 3]]
AMONG_INST = Instance(dfa=AMONG, mode="atmost", counter_values=[1, 2],
                      signature=among_signature(AMONG, {2}, NATIVES), native_domains=NATIVES)


def composite_dropping_a_kept_value(dfa, sig, natives, counter, mode):
    out = propagate_composite(dfa, sig, natives, counter, mode)
    value = out.native_domains[0].pop(0)
    out.removals.append((0, value))
    return out


def composite_idle(dfa, sig, natives, counter, mode):
    return PropagationOutcome(FIXPOINT, [], 1, [sorted(d) for d in natives], sorted(counter))


@pytest.mark.parametrize(
    ("name", "planted", "inst", "kind"),
    [
        ("propagate_composite", failing, AMONG_INST, "failed-on-satisfiable"),
        ("propagate_composite", composite_dropping_a_kept_value, AMONG_INST, "unsound"),
        # "in" twice, so c = 2 > max(N) = 0: no atmost solution.
        ("propagate_composite", composite_idle,
         Instance(dfa=AMONG, mode="atmost", counter_values=[0],
                  signature=among_signature(AMONG, {2}, [[2], [2]]), native_domains=[[2], [2]]),
         "dc-gap"),
        ("enumerate_all_modes_native", miscounting(enumerate_all_modes_native), AMONG_INST, "oracle-count"),
    ],
    ids=["fails", "drops-a-supported-value", "fixpoint-on-unsatisfiable", "oracle-miscounts"],
)
def test_check_among_instance_reports_each_planted_bug(monkeypatch, name, planted, inst, kind):
    import regcount.generator as generator_module

    assert check_among_instance(inst, modes=("atmost",)) == []
    monkeypatch.setattr(generator_module, name, planted)
    violations = check_among_instance(inst, modes=("atmost",), index=4)
    assert [(v.index, v.mode, v.kind) for v in violations] == [(4, "atmost", kind)]


# The merged-interval gap instance <2, 2, x, 2, y>, N in {1, 3}, written over
# native values 1 and 2 that map to the symbols of the same name.
B_GAP = Instance(dfa=B, mode="exact", counter_values=[1, 3],
                 signature=SignatureMap([{1: ONE, 2: TWO}] * 5), native_domains=[[2], [2], [1, 2], [2], [1, 2]])


def test_check_among_instance_allows_exact_its_gaps():
    # Exact keeps the unsupported y = 2, which its only-sound rule allows.
    out = propagate_composite(B, B_GAP.signature, B_GAP.native_domains, B_GAP.counter_values, "exact")
    assert 2 in out.native_domains[4]
    assert check_among_instance(B_GAP, modes=("exact",)) == []
    assert check_among_instance(B_GAP, modes=("decomposed",)) == []


def test_a_violation_survives_a_pickle_round_trip():
    # run_fuzz --threads sends violations back from its worker processes.
    violation = FuzzViolation(index=5, mode="exact", kind="unsound", detail="removed supported values", instance=B_GAP)
    copy = pickle.loads(pickle.dumps(violation))
    assert (copy.index, copy.mode, copy.kind, copy.detail) == (5, "exact", "unsound", "removed supported values")
    assert instance_to_json(copy.instance) == instance_to_json(B_GAP)
