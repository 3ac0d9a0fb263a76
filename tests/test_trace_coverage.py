"""The benchmark's tracer must find every function it wraps.

``perfbench/spans.py`` skips a listed name that regcount lacks, so a rename or
removal in regcount would silently zero that layer's metrics.  The file is
read and executed here, never imported, so no bytecode cache is written next
to it.
"""

import importlib
import os
import types

import kernels
from regcount import DomainStore, GenConfig, SweepTable, catalog, generator, propagators, search, sweep
from strategies import root_long_shaped

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    with open(SPANS, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_spans")
    exec(compile(source, SPANS, "exec"), module.__dict__)
    return module


def test_every_traced_function_and_method_exists():
    spans = _load_spans()
    missing = []
    for module_name, attr, *_ in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(f"{module_name}.{attr}")
    for module_name, cls_name, attr, *_ in spans.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{module_name}.{cls_name}.{attr}")
    assert spans.FUNCTIONS and spans.METHODS
    assert missing == []


def test_every_dispatch_entry_is_its_modes_module_level_propagator():
    # The tracer rebinds dispatch entries by identity: an entry that wraps
    # its mode's propagator (a lambda, say) would bypass the wrapper, and
    # that propagator's metrics would read 0.
    assert {mode: propagators._PROPAGATORS[mode] for mode in propagators.Mode} == {
        mode: getattr(propagators, f"propagate_{mode.value}") for mode in propagators.Mode
    }


def test_table_builds_call_the_wrapped_sweeps_by_name(monkeypatch):
    # The tracer rebinds the sweep kernels, ``forward`` and ``backward``, in
    # regcount.sweep and reads ``(dfa, store)`` off their leading arguments,
    # so every table build must call the kernels through the module's names.
    dfa = catalog("RST")
    r, t = dfa.symbol_id("r"), dfa.symbol_id("t")
    store = DomainStore(dfa.num_symbols, [(r, t)] * 6, range(5))
    calls = []
    for name in ("forward", "backward"):
        def wrapper(dfa_arg, store_arg, *args, _name=name, _original=getattr(sweep, name), **kwargs):
            assert dfa_arg is dfa and store_arg is store
            calls.append(_name)
            return _original(dfa_arg, store_arg, *args, **kwargs)
        monkeypatch.setattr(sweep, name, wrapper)
    table = SweepTable.compute(dfa, store)
    assert calls == ["forward"]
    table.suffix(dfa, store, True, True)
    assert calls == ["forward", "backward", "backward"]
    for sides in ((True, False), (False, True)):
        calls.clear()
        SweepTable.compute(dfa, store).suffix(dfa, store, *sides)
        assert calls == ["forward", "backward"]
    # A build after a removal, as a pass after the first makes, is the same
    # three sweeps.
    calls.clear()
    store.remove_symbol(2, t)
    SweepTable.compute(dfa, store).suffix(dfa, store, True, True)
    assert calls == ["forward", "backward", "backward"]


def test_the_tracer_hooks_run_on_every_traced_layer():
    # The tracer's hooks read the arguments of the calls they wrap (the
    # store is ``args[2]`` of ``SweepTable.compute``, after the class), so a
    # change of a wrapped signature must keep them working.  A hook that
    # raised would leave its span open.
    spans = _load_spans()
    tracer = spans.Tracer()
    dfa, store = root_long_shaped(0, "least", holed=True)
    instance = generator.random_instance(GenConfig(max_n=6), dfa, generator.rng_for(30031))
    with kernels.forced("python"):
        tracer.install()
        try:
            exact = propagators.propagate(dfa, store.copy(), "exact")
            propagators.propagate(dfa, store.copy(), "decomposed")
            search.solve(dfa, instance.make_store(), "exact")
            generator.check_instance(dfa, instance)
        finally:
            tracer.restore()
    assert exact.passes >= 2
    assert tracer.stack == [-1] and all(tracer.ends)
    names = set(tracer.names)
    assert {"sweep.table", "sweep.forward", "sweep.backward", "propagators.exact", "propagators.decomposed",
            "search.solve", "generator.check", spans.HOOK} <= names
    marks = [tracer.payloads[j] for j, name in enumerate(tracer.names) if name == "sweep.table"]
    assert marks and all(type(mark) is int for mark in marks)
    assert tracer.counts["propagators.exact.passes"] >= exact.passes
