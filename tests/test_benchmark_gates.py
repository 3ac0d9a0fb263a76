"""The benchmark's correctness gates, run on a few inputs of seed 0.

Each workload in ``perfbench/workloads.py`` checks every op it times (root-long
against the removal counts that ``perfbench/golden_root_long.json`` records,
search-dfs against the oracle's solution counts, fuzz-oracle for zero
violations).  Running those checks here makes a change to pruning fail the
test suite, not only the benchmark.  The file is read and executed, never
imported, so no bytecode cache is written next to it.
"""

import os
import sys
import types

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def _load_workloads():
    with open(WORKLOADS, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = WORKLOADS
    sys.modules[module.__name__] = module  # dataclasses look their module up there
    exec(compile(source, WORKLOADS, "exec"), module.__dict__)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize(("name", "ops"), [("root-long", 4), ("search-dfs", 200), ("fuzz-oracle", 100)])
def test_workload_gates_hold_on_seed_0(name, ops):
    workload = workloads.WORKLOADS[name]()
    inputs = workload.make_inputs(0, ops)
    assert len(inputs) == ops
    for inp in inputs:
        assert workload.check(inp, workload.run(inp)) == [], (name, inp)


def test_root_long_ops_checked_here_have_recorded_removal_counts():
    # Without a record for these ops, root-long's check would not look at removal counts.
    assert len(workloads.RootLong().golden["0"]) >= 4
