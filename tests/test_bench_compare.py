"""``tools/bench_compare.py`` reproduces the figures that CHANGES.md cites from committed BENCH files."""

import contextlib
import importlib.util
import io
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def end_to_end():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def rows_of(tool, name):
    runs = tool.read_runs(os.path.join(ROOT, name))
    return {(row.workload, row.metric): row for row in tool.compare(runs, end_to_end())}


def figures(row, digits=2):
    return round(row.base_median, digits), round(row.change_median, digits), row.wins, row.pairs


def test_committed_bench_files_give_their_cited_figures():
    tool = load_tool()
    step_lists = rows_of(tool, "BENCH_20-step-lists.json")
    fuzz = step_lists["fuzz-oracle", "ops_per_s"]
    assert figures(fuzz, 1) == (649.8, 911.5, 10, 10)
    assert (fuzz.base, fuzz.change) == ("parent", "change")
    assert round(fuzz.base_iqr, 1) == 24.6 and fuzz.beyond_iqr and fuzz.inside_bound
    # root-long lost 3.3% there (1 of 10 pairs), inside its 20% bound.
    slower = step_lists["root-long", "ops_per_s"]
    assert (round(slower.relative, 3), slower.wins, slower.inside_bound) == (-0.033, 1, True)
    certified = rows_of(tool, "BENCH_18-certified-fixpoint.json")["root-long", "ops_per_s"]
    assert figures(certified) == (22.62, 29.95, 10, 10)
    # The A/A run names its sides parent and parent-copy.
    aa = rows_of(tool, "BENCH_21-aa-root-long.json")["root-long", "ops_per_s"]
    assert figures(aa) == (31.44, 32.11, 7, 10)
    assert (aa.base, aa.change, round(aa.base_iqr, 2)) == ("parent", "parent-copy", 0.52)


def test_wins_follow_the_better_direction_and_the_bound_is_relative():
    tool = load_tool()
    runs = [{"workload": "w", "seed": seed, "side": side, "position": 1,
             "result": {"correct": True, "attempted": 10, "failed": 0,
                        "metrics": {"ops_per_s": {"value": speed}, "op_ms.p50": {"value": 1000 / speed}}}}
            for seed, (old, new) in enumerate([(100, 79), (100, 90), (100, 120)])
            for side, speed in (("change", new), ("parent", old))]
    specs = [{"name": "ops_per_s", "better": "higher", "bound": 0.05},
             {"name": "op_ms.p50", "better": "lower", "bound": 0.15}]
    speed, latency = tool.compare(runs, specs)
    # The base is the side named parent, though the change comes first.
    assert (speed.base, speed.change, speed.base_iqr) == ("parent", "change", 0.0)
    assert (speed.wins, speed.pairs, speed.inside_bound) == (1, 3, False)  # median 90: -10%
    assert (latency.wins, latency.pairs, latency.inside_bound) == (1, 3, True)  # median 11.1 ms: +11%
    runs.append({"workload": "w", "seed": 3, "side": "change", "position": 1, "result": {"error": "worker died"}})
    assert tool.failures(runs)["w", "change"] == (4, 1, 31)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main([os.path.join(ROOT, "BENCH_21-aa-root-long.json")]) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 + len(end_to_end()) + 1
    assert lines[1].split()[:4] == ["root-long", "ops_per_s", "31.44", "32.11"]
    assert lines[-1] == "root-long: parent 10 runs, 0 of 2000 ops failed; parent-copy 10 runs, 0 of 2000 ops failed"


def test_aa_option_prints_the_noise_rows_next_to_each_claim():
    tool = load_tool()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main([os.path.join(ROOT, "BENCH_22-identity-first.json"),
                          "--aa", os.path.join(ROOT, "BENCH_21-aa-root-long.json")]) == 0
    rows = {tuple(line.split()[:2]): line.split() for line in out.getvalue().splitlines()[1:]}
    # The claim's own columns are unchanged; the A/A gap and wins follow them.
    assert rows["root-long", "ops_per_s"][2:6] == ["31.2", "34.36", "+10.1%", "9/10"]
    assert rows["root-long", "ops_per_s"][-2:] == ["+2.1%", "7/10"]
    # The A/A file has no search-dfs runs, so those rows end at the bound check.
    assert rows["search-dfs", "ops_per_s"][-1] == "yes" and len(rows["search-dfs", "ops_per_s"]) == 10


def test_repeated_aa_option_prints_the_widest_noise_over_the_files_holding_each_workload():
    tool = load_tool()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main([os.path.join(ROOT, "BENCH_23-cheaper-nodes.json"),
                          "--aa", os.path.join(ROOT, "BENCH_21-aa-root-long.json"),
                          "--aa", os.path.join(ROOT, "BENCH_23-aa.json")]) == 0
    rows = {tuple(line.split()[:2]): line.split() for line in out.getvalue().splitlines()[1:]}
    # Each workload's noise comes from the one file that holds it.
    assert rows["root-long", "ops_per_s"][-2:] == ["+2.1%", "7/10"]
    assert rows["search-dfs", "ops_per_s"][-2:] == ["+1.2%", "6/10"]
    assert rows["search-dfs", "setup_s"][-2:] == ["+5.8%", "4/10"]
    assert rows["fuzz-oracle", "ops_per_s"][-2:] == ["-0.7%", "4/10"]
    # Where two files hold a workload, the gap is the larger in size, sign
    # kept, and the wins the farther from half the pairs, each taken apart.
    def aa_file(pairs):
        return [{"workload": "w", "seed": seed, "side": side, "position": 1,
                 "result": {"correct": True, "attempted": 10, "failed": 0,
                            "metrics": {"ops_per_s": {"value": speed}}}}
                for seed, (old, new) in enumerate(pairs) for side, speed in (("parent", old), ("parent-copy", new))]
    specs = [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]
    narrow = aa_file([(100, 101), (100, 101), (100, 101), (100, 99)])  # +1%, 3 of 4 pairs
    wide = aa_file([(100, 95), (100, 95), (100, 101), (100, 102)])  # -2%, 2 of 4 pairs
    assert tool.noise([narrow, wide], specs) == {("w", "ops_per_s"): (-0.02, 3, 4)}
    assert tool.noise([wide, narrow], specs) == {("w", "ops_per_s"): (-0.02, 3, 4)}
