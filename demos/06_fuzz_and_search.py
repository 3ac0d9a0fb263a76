"""Differential fuzzing and search-tree comparisons.

Every propagator claim in this package is checked against a brute-force
enumeration oracle on thousands of random instances: the bound propagators
must match supported values exactly, the exact rule must never remove a
supported value, and its removals must contain the decomposition's.  The
same instances feed a DFS that counts nodes, failures and prunings, showing
the exact rule never enlarges the search tree.
"""

from regcount import (
    GenConfig,
    bench,
    format_bench,
    generate_corpus,
    run_fuzz,
    solve_collect,
)

print("== differential fuzz (1,000 indices, all three semantics) ==")
report = run_fuzz(GenConfig(max_n=6, seed=2024), count=1000)
print(f"  checked {report.checked} indices (a plain and an among instance each) in {report.elapsed:.2f}s, "
      f"violations: {len(report.violations)}")

print()
print("== search: exact rule vs decomposition on the same instances ==")
cfg = GenConfig(max_n=5, seed=99)
nodes_exact = nodes_decomposed = 0
mismatches = 0
for _, dfa, inst in generate_corpus(cfg, 200):
    stats_e, sols_e = solve_collect(dfa, inst.make_store(), "exact", "exact")
    stats_d, sols_d = solve_collect(dfa, inst.make_store(), "exact", "decomposed")
    nodes_exact += stats_e.nodes
    nodes_decomposed += stats_d.nodes
    mismatches += set(sols_e) != set(sols_d)
print(f"  200 instances: identical solution sets on {200 - mismatches}/200")
print(f"  total nodes: exact {nodes_exact} <= decomposed {nodes_decomposed}")

print()
print("== aggregated bench table ==")
corpus = [(f"random-{dfa.num_states}state", inst)
          for _, dfa, inst in generate_corpus(GenConfig(min_n=3, max_n=3, seed=5), 30)]
rows = bench(corpus)
print(format_bench(rows))
