"""The three workloads: input generation, the timed op, and its correctness gates.

Every op gets its own instance; inputs are derived from the run's seed and the
op's index through ``regcount.generator.rng_for``, so the same seed gives the
same inputs and no input repeats within a run.

* ``root-long``: one op propagates a 20-state, 8-symbol ``random_cdfa`` over
  n = 1000 positions under atmost, atleast, exact and decomposed, each on a
  fresh copy of the store.  About 75% of the positions are singletons, and N
  is a 3-value window around the least full-string counter, so the
  propagators prune and exact/decomposed take more than one pass (full
  domains with a central window prune nothing in a single pass).
* ``search-dfs``: one op solves one criterion-7 instance (max_n cycling
  through 5..8, at most ``space_cap`` assignments) with the exact rule and
  with the decomposition.
* ``fuzz-oracle``: one op generates and differentially checks one
  ``check_instance`` input (n in 9..12, all three modes) plus one criterion-8
  membership instance under atmost and atleast.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import prod

from regcount import generator, oracle, propagators, search
from regcount.domains import COUNTER_VAR, DomainStore, Instance
from regcount.generator import GenConfig

HERE = os.path.dirname(os.path.abspath(__file__))
INF = float("inf")


class RootLong:
    name = "root-long"
    pool_size = 200
    traced_ops = 16
    cfg = GenConfig(min_states=20, max_states=20, min_symbols=8, max_symbols=8)
    n = 1000
    singleton_share = 0.75
    modes = ("atmost", "atleast", "exact", "decomposed")

    @dataclass
    class Input:
        seed: int
        index: int
        dfa: object
        store: DomainStore
        least: int

    def __init__(self):
        with open(os.path.join(HERE, "golden_root_long.json"), encoding="utf-8") as fh:
            self.golden = json.load(fh)

    def make_inputs(self, seed: int, count: int) -> list:
        inputs = []
        alphabet = self.cfg.max_symbols
        for index in range(count):
            rng = generator.rng_for(seed, index)
            dfa = generator.random_cdfa(self.cfg, rng)
            singles = rng.random(self.n) < self.singleton_share
            symbols = rng.integers(0, alphabet, self.n)
            masks = rng.integers(1, 2**alphabet, self.n)
            domains = [
                [int(symbols[i])] if singles[i] else [s for s in range(alphabet) if int(masks[i]) >> s & 1]
                for i in range(self.n)
            ]
            least = least_counter(dfa, domains)
            lo = max(least - 1, 0)
            store = DomainStore(dfa.num_symbols, domains, range(lo, lo + 3))
            inputs.append(self.Input(seed, index, dfa, store, least))
        return inputs

    def run(self, inp):
        return {mode: propagators.propagate(inp.dfa, inp.store.copy(), mode) for mode in self.modes}

    def check(self, inp, outs) -> list[str]:
        errors = [f"{mode} failed" for mode, out in outs.items() if out.failed]
        removed = {mode: set(out.removals) for mode, out in outs.items()}
        if not removed["atmost"] | removed["atleast"] <= removed["decomposed"] <= removed["exact"]:
            errors.append("removal sets do not nest: atmost|atleast <= decomposed <= exact")
        n_removed = {v for var, v in removed["atmost"] if var == COUNTER_VAR}
        if n_removed != {v for v in inp.store.counter if v < inp.least}:
            errors.append(f"atmost removed N values {sorted(n_removed)}; least counter is {inp.least}")
        recorded = self.golden.get(str(inp.seed), [])
        if inp.index < len(recorded):
            got = [len(outs[mode].removals) for mode in self.modes]
            if got != recorded[inp.index]:
                errors.append(f"removal counts {got} differ from recorded {recorded[inp.index]}")
        return errors

    def sample_instance(self, inp) -> Instance:
        store = inp.store
        return Instance(dfa=inp.dfa, mode="exact", var_domains=[store.symbols(i) for i in range(store.n)],
                        counter_values=list(store.counter))


def least_counter(dfa, domains) -> int:
    """Least full-string counter over the domains; the benchmark's own DP, independent of regcount.sweep."""
    nxt, inc = dfa.next_state, dfa.increment
    row = [INF] * dfa.num_states
    row[dfa.start] = 0
    for dom in domains:
        new = [INF] * dfa.num_states
        for q, c in enumerate(row):
            if c == INF:
                continue
            tq, iq = nxt[q], inc[q]
            for s in dom:
                c2 = c + iq[s]
                if c2 < new[tq[s]]:
                    new[tq[s]] = c2
        row = new
    return int(min(row))


class SearchDfs:
    name = "search-dfs"
    pool_size = 24000
    traced_ops = 1500
    #: Instances with more assignments than this (product of the domain sizes
    #: and |dom(N)|; about 2% of the stream) are skipped: the few searches of
    #: up to 0.4 s among them made the mean op time swing by 10% from seed to
    #: seed.
    space_cap = 256

    @dataclass
    class Input:
        index: int
        dfa: object
        instance: Instance
        solutions: int

    def make_inputs(self, seed: int, count: int) -> list:
        inputs = []
        index = -1
        while len(inputs) < count:
            index += 1
            cfg = GenConfig(max_n=5 + index % 4)
            rng = generator.rng_for(seed, index)
            dfa = generator.random_cdfa(cfg, rng)
            inst = generator.random_instance(cfg, dfa, rng)
            if prod(map(len, inst.var_domains)) * len(inst.counter_values) > self.space_cap:
                continue
            report = oracle.enumerate_support(dfa, inst.make_store(), "exact")
            inputs.append(self.Input(index, dfa, inst, report.solution_count))
        return inputs

    def run(self, inp):
        exact_found: list = []
        baseline_found: list = []
        exact = search.solve(inp.dfa, inp.instance.make_store(), "exact", "exact", on_solution=exact_found.append)
        baseline = search.solve(inp.dfa, inp.instance.make_store(), "exact", "decomposed",
                                on_solution=baseline_found.append)
        return exact, exact_found, baseline, baseline_found

    def check(self, inp, result) -> list[str]:
        exact, exact_found, baseline, baseline_found = result
        errors = []
        if set(exact_found) != set(baseline_found):
            errors.append("exact and decomposed search found different solution sets")
        if exact.nodes > baseline.nodes:
            errors.append(f"exact search used {exact.nodes} nodes, decomposed {baseline.nodes}")
        if not exact.solutions == baseline.solutions == len(exact_found) == inp.solutions:
            errors.append(f"solution counts {exact.solutions}/{baseline.solutions}, oracle {inp.solutions}")
        return errors

    def sample_instance(self, inp) -> Instance:
        return inp.instance


class FuzzOracle:
    name = "fuzz-oracle"
    pool_size = 50000
    traced_ops = 1500
    cfg = GenConfig(min_n=9, max_n=12)
    among_cfg = GenConfig(max_n=6)

    @dataclass
    class Input:
        seed: int
        index: int

    def make_inputs(self, seed: int, count: int) -> list:
        # Generation is part of the op here; the input is only its stream.
        return [self.Input(seed, index) for index in range(count)]

    def _generate(self, inp):
        rng = generator.rng_for(inp.seed, inp.index)
        dfa = generator.random_cdfa(self.cfg, rng)
        inst = generator.random_instance(self.cfg, dfa, rng)
        return rng, dfa, inst

    def run(self, inp):
        rng, dfa, inst = self._generate(inp)
        violations = generator.check_instance(dfa, inst, index=inp.index)
        among = generator.random_among_instance(self.among_cfg, rng, universe_size=5)
        violations += generator.check_among_instance(among, ("atmost", "atleast"), index=inp.index)
        return violations

    def check(self, inp, violations) -> list[str]:
        return [f"violation {v.mode} {v.kind}: {v.detail}" for v in violations]

    def sample_instance(self, inp) -> Instance:
        rng, _dfa, _inst = self._generate(inp)
        return generator.random_among_instance(self.among_cfg, rng, universe_size=5)


WORKLOADS = {w.name: w for w in (RootLong, SearchDfs, FuzzOracle)}
