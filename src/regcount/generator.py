"""Random automata and instances, plus the differential fuzz harness.

Automata are sampled as uniform total transition tables: every (state,
symbol) cell gets a uniform random target, and each arc independently carries
a counter increment (value 1 by default) with probability 0.2.  Instances get
random lengths, per-position domains drawn as intervals or holed sets, and a
counter domain drawn from four shapes: a single value, two values separated
by a hole, and intervals of two or three consecutive values, anchored at a
uniform base in [0, n].

Streams come from numpy's PCG64 generator seeded through SeedSequence spawn
keys, so corpora are reproducible across platforms and trivially partitioned
across workers: instance ``i`` of seed ``s`` is always generated from
``SeedSequence(s, spawn_key=(i,))``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .automaton import CounterDfa, catalog, validate
from .domains import Instance, instance_to_json
from .oracle import DEFAULT_CAP, check_dc, enumerate_all_modes, enumerate_support_native
from .propagators import (
    propagate_atleast,
    propagate_atmost,
    propagate_composite,
    propagate_decomposed,
    propagate_exact,
)
from .signature import among_signature


#: Counter-domain shapes: a single value, two values separated by a hole, and
#: intervals of two or three consecutive values.
COUNTER_SHAPES = ("single", "holed-pair", "interval-2", "interval-3")


@dataclass(frozen=True)
class GenConfig:
    """Knobs for random generation; defaults match the evaluation protocol."""

    min_states: int = 1
    max_states: int = 5
    min_symbols: int = 2
    max_symbols: int = 4
    increment_probability: float = 0.2
    increment_value: int = 1
    min_n: int = 1
    max_n: int = 10
    counter_shapes: tuple[str, ...] = COUNTER_SHAPES
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "counter_shapes", tuple(self.counter_shapes))
        if not 0.0 <= self.increment_probability <= 1.0:
            raise ValueError("increment_probability must lie in [0, 1]")
        if self.min_states < 1 or self.max_states < self.min_states:
            raise ValueError("bad state-count range")
        if self.min_symbols < 1 or self.max_symbols < self.min_symbols:
            raise ValueError("bad alphabet-size range")
        if self.min_n < 0 or self.max_n < self.min_n:
            raise ValueError("bad sequence-length range")
        unknown = [s for s in self.counter_shapes if s not in COUNTER_SHAPES]
        if unknown or not self.counter_shapes:
            raise ValueError(f"counter_shapes must be a nonempty subset of {COUNTER_SHAPES}")


def rng_for(seed: int, index: int | None = None) -> np.random.Generator:
    """Deterministic generator stream; index selects an independent substream."""
    if index is None:
        return np.random.default_rng(np.random.SeedSequence(seed))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


_SYMBOL_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def random_cdfa(cfg: GenConfig, rng: np.random.Generator) -> CounterDfa:
    """Uniform total transition table with Bernoulli increments; start state 0."""
    num_states = int(rng.integers(cfg.min_states, cfg.max_states + 1))
    num_symbols = int(rng.integers(cfg.min_symbols, cfg.max_symbols + 1))
    targets = rng.integers(0, num_states, size=(num_states, num_symbols))
    carries = rng.random((num_states, num_symbols)) < cfg.increment_probability
    dfa = CounterDfa(
        num_states=num_states,
        alphabet=tuple(_SYMBOL_LETTERS[s] for s in range(num_symbols)),
        start=0,
        next_state=tuple(tuple(int(t) for t in row) for row in targets),
        increment=tuple(
            tuple(cfg.increment_value if carries[q][s] else 0 for s in range(num_symbols))
            for q in range(num_states)
        ),
    )
    validate(dfa)
    return dfa


def _random_symbol_domain(rng: np.random.Generator, num_symbols: int) -> list[int]:
    if rng.random() < 0.5:
        lo = int(rng.integers(0, num_symbols))
        hi = int(rng.integers(lo, num_symbols))
        return list(range(lo, hi + 1))
    mask = int(rng.integers(1, 2**num_symbols))
    return [s for s in range(num_symbols) if mask >> s & 1]


def _random_counter_domain(cfg: GenConfig, rng: np.random.Generator, n: int) -> list[int]:
    shape = cfg.counter_shapes[int(rng.integers(0, len(cfg.counter_shapes)))]
    base = int(rng.integers(0, n + 1))
    if shape == "single":
        return [base]
    if shape == "holed-pair":
        return [base, base + int(rng.integers(2, 4))]
    if shape == "interval-2":
        return [base, base + 1]
    return [base, base + 1, base + 2]


def random_instance(cfg: GenConfig, dfa: CounterDfa, rng: np.random.Generator, mode: str = "exact") -> Instance:
    """Random domains for a given automaton; always valid by construction."""
    n = int(rng.integers(cfg.min_n, cfg.max_n + 1))
    return Instance(
        dfa=dfa,
        mode=mode,
        var_domains=[_random_symbol_domain(rng, dfa.num_symbols) for _ in range(n)],
        counter_values=_random_counter_domain(cfg, rng, n),
    )


def random_among_instance(
    cfg: GenConfig, rng: np.random.Generator, universe_size: int = 5, mode: str = "atmost"
) -> Instance:
    """Membership-counting instance: native integer domains plus the in/notin map."""
    n = int(rng.integers(cfg.min_n, cfg.max_n + 1))
    members = {v for v in range(universe_size) if rng.random() < 0.5}
    natives = []
    for _ in range(n):
        mask = int(rng.integers(1, 2**universe_size))
        natives.append([v for v in range(universe_size) if mask >> v & 1])
    dfa = catalog("AMONG")
    return Instance(
        dfa=dfa,
        mode=mode,
        counter_values=_random_counter_domain(cfg, rng, n),
        signature=among_signature(dfa, members, natives),
        native_domains=natives,
    )


def generate_corpus(cfg: GenConfig, count: int, start: int = 0) -> Iterator[tuple[int, CounterDfa, Instance]]:
    """Instances ``start .. start+count-1`` of the stream for ``cfg.seed``."""
    for index in range(start, start + count):
        rng = rng_for(cfg.seed, index)
        dfa = random_cdfa(cfg, rng)
        yield index, dfa, random_instance(cfg, dfa, rng)


@dataclass
class FuzzViolation:
    index: int
    mode: str
    kind: str
    detail: str
    instance_doc: dict


@dataclass
class FuzzReport:
    checked: int = 0
    violations: list[FuzzViolation] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def check_instance(
    dfa: CounterDfa,
    inst: Instance,
    modes: Sequence[str] = Instance.MODES,
    cap: int = DEFAULT_CAP,
    index: int = -1,
) -> list[FuzzViolation]:
    """Differential checks for one instance; empty list means all clear.

    atmost/atleast: the propagator must agree with the oracle exactly (no
    unsound removal, no missed value, failure iff unsatisfiable) and a second
    run must remove nothing.  exact: no unsound removal, no failure on a
    satisfiable instance, and the removal set must contain the decomposition
    baseline's (a failed run counts as removing everything).
    """
    violations: list[FuzzViolation] = []
    reports = enumerate_all_modes(dfa, inst.make_store(), cap)

    def bad(mode: str, kind: str, detail: str) -> None:
        doc = instance_to_json(Instance(dfa=dfa, mode=mode, var_domains=inst.var_domains,
                                        counter_values=inst.counter_values))
        violations.append(FuzzViolation(index, mode, kind, detail, doc))

    for mode, propagator in (("atmost", propagate_atmost), ("atleast", propagate_atleast)):
        if mode not in modes:
            continue
        store = inst.make_store()
        before = store.copy()
        out = propagator(dfa, store)
        verdict = check_dc(dfa, before, mode, out, cap, report=reports[mode])
        if verdict.failed_on_satisfiable:
            bad(mode, "failed-on-satisfiable", "propagator failed but the oracle found solutions")
        if verdict.unsound:
            bad(mode, "unsound", f"removed supported values {verdict.unsound}")
        if verdict.gaps:
            bad(mode, "dc-gap", f"kept unsupported values {verdict.gaps}")
        if not out.failed:
            second = propagator(dfa, store)
            if second.removals or second.failed:
                bad(mode, "not-idempotent", f"second run removed {second.removals}")

    if "exact" in modes:
        store = inst.make_store()
        before = store.copy()
        out = propagate_exact(dfa, store)
        verdict = check_dc(dfa, before, "exact", out, cap, report=reports["exact"])
        if verdict.failed_on_satisfiable:
            bad("exact", "failed-on-satisfiable", "exact propagator failed but the oracle found solutions")
        if verdict.unsound:
            bad("exact", "unsound", f"removed supported values {verdict.unsound}")
        dstore = inst.make_store()
        dout = propagate_decomposed(dfa, dstore)
        if dout.failed and not out.failed:
            bad("exact", "dominance", "decomposition failed but the exact propagator did not")
        elif not dout.failed and not out.failed and not set(out.removals) >= set(dout.removals):
            missing = set(dout.removals) - set(out.removals)
            bad("exact", "dominance", f"exact removals miss decomposition removals {sorted(map(str, missing))}")
    return violations


def check_among_instance(inst: Instance, modes: Sequence[str] = ("atmost", "atleast"), cap: int = DEFAULT_CAP,
                         index: int = -1) -> list[FuzzViolation]:
    """Composite channeling check: propagated native domains must equal the
    native oracle's supported sets exactly under each bound semantics."""
    assert inst.signature is not None and inst.native_domains is not None
    violations: list[FuzzViolation] = []

    def bad(mode: str, kind: str, detail: str) -> None:
        doc = instance_to_json(Instance(dfa=inst.dfa, mode=mode, counter_values=inst.counter_values,
                                        signature=inst.signature, native_domains=inst.native_domains))
        violations.append(FuzzViolation(index, mode, kind, detail, doc))

    for mode in modes:
        result = propagate_composite(inst.dfa, inst.signature, inst.native_domains, inst.counter_values, mode)
        report = enumerate_support_native(inst.dfa, inst.signature, inst.native_domains,
                                          inst.counter_values, mode, cap)
        if result.failed:
            if report.satisfiable:
                bad(mode, "failed-on-satisfiable", "composite propagation failed on a satisfiable instance")
            continue
        if not report.satisfiable:
            bad(mode, "missed-failure", "oracle found no solutions but propagation reached a fixpoint")
            continue
        got = [set(d) for d in result.native_domains]
        want = [set(s) for s in report.supported]
        if got != want or set(result.counter_values) != report.supported_counter:
            bad(mode, "composite-dc", f"native domains {got} vs supported {want}; "
                f"N {result.counter_values} vs {sorted(report.supported_counter)}")
    return violations


def _fuzz_range(cfg: GenConfig, start: int, stop: int, modes: tuple[str, ...], cap: int) -> tuple[int, list[FuzzViolation]]:
    violations: list[FuzzViolation] = []
    checked = 0
    for index, dfa, inst in generate_corpus(cfg, stop - start, start):
        violations.extend(check_instance(dfa, inst, modes, cap, index=index))
        checked += 1
    return checked, violations


def run_fuzz(
    cfg: GenConfig,
    count: int,
    modes: Iterable[str] = Instance.MODES,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> FuzzReport:
    """Generate and differentially check ``count`` instances of the seed's stream.

    With ``threads > 1`` the stream is cut into at most ``threads`` chunks,
    checked in a process pool of at most one worker per chunk and per CPU.
    """
    modes = tuple(modes)
    unknown = [m for m in modes if m not in Instance.MODES]
    if unknown:
        raise ValueError(f"unknown fuzz modes {unknown}; choose from {Instance.MODES}")
    started = time.perf_counter()
    report = FuzzReport()
    if threads <= 1 or count < 2 * threads:
        checked, violations = _fuzz_range(cfg, 0, count, modes, cap)
        report.checked = checked
        report.violations = violations
    else:
        chunk = (count + threads - 1) // threads
        ranges = [(k, min(k + chunk, count)) for k in range(0, count, chunk)]
        with ProcessPoolExecutor(max_workers=min(threads, len(ranges), os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_fuzz_range, cfg, a, b, modes, cap) for a, b in ranges]
            for future in futures:
                checked, violations = future.result()
                report.checked += checked
                report.violations.extend(violations)
        report.violations.sort(key=lambda v: v.index)
    report.elapsed = time.perf_counter() - started
    return report
