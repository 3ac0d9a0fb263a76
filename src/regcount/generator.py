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
from dataclasses import dataclass, field, replace
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .automaton import CounterDfa, catalog, validate
from .domains import Instance
from .oracle import (DEFAULT_CAP, CapExceeded, DcVerdict, SupportReport, check_dc, enumerate_all_modes,
                     enumerate_all_modes_native, judge)
from .propagators import (
    Mode,
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
#: The among automaton every membership-counting instance shares; a CounterDfa is frozen.
_AMONG = catalog("AMONG")


def random_cdfa(cfg: GenConfig, rng: np.random.Generator) -> CounterDfa:
    """Uniform total transition table with Bernoulli increments; start state 0."""
    num_states = int(rng.integers(cfg.min_states, cfg.max_states + 1))
    num_symbols = int(rng.integers(cfg.min_symbols, cfg.max_symbols + 1))
    targets = rng.integers(0, num_states, size=(num_states, num_symbols)).tolist()
    carries = (rng.random((num_states, num_symbols)) < cfg.increment_probability).tolist()
    value = cfg.increment_value
    dfa = CounterDfa(
        num_states=num_states,
        alphabet=tuple(_SYMBOL_LETTERS[s] for s in range(num_symbols)),
        start=0,
        next_state=tuple(map(tuple, targets)),
        increment=tuple(tuple([value if carry else 0 for carry in row]) for row in carries),
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


def random_instance(cfg: GenConfig, dfa: CounterDfa, rng: np.random.Generator) -> Instance:
    """Random domains for a given automaton, as an exact instance; always valid by construction."""
    n = int(rng.integers(cfg.min_n, cfg.max_n + 1))
    return Instance(
        dfa=dfa,
        mode="exact",
        var_domains=[_random_symbol_domain(rng, dfa.num_symbols) for _ in range(n)],
        counter_values=_random_counter_domain(cfg, rng, n),
    )


def random_among_instance(cfg: GenConfig, rng: np.random.Generator, universe_size: int = 5) -> Instance:
    """Atmost membership-counting instance: native integer domains plus the in/notin map."""
    n = int(rng.integers(cfg.min_n, cfg.max_n + 1))
    members = {v for v in range(universe_size) if rng.random() < 0.5}
    natives = []
    for _ in range(n):
        mask = int(rng.integers(1, 2**universe_size))
        natives.append([v for v in range(universe_size) if mask >> v & 1])
    return Instance(
        dfa=_AMONG,
        mode="atmost",
        counter_values=_random_counter_domain(cfg, rng, n),
        signature=among_signature(_AMONG, members, natives),
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
    """One failed check; ``instance`` is the failing instance, with the semantics of ``mode`` as its mode."""

    index: int
    mode: str
    kind: str
    detail: str
    instance: Instance


@dataclass
class FuzzReport:
    """``checked`` counts the indices checked in full; ``capped`` lists, in
    order, the others, each with an instance that passed the oracle's cap.
    The violations found before the cap stopped an index are kept."""

    checked: int = 0
    violations: list[FuzzViolation] = field(default_factory=list)
    elapsed: float = 0.0
    capped: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _violations(inst: Instance, mode: str, index: int, verdict: DcVerdict,
                more: Sequence[tuple[str, str]] = ()) -> list[FuzzViolation]:
    """A verdict's violations of ``mode``, then the (kind, detail) pairs of ``more``.

    Gaps count only under atmost and atleast, by :meth:`DcVerdict.ok`'s rule.
    """
    found = []
    if verdict.failed_on_satisfiable:
        found.append(("failed-on-satisfiable", f"{'exact ' if mode == 'exact' else ''}propagator failed "
                      "but the oracle found solutions"))
    if verdict.unsound:
        found.append(("unsound", f"removed supported values {verdict.unsound}"))
    gaps = verdict.counted_gaps(mode)
    if gaps:
        found.append(("dc-gap", f"kept unsupported values {gaps}"))
    return [FuzzViolation(index, mode, kind, detail, replace(inst, mode=Mode(mode).semantics.value))
            for kind, detail in [*found, *more]]


def _count_violations(inst: Instance, index: int, reports: dict[str, SupportReport],
                      ground: int, values: int) -> list[FuzzViolation]:
    """An ``oracle-count`` violation, under the instance's own mode, if the oracle's solution counts disagree.

    Per ground sequence with full-string counter c, atmost counts the
    ``values`` N-values at least c, atleast those at most c, and exact one
    if c is an N-value; these sum to ``values`` + [c in dom(N)].  So over
    the ``ground`` sequences, atmost + atleast = ground × values + exact.
    """
    atmost, atleast, exact = (reports[m].solution_count for m in Instance.MODES)
    if atmost + atleast == ground * values + exact:
        return []
    detail = (f"atmost {atmost} + atleast {atleast} solutions, not {ground} ground sequences × {values} "
              f"N-values + exact {exact}")
    return [FuzzViolation(index, inst.mode, "oracle-count", detail, inst)]


def check_instance(
    dfa: CounterDfa,
    inst: Instance,
    modes: Sequence[str] = Instance.MODES,
    cap: int = DEFAULT_CAP,
    index: int = -1,
) -> list[FuzzViolation]:
    """Differential checks for one instance; empty list means all clear.

    Each propagator's outcome is judged against the oracle with
    :func:`regcount.oracle.check_dc`: no unsound removal and no failure on a
    satisfiable instance, and under atmost and atleast no kept unsupported
    value either.  A second atmost or atleast run must remove nothing, and
    exact's removals must contain the decomposition baseline's (a failed run
    counts as removing everything).  Whatever ``modes`` holds, the oracle's
    three solution counts must meet the identity of :func:`_count_violations`.
    """
    # The instance's one store, which nothing changes: the oracle and the
    # judge read it, and each propagator runs on a copy.
    given = inst.make_store()
    reports = enumerate_all_modes(dfa, given, cap)
    violations = _count_violations(inst, index, reports, prod([d.bit_count() for d in given.domains]),
                                   len(given.counter))
    for mode, propagator in (("atmost", propagate_atmost), ("atleast", propagate_atleast),
                             ("exact", propagate_exact)):
        if mode not in modes:
            continue
        store = given.copy()
        out = propagator(dfa, store)
        verdict = check_dc(dfa, given, mode, out, cap, report=reports[mode])
        more = []
        if mode == "exact":
            dout = propagate_decomposed(dfa, given.copy())
            if dout.failed and not out.failed:
                more.append(("dominance", "decomposition failed but the exact propagator did not"))
            elif not dout.failed and not out.failed and not set(out.removals) >= set(dout.removals):
                missing = set(dout.removals) - set(out.removals)
                more.append(("dominance", f"exact removals miss decomposition removals {sorted(map(str, missing))}"))
        elif not out.failed:
            second = propagator(dfa, store)
            if second.removals or second.failed:
                more.append(("not-idempotent", f"second run removed {second.removals}"))
        violations += _violations(inst, mode, index, verdict, more)
    return violations


def check_among_instance(inst: Instance, modes: Sequence[str] = ("atmost", "atleast"), cap: int = DEFAULT_CAP,
                         index: int = -1) -> list[FuzzViolation]:
    """Composite channeling check, judged as :func:`check_instance` judges a propagator.

    The native removals of :func:`regcount.propagators.propagate_composite`
    are judged against the native oracle with :func:`regcount.oracle.judge`,
    under each mode's semantics: kinds ``failed-on-satisfiable``, ``unsound``
    and, except under exact, ``dc-gap`` (which also flags a fixpoint on an
    unsatisfiable instance).  The oracle's solution counts are checked as
    :func:`check_instance` checks them.
    """
    assert inst.signature is not None and inst.native_domains is not None
    reports = enumerate_all_modes_native(inst.dfa, inst.signature, inst.native_domains, inst.counter_values, cap)
    violations = _count_violations(inst, index, reports, prod([len(set(d)) for d in inst.native_domains]),
                                   len(set(inst.counter_values)))
    for mode in modes:
        out = propagate_composite(inst.dfa, inst.signature, inst.native_domains, inst.counter_values, mode)
        verdict = judge(reports[Mode(mode).semantics.value], inst.native_domains, inst.counter_values, out)
        violations += _violations(inst, mode, index, verdict)
    return violations


#: The among instances :func:`run_fuzz` checks: at most 6 positions over a
#: universe of 5 values keep the native oracle far below its cap.
AMONG_CFG = GenConfig(max_n=6)


def _fuzz_range(cfg: GenConfig, start: int, stop: int, modes: tuple[str, ...], cap: int) -> FuzzReport:
    report = FuzzReport()
    for index in range(start, stop):
        # The among instance is drawn after the plain one, from the same
        # stream, so the plain instances stay those of generate_corpus.
        rng = rng_for(cfg.seed, index)
        dfa = random_cdfa(cfg, rng)
        inst = random_instance(cfg, dfa, rng)
        among = random_among_instance(AMONG_CFG, rng)
        try:
            report.violations += check_instance(dfa, inst, modes, cap, index)
            report.violations += check_among_instance(among, modes, cap, index)
        except CapExceeded:
            report.capped.append(index)
        else:
            report.checked += 1
    return report


def run_fuzz(
    cfg: GenConfig,
    count: int,
    modes: Iterable[str] = Instance.MODES,
    cap: int = DEFAULT_CAP,
    threads: int = 1,
) -> FuzzReport:
    """Generate and differentially check ``count`` indices of the seed's stream.

    Each index checks its plain instance with :func:`check_instance` and one
    among instance, drawn from the same stream after it, with
    :func:`check_among_instance`, both under ``modes``.  An index with an
    instance the oracle cannot enumerate within ``cap`` is listed in
    ``capped``, not counted as checked, and the run goes on.  The run uses
    ``min(threads, CPUs)`` workers: with one, or with fewer than two indices
    per worker, it runs in this process; otherwise the stream is cut into at
    most one chunk per worker, checked in a process pool of one worker per chunk.
    """
    modes = tuple(modes)
    unknown = [m for m in modes if m not in Instance.MODES]
    if unknown:
        raise ValueError(f"unknown fuzz modes {unknown}; choose from {Instance.MODES}")
    started = time.perf_counter()
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1 or count < 2 * workers:
        report = _fuzz_range(cfg, 0, count, modes, cap)
    else:
        report = FuzzReport()
        chunk = (count + workers - 1) // workers
        ranges = [(k, min(k + chunk, count)) for k in range(0, count, chunk)]
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_fuzz_range, cfg, a, b, modes, cap) for a, b in ranges]
            for future in futures:
                part = future.result()
                report.checked += part.checked
                report.violations.extend(part.violations)
                report.capped.extend(part.capped)
        report.violations.sort(key=lambda v: v.index)
    report.elapsed = time.perf_counter() - started
    return report
