"""Brute-force enumeration oracle: exact supports for every variable and N.

The oracle walks every domain-admissible ground sequence, runs the automaton
transition by transition, and records which symbols, native values and
N-values occur in at least one solution under the requested semantics.  It is
the reference every consistency claim is checked against, so it deliberately
shares no code with the sweep tables and trims nothing.  A plain store and a
signature instance differ only in the (reported value, symbol) pairs each
position offers; a store is the identity signature.

One recursion walks the frames: position 0 and every position with more than
one choice.  At most log2(cap) positions have several choices, so the
recursion is at most log2(cap) + 1 deep.  A choice at a frame ends in the state
and adds the counter delta that it and the run of one-choice positions after
it reach.  A frame's step list for one entry state holds one step per distinct
(end state, delta) among its choices; the last frame has no next frame, so
there the delta alone tells steps apart.  Choices that share a step have the
same continuations, so one walk serves them all.  A step carries its number of
choices, the recursion passes down the product of these counts along its path
as a multiplicity, and a leaf adds that multiplicity to its full-string
counter's hits.  Each step also ORs the mode bits of the sequences through it
(which semantics accept some full string through it) into an accumulator of
its own, and after the walk each accumulator is written to the mark slot of
every choice of its step, so no walk loops over slots.  A list is composed
once, through its frame's run, when a step first reaches its (frame, state),
so no sequence walks a run again, and every list composed is entered.

Every ground sequence is still counted exactly once.  Each choice lies in
exactly one step of every list it belongs to, so a sequence takes exactly one
path from the root to a leaf, and a path stands for the product of its steps'
counts of sequences, which differ only in the choices they take within a step
and all end with the path's counter.  Nothing is skipped: every step of every
list entered is walked.  The lists are kept per (frame, state) and never per
counter, so two paths that enter one list with different counters are walked
apart: merging those would make the oracle a DP over counters, the kind of
reasoning it is there to check.  Each leaf makes one lookup of its full-string
counter, which gives the counter's hit count and mode bits (computed at the
first leaf that reaches it).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore, Instance
from .propagators import Mode, PropagationOutcome
from .signature import SignatureMap

#: Default ceiling on the number of ground sequences; override it per call.
#: The CLI's ``--cap`` and its REGCOUNT_CAP environment variable set the cap
#: of the oracle-backed commands.
DEFAULT_CAP = 10**7


class CapExceeded(Exception):
    """The instance has more ground sequences than the configured cap."""


@dataclass
class SupportReport:
    """Exactly-supported values per position and for N, plus solution counts.

    A solution is a full assignment: a ground sequence together with one
    compatible value of N, so a sequence with counter c contributes one
    solution per compatible N-value.
    """

    supported: list[set[int]]
    supported_counter: set[int]
    solution_count: int
    satisfiable: bool


def enumerate_support(dfa: CounterDfa, store: DomainStore, mode: str, cap: int = DEFAULT_CAP) -> SupportReport:
    """Exhaustively enumerate admissible sequences under one semantics."""
    semantics = Mode(mode).semantics.value
    return _enumerate(dfa, _store_choices(store), store.counter, (semantics,), cap)[semantics]


def enumerate_all_modes(dfa: CounterDfa, store: DomainStore, cap: int = DEFAULT_CAP) -> dict[str, SupportReport]:
    """One enumeration pass, reports for atmost, atleast and exact at once."""
    return _enumerate(dfa, _store_choices(store), store.counter, Instance.MODES, cap)


def enumerate_all_modes_native(
    dfa: CounterDfa,
    sig: SignatureMap,
    native_domains: list[list[int]],
    counter_values: list[int],
    cap: int = DEFAULT_CAP,
) -> dict[str, SupportReport]:
    """One enumeration pass over a signature instance, reports for atmost, atleast and exact at once.

    Each position's distinct native values are reported as themselves and
    stepped through the automaton as their signature symbol.
    """
    choices = [[(v, sig.symbol_of(i, v)) for v in sorted(set(dom))] for i, dom in enumerate(native_domains)]
    return _enumerate(dfa, choices, counter_values, Instance.MODES, cap)


def enumerate_support_native(
    dfa: CounterDfa,
    sig: SignatureMap,
    native_domains: list[list[int]],
    counter_values: list[int],
    mode: str,
    cap: int = DEFAULT_CAP,
) -> SupportReport:
    """Support report over native values for a signature instance, under one semantics."""
    return enumerate_all_modes_native(dfa, sig, native_domains, counter_values, cap)[Mode(mode).semantics.value]


def _store_choices(store: DomainStore) -> list[list[tuple[int, int]]]:
    # A plain store reports each symbol as itself: the identity signature.
    return [[(s, s) for s in store.symbols(i)] for i in range(store.n)]


def _enumerate(
    dfa: CounterDfa,
    choices: list[list[tuple[int, int]]],
    counter_values: list[int],
    modes: tuple[str, ...],
    cap: int,
) -> dict[str, SupportReport]:
    """The one recursion: ``choices[i]`` lists position i's (reported value, symbol) pairs."""
    total = prod(map(len, choices))
    if total > cap:
        raise CapExceeded(f"instance exceeds the enumeration cap of {cap} ground sequences")
    n = len(choices)
    counter_dom = sorted(set(counter_values))
    counter_set = set(counter_dom)
    dom_size = len(counter_dom)
    nxt, inc = dfa.next_state, dfa.increment

    def compatible(mode: str, counter: int) -> int:
        """Number of N-values a full-string counter forms a solution with."""
        if mode == "atmost":
            return dom_size - bisect_left(counter_dom, counter)
        if mode == "atleast":
            return bisect_right(counter_dom, counter)
        return 1 if counter in counter_set else 0

    def accepted(counter: int) -> int:
        """Bit k set iff modes[k] accepts a full-string counter."""
        bits, bit = 0, 1
        for m in modes:
            if compatible(m, counter):
                bits |= bit
            bit <<= 1
        return bits

    # Frames sit at position 0 and at each position with several choices.
    # Frame k sits at position at[k], runs[k] lists the symbols of the
    # one-choice positions after it, and marks[base[k] + i] holds the mode
    # bits of its choice i.
    at: list[int] = []
    runs: list[list[int]] = []
    base: list[int] = []
    size = 0
    for p, row in enumerate(choices):
        if p and len(row) == 1:
            run.append(row[0][1])
        else:
            run = []
            at.append(p)
            runs.append(run)
            base.append(size)
            size += len(row)
    frames = len(at)
    last = frames - 1
    marks = [0] * size
    # The step list of frame k entered in state q sits at key q * frames + k.
    steps_of: dict[int, list] = {}
    # Step j's choices' mark slots, and the mode bits of the sequences through it;
    # step 0 is the root step, which enters frame 0 and marks no choice.
    slots_of: list[list[int]] = [[]]
    bits_of = [0]
    tally: dict[int, list[int]] = {}  # full-string counter -> [ground sequences ending with it, mode bits]

    def build(k: int, state: int) -> list:
        """Frame k's step list from ``state``: (step id, next frame's step list, counter delta, number of choices) per step."""
        key = state * frames + k
        steps = steps_of.get(key)
        if steps is None:
            run = runs[k]
            ends: dict[tuple, list[int]] = {}  # (end state, counter delta) -> mark slots
            for slot, (_, sym) in enumerate(choices[at[k]], base[k]):
                q, d = nxt[state][sym], inc[state][sym]
                for s in run:
                    d += inc[q][s]
                    q = nxt[q][s]
                # The last frame's choices have no next frame, so they merge on the delta alone.
                ends.setdefault((q if k < last else None, d), []).append(slot)
            steps = steps_of[key] = []
            for (q, d), slots in ends.items():
                child = None if q is None else build(k + 1, q)
                steps.append((len(slots_of), child, d, len(slots)))
                slots_of.append(slots)
                bits_of.append(0)
        return steps

    def rec(k: int, steps: list, counter: int, mult: int) -> int:
        """Counts the sequences that go on from frame k's ``steps``, each path ``mult`` times; returns their mode bits."""
        bits = 0
        if k + 1 < last:
            for j, child, d, m in steps:
                sub = rec(k + 1, child, counter + d, mult * m)
                bits_of[j] |= sub
                bits |= sub
            return bits
        for j, leaves, d, m in steps:
            c = counter + d
            m *= mult
            sub = 0
            for leaf, _, e, lm in leaves:
                try:
                    cell = tally[c + e]
                except KeyError:
                    cell = tally[c + e] = [0, accepted(c + e)]
                cell[0] += m * lm
                b = cell[1]
                bits_of[leaf] |= b
                sub |= b
            bits_of[j] |= sub
            bits |= sub
        return bits

    if not n:
        tally[0] = [1, 0]  # the empty sequence; no position reads its mode bits
    # A root step enters frame 0, so even a single frame's leaves have a parent loop.
    everywhere = rec(-1, [(0, build(0, dfa.start), 0, 1)], 0, 1) if n and total else 0
    del rec, build  # each refers to itself: free the cycles now, not at the next garbage collection
    for slots, b in zip(slots_of, bits_of):
        for slot in slots:
            marks[slot] |= b

    # Every ground sequence runs through each one-choice position, so its one
    # value holds the bits of all of them (as a one-choice frame's mark does);
    # the frames' values are read in one pass over marks.
    supported = [[{row[0][0]} if len(row) == 1 and everywhere >> k & 1 else set() for row in choices]
                 for k in range(len(modes))]
    for p, slot in zip(at, base):
        for (v, _), b in zip(choices[p], marks[slot:]):
            for sets in supported:
                if b & 1:
                    sets[p].add(v)
                b >>= 1
    reports = {}
    for k, m in enumerate(modes):
        if not tally:
            n_support = set()
        elif m == "atmost":
            least = min(tally)
            n_support = {v for v in counter_dom if v >= least}
        elif m == "atleast":
            most = max(tally)
            n_support = {v for v in counter_dom if v <= most}
        else:
            n_support = counter_set.intersection(tally)
        count = sum(cell[0] * compatible(m, c) for c, cell in tally.items())
        reports[m] = SupportReport(
            supported=supported[k],
            supported_counter=n_support,
            solution_count=count,
            satisfiable=count > 0,
        )
    return reports


@dataclass
class DcVerdict:
    """Comparison of a propagation outcome against the oracle.

    ``unsound`` lists removed-but-supported values, ``gaps`` lists
    kept-but-unsupported ones, and ``failed_on_satisfiable`` flags a FAILED
    outcome on an instance the oracle can solve.  Domain-consistent
    propagators must produce an all-clear on both lists; the incomplete exact
    propagator is allowed gaps but nothing else.
    """

    unsound: list[tuple[int | str, int]] = field(default_factory=list)
    gaps: list[tuple[int | str, int]] = field(default_factory=list)
    failed_on_satisfiable: bool = False

    def counted_gaps(self, mode: str) -> list[tuple[int | str, int]]:
        """The gaps that count against ``mode``: none under exact semantics, however it is spelled."""
        return self.gaps if self.gaps and Mode(mode).semantics is not Mode.EXACT else []

    def ok(self, mode: str) -> bool:
        return not (self.failed_on_satisfiable or self.unsound or self.counted_gaps(mode))


def judge(
    report: SupportReport,
    domains: Sequence[Iterable[int]],
    counter_values: Iterable[int],
    outcome: PropagationOutcome,
) -> DcVerdict:
    """Judge an outcome against ``report`` on the per-position values and N-values it started from.

    The values are symbol ids for a plain store and native values for a
    signature instance, as in the outcome's removals.  A value that a native
    domain or the N-values repeat is judged once, where it first occurs.
    """
    if outcome.failed:
        return DcVerdict(failed_on_satisfiable=report.satisfiable)
    removed = set(outcome.removals)
    verdict = DcVerdict()
    judged = [((i, v), v in report.supported[i]) for i, dom in enumerate(domains) for v in dict.fromkeys(dom)]
    judged += [((COUNTER_VAR, v), v in report.supported_counter) for v in dict.fromkeys(counter_values)]
    for value, is_supported in judged:
        if value in removed:
            if is_supported:
                verdict.unsound.append(value)
        elif not is_supported:
            verdict.gaps.append(value)
    return verdict


def check_dc(
    dfa: CounterDfa,
    store_before: DomainStore,
    mode: str,
    outcome: PropagationOutcome,
    cap: int = DEFAULT_CAP,
    report: SupportReport | None = None,
) -> DcVerdict:
    """Judge an outcome on a store against the oracle run on the pre-propagation store.

    This is :func:`judge` on ``store_before``'s symbols and N-values.  Pass
    ``report`` to reuse an existing enumeration of ``store_before``; without
    one, this enumerates it under ``mode``'s semantics.  ``mode`` picks
    nothing else: read the verdict with :meth:`DcVerdict.ok`.
    """
    if report is None:
        report = enumerate_support(dfa, store_before, mode, cap)
    return judge(report, [store_before.symbols(i) for i in range(store_before.n)], store_before.counter, outcome)
