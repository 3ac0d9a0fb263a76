"""Brute-force enumeration oracle: exact supports for every variable and N.

The oracle walks every domain-admissible ground sequence, runs the automaton
transition by transition, and records which symbols, native values and
N-values occur in at least one solution under the requested semantics.  It is
the reference every consistency claim is checked against, so it deliberately
shares no code with the sweep tables: one plain recursion over the positions
with more than one choice (a loop steps through the others) that visits every
ground sequence, with no trimming.  A plain store and a signature instance
differ only in the (reported value, symbol) pairs each position offers; a
store is the identity signature.  The only thing cached is each full-string
counter's mode bits (which semantics accept it), computed at the first leaf
that reaches that counter; every leaf still counts its ground sequence.
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
    if prod(map(len, choices)) > cap:
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
        # Bit k set iff modes[k] accepts a full-string counter.  A generator
        # inside ``rec`` would turn its loop variables into closure cells.
        return sum(1 << k for k, m in enumerate(modes) if compatible(m, counter))

    hits: dict[int, int] = {}  # full-string counter -> ground sequences ending with it
    leaf_bits: dict[int, int] = {}  # full-string counter -> bit k set iff modes[k] accepts it
    marks: list[dict[int, int]] = [{} for _ in range(n)]  # per position: value -> mode bits
    # Frames sit at position 0 and at the positions with several choices (at
    # most log2(cap) of them).  The frame of p steps through the one-choice
    # positions after p, whose symbols skip[p] lists, and counts leaves itself.
    skip: dict[int, tuple[list[int], int]] = {}  # p -> (those symbols, the position after them)
    run: list[int] = []  # symbols of the one-choice positions after p, last first
    for p in range(n - 1, -1, -1):
        if p and len(choices[p]) == 1:
            run.append(choices[p][0][1])
        else:
            skip[p] = (run[::-1], p + 1 + len(run))
            run = []

    def rec(pos: int, state: int, counter: int) -> int:
        bits = 0
        seen = marks[pos]
        stepped, stop = skip[pos]
        for value, sym in choices[pos]:
            q, c = nxt[state][sym], counter + inc[state][sym]
            if stepped:  # an empty loop would still build an iterator
                for s in stepped:
                    c += inc[q][s]
                    q = nxt[q][s]
            if stop < n:
                sub = rec(stop, q, c)
            else:
                try:
                    hits[c] += 1
                except KeyError:
                    hits[c] = 1
                    leaf_bits[c] = accepted(c)
                sub = leaf_bits[c]
            if sub:
                bits |= sub
                if value in seen:
                    seen[value] |= sub
                else:
                    seen[value] = sub
        if bits and stepped:
            # Every sequence below this frame runs through each stepped position's one choice.
            for p in range(pos + 1, stop):
                value = choices[p][0][0]
                marks[p][value] = marks[p].get(value, 0) | bits
        return bits

    if n:
        rec(0, dfa.start, 0)
    else:
        hits[0] = 1  # the empty sequence

    reports = {}
    for k, m in enumerate(modes):
        if not hits:
            n_support = set()
        elif m == "atmost":
            least = min(hits)
            n_support = {v for v in counter_dom if v >= least}
        elif m == "atleast":
            most = max(hits)
            n_support = {v for v in counter_dom if v <= most}
        else:
            n_support = counter_set.intersection(hits)
        count = sum(h * compatible(m, c) for c, h in hits.items())
        bit = 1 << k
        reports[m] = SupportReport(
            supported=[{v for v, b in seen.items() if b & bit} for seen in marks],
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

    def __bool__(self) -> bool:  # truthy when something is wrong
        return bool(self.unsound or self.gaps or self.failed_on_satisfiable)


def judge(
    report: SupportReport,
    domains: Sequence[Iterable[int]],
    counter_values: Iterable[int],
    outcome: PropagationOutcome,
) -> DcVerdict:
    """Judge an outcome against ``report`` on the per-position values and N-values it started from.

    The values are symbol ids for a plain store and native values for a
    signature instance, as in the outcome's removals.
    """
    if outcome.failed:
        return DcVerdict(failed_on_satisfiable=report.satisfiable)
    removed = set(outcome.removals)
    verdict = DcVerdict()
    judged = [((i, v), v in report.supported[i]) for i, dom in enumerate(domains) for v in dom]
    judged += [((COUNTER_VAR, v), v in report.supported_counter) for v in counter_values]
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
