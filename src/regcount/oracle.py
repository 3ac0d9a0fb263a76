"""Brute-force enumeration oracle: exact supports for every variable and N.

The oracle walks every domain-admissible ground sequence, runs the automaton
transition by transition, and records which symbols, native values and
N-values occur in at least one solution under the requested semantics.  It is
the reference every consistency claim is checked against, so it deliberately
shares no code with the sweep tables: one plain recursion over positions that
visits every ground sequence, with no trimming.  A plain store and a
signature instance differ only in the (reported value, symbol) pairs each
position offers; a store is the identity signature.  The only thing cached is
each full-string counter's mode bits (which semantics accept it), computed at
the first leaf that reaches that counter; every leaf still counts its ground
sequence.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import prod

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore, Instance
from .propagators import Mode, PropagationOutcome
from .signature import SignatureMap

#: Default ceiling on the number of ground sequences; override per call or
#: via the REGCOUNT_CAP environment variable (used by the CLI).
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


def enumerate_support_native(
    dfa: CounterDfa,
    sig: SignatureMap,
    native_domains: list[list[int]],
    counter_values: list[int],
    mode: str,
    cap: int = DEFAULT_CAP,
) -> SupportReport:
    """Support report over native values for a signature instance.

    Each position's distinct native values are reported as themselves and
    stepped through the automaton as their signature symbol.
    """
    semantics = Mode(mode).semantics.value
    choices = [[(v, sig.symbol_of(i, v)) for v in sorted(set(dom))] for i, dom in enumerate(native_domains)]
    return _enumerate(dfa, choices, counter_values, (semantics,), cap)[semantics]


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

    hits: dict[int, int] = {}  # full-string counter -> ground sequences ending with it
    leaf_bits: dict[int, int] = {}  # full-string counter -> bit k set iff modes[k] accepts it
    marks: list[dict[int, int]] = [{} for _ in range(n)]  # per position: value -> mode bits

    def rec(pos: int, state: int, counter: int) -> int:
        if pos == n:
            try:
                hits[counter] += 1
            except KeyError:
                hits[counter] = 1
                bits = 0
                for k, m in enumerate(modes):
                    if compatible(m, counter):
                        bits |= 1 << k
                leaf_bits[counter] = bits
            return leaf_bits[counter]
        bits = 0
        seen = marks[pos]
        for value, sym in choices[pos]:
            sub = rec(pos + 1, nxt[state][sym], counter + inc[state][sym])
            if sub:
                bits |= sub
                if value in seen:
                    seen[value] |= sub
                else:
                    seen[value] = sub
        return bits

    rec(0, dfa.start, 0)

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

    def ok(self, mode: str) -> bool:
        if self.failed_on_satisfiable or self.unsound:
            return False
        if Mode(mode).semantics is Mode.EXACT:
            return True
        return not self.gaps

    def __bool__(self) -> bool:  # truthy when something is wrong
        return bool(self.unsound or self.gaps or self.failed_on_satisfiable)


def check_dc(
    dfa: CounterDfa,
    store_before: DomainStore,
    mode: str,
    outcome: PropagationOutcome,
    cap: int = DEFAULT_CAP,
    report: SupportReport | None = None,
) -> DcVerdict:
    """Judge an outcome against the oracle run on the pre-propagation store.

    Pass ``report`` to reuse an existing enumeration of ``store_before``.
    """
    if report is None:
        report = enumerate_support(dfa, store_before, mode, cap)
    if outcome.failed:
        return DcVerdict(failed_on_satisfiable=report.satisfiable)
    removed = set(outcome.removals)
    verdict = DcVerdict()
    for i in range(store_before.n):
        for sym in store_before.symbols(i):
            is_supported = sym in report.supported[i]
            if (i, sym) in removed:
                if is_supported:
                    verdict.unsound.append((i, sym))
            elif not is_supported:
                verdict.gaps.append((i, sym))
    for v in store_before.counter:
        is_supported = v in report.supported_counter
        if (COUNTER_VAR, v) in removed:
            if is_supported:
                verdict.unsound.append((COUNTER_VAR, v))
        elif not is_supported:
            verdict.gaps.append((COUNTER_VAR, v))
    return verdict


def cap_from_env(default: int = DEFAULT_CAP) -> int:
    """Enumeration cap, honoring the REGCOUNT_CAP environment variable.

    Unset or empty gives ``default``; any other value must be a positive
    integer, or ``ValueError`` is raised.
    """
    raw = os.environ.get("REGCOUNT_CAP", "")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"REGCOUNT_CAP must be a positive integer, or unset; got {raw!r}")
    return value
