"""Constraint propagators for counting constraints over a counter automaton.

Three constraint semantics relate the automaton counter ``c(X)`` to the
counter variable ``N``: ``atmost`` is ``c(X) <= N``, ``atleast`` is
``c(X) >= N`` and ``exact`` is ``c(X) == N``.

One interval rule filters all three.  A symbol ``s`` at position ``i``
survives iff, for some state ``q`` reachable there, the interval
``[cheapest, costliest]`` of the full strings through ``q`` and ``s`` meets
dom(N); an N-value survives iff some end state's interval holds it.  The
semantics decides which ends are bounded: atmost bounds the cheapest only
(the test reads "cheapest <= max(dom(N))"), atleast the costliest only, and
exact both, the one case in which the holes in dom(N) matter.
A pass reads the full-string counter range off the prefix rows, with the
unbounded end at ``-inf`` or ``+inf``, and builds suffix rows only on the
bounded sides; an unbuilt side reads as unbounded, so the arithmetic is the
same for all three.

With one end open the rule is domain-consistent and one pass is its
fixpoint: a removed symbol lies only on strings beyond dom(N)'s far end,
which support no value, and that far end is never removed, so no survivor
loses its support; atmost and atleast run once and are idempotent.  With
both ends bounded the rule is sound but incomplete (domain consistency for
exact counting is NP-hard, see :func:`regcount.automaton.build_subset_sum_dfa`):
a removal can narrow other intervals, so ``propagate_exact`` loops to a
fixpoint (see the stop rule below).

``propagate_decomposed``, the baseline the exact rule strictly dominates,
is the decomposition of exact counting into atmost and atleast.  It runs
the same two-sided passes as exact, but checks each end on its own: a
symbol survives iff some reachable state's cheapest end is at most
max(dom(N)) and some state's costliest end, not necessarily the same
state's, is at least min(dom(N)); holes are ignored, and an N-value
survives iff it lies in ``[least, greatest]``.  Each one-sided rule only
removes, and on a smaller store removes at least as much, so any schedule
that applies both until neither removes anything reaches the same greatest
common fixpoint: applying both in each pass gives the status, final store
and removal set of alternating whole atmost and atleast runs, with the
removals in another order.

Each pass is the same straight steps on either kernel: the table's
``compute`` builds the prefix rows, the N rule narrows dom(N) by their end
rows, the suffix sides are chosen from the narrowed dom(N), the table's
``suffix`` builds them, and its ``unsupported`` checks the symbols.  So, as
the paper's atmost and atleast rules do, and as CostRegular narrows its
cost variable to the range of path costs before it filters arcs, a pass
bounds N by the full-string counters before it filters symbols against
dom(N).

The tables and the symbol checks run on one of two kernels, chosen once per
call: the Python kernels of :mod:`regcount.sweep`, or, for a store that
passes :func:`regcount.kernel.usable`, the compiled one of
:mod:`regcount.kernel`.  Both return the unsupported symbols in the same
order, and everything else (the ground scan, the N rule, the removals, the
pass loop and its stop rules) is this module's, so the status, the removals
and ``passes`` do not depend on the kernel.

Four skips save work and change no fixpoint.  First, every reachable
interval lies inside ``[least, greatest]``, the range of the full-string
counters, and after the N rule so does dom(N).  So, if dom(N) has no holes
(or they are ignored), the cheapest end can exceed max(dom(N)) only if
``greatest`` does, and the costliest end can fall below min(dom(N)) only
if ``least`` does.  A two-sided pass therefore builds the suffix rows of an
end only where dom(N) cuts into that range (both ends when exact's dom(N)
has holes), and a pass that builds neither removes no symbol: it ends after
its N rule.  Second, a pass whose dom(N) misses ``[least, greatest]`` fails
before it removes a value or reads a suffix row, so no semantics builds one
there.  Third, no pass checks a position whose domain is one symbol ``s``.
Through it, the interval of ``(i, next_state[q'][s'], s)`` contains that
of ``(i - 1, q', s')``, so any survivor at ``i - 1`` supports ``s``, end
by end.  At position 1 the interval is ``[least, greatest]``, which the
global check has already tested.  Fourth, a ground store, one symbol at
every position, has one word, so every built side's ``least`` and
``greatest`` is that word's counter ``c`` and the one end interval is
``[c, c]``.  Its one pass is one scan over the domains, which decides
groundness and runs the word through the automaton as it goes, then the N
rule, and it builds no table: the third skip leaves no position to check,
and a pass that removes no symbol ends the loop, so the status, the
removals and ``passes`` are those of a table-building pass.

A two-sided loop ends with a pass that removes no symbol.  The N rule reads
only prefix rows, which only symbol removals change, so the next pass would
build the same table, its N rule would keep dom(N) whole, and its symbol
loop would check the same symbols against the same dom(N).

A pass that removes a symbol ends the loop too when it certifies that the
next would remove nothing.  Only a pass that builds one suffix side can.
Take the min side; the max side is the mirror image, with costliest ends,
``greatest`` and min(dom(N)).  After the N rule, such a pass has min(dom(N))
= ``least`` and top = max(dom(N)) < ``greatest``.  Exact builds one side
only when dom(N) has no holes, and the decomposition ignores them, so the
pass removes a symbol iff every string through it costs more than top.  The
cheapest string through a survivor costs at most top, so it keeps all its
symbols.  The next pass therefore finds the same cheapest ends and the same
``least``, and while top stays it builds no max side and removes no symbol.
Every support the pass finds has a ``lo`` at most top, the counter of such a
surviving string, and ``least`` is one too.  Exact's N rule keeps the
counter of every surviving string, so exact certifies when every value of
dom(N) is ``least`` or a support's ``lo``: the next N rule then removes
nothing.  The decomposition's N rule keeps ``[least, greatest]``, so it
needs only top to be one: a surviving string then costs top, and the next
``greatest`` is at least top.

All propagators mutate one store and append every removal to its log.
``passes`` counts passes: one per atmost or atleast run and one per exact
or decomposition round.  A loop that ran until a pass removes nothing would
take one more pass after a pass that removes only N-values or certifies.
Every pass builds one table in full, except a ground store's, which builds
none.  On the Python kernels a table is one forward sweep, which builds
both prefix sides, and the suffix sweeps the pass needs: one for an atmost
or atleast run, and up to two for an exact or decomposition round.  So the
work of a call cannot be read off ``passes``; it has to be counted on its
own, at the one place a pass is seen, ``_on_pass``.  If it is set,
``_filter`` calls it as each pass ends, with the pass's table (``None`` for
the ground scan) and the removal log's length when the pass began.  The
table's class is the kernel, and its ``suffixes``, ``least``, ``greatest``
and the domains it was built from are on it; the N rule's counter removals
come first in the pass's part of the log.  A C table's arrays are the next
pass's too, so a reader must read the table while its pass ends, in the
call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .automaton import CounterDfa
from .domains import COUNTER_VAR, DomainStore, Instance, RemoveResult, project_store
from .signature import SignatureMap
from . import kernel
from .kernel import CTable
from .sweep import SweepTable

FIXPOINT = "fixpoint"
FAILED = "failed"


class Mode(str, enum.Enum):
    ATMOST = "atmost"
    ATLEAST = "atleast"
    EXACT = "exact"
    DECOMPOSED_EXACT = "decomposed"

    @property
    def semantics(self) -> "Mode":
        """The constraint this mode's propagator filters.

        ``DECOMPOSED_EXACT`` is a filtering algorithm for exact counting, not
        a semantics of its own, so it maps to ``EXACT``; every other mode maps
        to itself.
        """
        return Mode.EXACT if self is Mode.DECOMPOSED_EXACT else self


@dataclass
class PropagationOutcome:
    """What one propagator run did: its status, its removals in order, and its passes.

    Removal values are symbol ids, except after :func:`propagate_composite`,
    where they are native values and ``native_domains`` and
    ``counter_values`` hold the domains left after channeling.  On every
    other run those two fields are ``None``.
    """

    status: str
    removals: list[tuple[int | str, int]] = field(default_factory=list)
    passes: int = 0
    native_domains: list[list[int]] | None = None
    counter_values: list[int] | None = None

    @property
    def failed(self) -> bool:
        return self.status == FAILED


def propagate_atmost(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Domain-consistent filtering for ``c(X) <= N``; one pass, idempotent.

    Keeps the symbols whose cheapest completion is at most max(dom(N)) and
    the N-values at least the least full-string counter.
    """
    return _filter(dfa, store, Mode.ATMOST)


def propagate_atleast(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Domain-consistent filtering for ``c(X) >= N`` (mirror of atmost)."""
    return _filter(dfa, store, Mode.ATLEAST)


def propagate_exact(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Sound, incomplete filtering for ``c(X) == N``; loops to a fixpoint.

    Each pass first removes the N-values no end state's interval holds, then
    each symbol whose every reachable state's interval misses dom(N), until
    a pass removes no symbol or certifies that the next would remove nothing
    (see the module docstring).
    """
    return _filter(dfa, store, Mode.EXACT)


def propagate_decomposed(dfa: CounterDfa, store: DomainStore) -> PropagationOutcome:
    """Common fixpoint of the atmost and atleast rules: the baseline for exact.

    Two-sided passes that first keep the N-values in ``[least, greatest]``,
    then check each end of the interval on its own and ignore holes in
    dom(N), until a pass removes no symbol or certifies that the next would
    remove nothing (see the module docstring).  Sound for exact counting
    but weaker than :func:`propagate_exact`, whose removal set always
    contains this one's.
    """
    return _filter(dfa, store, Mode.DECOMPOSED_EXACT)


#: Per mode: the ends of the completion interval its rule bounds (cheapest,
#: costliest), and whether both must hold at one state.
_RULES = {
    Mode.ATMOST: (True, False, False),
    Mode.ATLEAST: (False, True, False),
    Mode.EXACT: (True, True, True),
    Mode.DECOMPOSED_EXACT: (True, True, False),
}


#: Called as each pass of :func:`_filter` ends, if set: see the module docstring.
_on_pass = None


def _n_rule(store: DomainStore, least: int | float, greatest: int | float, ends: list | None) -> bool:
    """Keep the N-values that some ``(lo, hi)`` of ``ends`` holds; False if none is left.

    ``ends`` holds the end states' intervals where both ends bind at one
    state (exact), each inside ``[least, greatest]``; it is ``None`` where
    ``[least, greatest]`` alone decides, and that is then the one interval,
    so a dom(N) inside it is kept without a scan.  A dom(N) that misses
    ``[least, greatest]`` is left as it is, and False is returned.  Removals
    are logged in ascending order.
    """
    counter = store.counter
    if not store.counter_has_between(least, greatest):
        return False
    if ends is None:
        if least <= counter[0] and counter[-1] <= greatest:
            return True
        ends = [(least, greatest)]
    for v in list(counter):
        for lo, hi in ends:
            if lo <= v <= hi:
                break
        else:
            store.remove_counter(v)
    return bool(counter)


def _ground_counter(dfa: CounterDfa, store: DomainStore) -> int | None:
    """The counter of a ground store's one word, else ``None``.

    One scan runs the word as it goes; it stops at the first position with
    no symbol or several.
    """
    nxt, inc = dfa.next_state, dfa.increment
    state, counter = dfa.start, 0
    for mask in store.domains:
        if not mask or mask & (mask - 1):
            return None
        sym = mask.bit_length() - 1
        counter += inc[state][sym]
        state = nxt[state][sym]
    return counter


def _filter(dfa: CounterDfa, store: DomainStore, mode: Mode) -> PropagationOutcome:
    """The interval rule for ``mode``, run to its fixpoint.

    A ground store takes one pass: one scan finds it ground and runs its
    word, the N rule is applied to the word's counter, and no table is
    built.  Every other store takes passes that each build a table, apply
    the N rule to its prefix rows and check the symbols, until a pass removes
    no symbol or certifies the fixpoint (see the module docstring).  A pass
    that builds no suffix side checks no symbol: it ends the loop after its
    N rule.
    """
    mark = len(store.removal_log)
    if not store.counter or not all(store.domains):
        return PropagationOutcome(FAILED, [], 0)
    min_side, max_side, joint = _RULES[mode]
    c = _ground_counter(dfa, store)
    if c is not None:
        # Every built side's least and greatest is the word's counter, so
        # exact's one end interval is [least, greatest], and no position has
        # a symbol to check (see the module docstring).
        least = c if min_side else -math.inf
        greatest = c if max_side else math.inf
        status = FIXPOINT if _n_rule(store, least, greatest, None) else FAILED
        if _on_pass is not None:
            _on_pass(dfa, store, None, mark)
        return PropagationOutcome(status, store.removal_log[mark:], 1)

    # A C table is a view over its thread's arrays, made once per call and
    # rebuilt in full by every pass.
    build = CTable(dfa, store, min_side, max_side).compute if kernel.usable(dfa, store) else SweepTable.compute
    passes, start = 0, mark
    while True:
        passes += 1
        # Every pass builds its table in full: the prefix half, then the N
        # rule on its end rows, then the suffix sides dom(N) can still bind.
        table = build(dfa, store)
        try:
            # An end the mode leaves open reads as unbounded.
            least = table.least if min_side else -math.inf
            greatest = table.greatest if max_side else math.inf
            # One-sided end intervals cover exactly [least, greatest]; two-sided
            # ones may leave gaps.  An unreachable end state's interval is empty.
            # A False return: dom(N) missed [least, greatest] and the N rule left
            # it as it was, or the N rule emptied it.
            if not _n_rule(store, least, greatest, table.ends() if joint else None):
                return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
            counter = store.counter
            bottom, top = counter[0], counter[-1]
            # An interval meets dom(N) iff it meets [bottom, top], unless both of
            # its ends are finite and dom(N) has holes.
            holes = joint and top - bottom >= len(counter)
            # A suffix side, (min, max), is built only where the narrowed dom(N)
            # can bind its end, both where exact's has holes (see the module
            # docstring).  An unbuilt side reads as unbounded, so with none built
            # no end binds, every symbol survives, and the pass is a fixpoint.
            sides = (True, True) if holes else (min_side and top < greatest, max_side and bottom > least)
            if not any(sides):
                return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)
            table.suffix(dfa, store, *sides)
            # The windows [floor, ceiling] an interval must meet, one loop each:
            # one window for both ends at once, or one per built end on its own.
            if joint:
                windows = [(bottom, top)]
            else:
                windows = [(-math.inf, top)] * sides[0] + [(bottom, math.inf)] * sides[1]
            # A pass of a two-sided mode that builds one suffix side records the
            # counter of each support it finds, the witnesses of its certificate.
            seen = set() if min_side and max_side and sides[0] != sides[1] else None
            unsupported = table.unsupported(dfa, store, windows, holes, seen)
            # The checks read the table, not the domains, so removing the pairs
            # now, in the loop's order, logs what removing each as it is found
            # would; a pair an earlier window removed is left unchanged.
            for i, sym in unsupported:
                if store.remove_symbol(i, sym) is RemoveResult.EMPTIED:
                    return PropagationOutcome(FAILED, store.removal_log[mark:], passes)
            # A pass that removes no symbol leaves the next one the same table
            # and nothing to remove; one pass is the one-sided rules' fixpoint;
            # a two-sided pass that builds one suffix side may certify that the
            # next one would remove nothing (see the module docstring).
            if not unsupported or not (min_side and max_side):
                return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)
            if seen is not None:
                # Each value (the decomposition's far end) is the bound end's
                # counter, near, or a witness.
                near, far = (least, top) if sides[0] else (greatest, bottom)
                if all(v == near or v in seen for v in (counter if joint else (far,))):
                    return PropagationOutcome(FIXPOINT, store.removal_log[mark:], passes)
        finally:
            # The pass ends, however it ends (see the module docstring).
            if _on_pass is not None:
                _on_pass(dfa, store, table, start)
                start = len(store.removal_log)


_PROPAGATORS = {
    Mode.ATMOST: propagate_atmost,
    Mode.ATLEAST: propagate_atleast,
    Mode.EXACT: propagate_exact,
    Mode.DECOMPOSED_EXACT: propagate_decomposed,
}


def propagate(dfa: CounterDfa, store: DomainStore, mode: str | Mode) -> PropagationOutcome:
    """Dispatch to the propagator for ``mode`` and run it to its fixpoint.

    An unknown ``mode`` raises ``ValueError``.
    """
    try:
        # A Mode member hashes and compares as its value, so a plain string
        # finds its entry too, without building ``Mode(mode)`` on every call.
        propagator = _PROPAGATORS[mode]
    except (KeyError, TypeError):
        raise ValueError(f"{mode!r} is not a valid Mode") from None
    return propagator(dfa, store)


def propagate_composite(
    dfa: CounterDfa,
    sig: SignatureMap,
    native_domains: list[list[int]],
    counter_values: list[int],
    mode: str | Mode,
) -> PropagationOutcome:
    """Propagate on projected symbol domains, then channel prunings back.

    One round suffices for a fixpoint: re-projecting the channeled native
    domains reproduces the propagated symbol domains exactly (a surviving
    symbol keeps a surviving pre-image, and pruned symbols lose all of
    theirs), so a second symbol-level run could remove nothing new.
    """
    natives = [set(dom) for dom in native_domains]
    store = project_store(dfa, sig, natives, counter_values)
    out = propagate(dfa, store, mode)
    removals: list[tuple[int | str, int]] = []
    for var, value in out.removals:
        if var == COUNTER_VAR:
            removals.append((COUNTER_VAR, value))
            continue
        for nv in sorted(sig.channel_back(var, [value], natives[var])):
            natives[var].discard(nv)
            removals.append((var, nv))
    return PropagationOutcome(out.status, removals, out.passes, [sorted(d) for d in natives], list(store.counter))


def propagate_instance(inst: Instance, mode: str | Mode | None = None) -> PropagationOutcome:
    """Run an instance's propagator, by default the one for the instance's mode.

    Removal values are symbol ids for plain instances and native integers for
    signature instances.
    """
    chosen = Mode(mode) if mode is not None else Mode(inst.mode)
    if inst.is_composite:
        assert inst.signature is not None and inst.native_domains is not None
        return propagate_composite(inst.dfa, inst.signature, inst.native_domains, inst.counter_values, chosen)
    return propagate(inst.dfa, inst.make_store(), chosen)
