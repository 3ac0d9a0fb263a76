"""Counter automata: complete DFAs whose transitions increment a single counter.

A :class:`CounterDfa` is a deterministic finite automaton with a total
transition function in which every state is accepting and every transition
additionally adds a nonnegative amount to a counter that starts at zero.
Running one on a word therefore never rejects; it just lands in a state and
produces a counter value.  That counter is what the counting constraints in
:mod:`regcount.propagators` talk about.

Counters are exact integers.  Increments stay validated at ``<= U64_MAX``,
which keeps every sum far below the float range, so ``inf + x`` in the
sentinel arithmetic of :mod:`regcount.sweep` stays valid.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

U64_MAX = 2**64 - 1

#: Catalog keys accepted by :func:`catalog`.
CATALOG_NAMES = ("AAB", "AMONG", "RST", "B")


def is_int(value) -> bool:
    """True for an integer that is not a ``bool`` (JSON ``true`` is no count)."""
    return isinstance(value, int) and not isinstance(value, bool)


class MalformedAutomaton(ValueError):
    """An automaton violates a structural invariant (raised with a locus)."""


class UnknownAutomaton(KeyError):
    """Requested catalog name does not exist."""


@lru_cache(maxsize=64)
def _default_names(num_states: int) -> tuple[str, ...]:
    """``q0``, ``q1``, ...: one tuple shared by every automaton of this size."""
    return tuple(f"q{i}" for i in range(num_states))


@lru_cache(maxsize=64)
def _all_accepting(num_states: int) -> tuple[bool, ...]:
    return (True,) * num_states


@dataclass(frozen=True)
class RunResult:
    """State and counter value after consuming a word."""

    end_state: int
    counter: int


@dataclass(frozen=True)
class CounterDfa:
    """A complete deterministic counter automaton.

    ``next_state[q][s]`` and ``increment[q][s]`` are dense tables indexed by
    state id and symbol id, so a transition lookup is O(1).  ``accepting`` is
    carried only as input to :func:`lift_accepting`; the propagators treat
    every state as accepting.
    """

    num_states: int
    alphabet: tuple[str, ...]
    start: int
    next_state: tuple[tuple[int, ...], ...]
    increment: tuple[tuple[int, ...], ...]
    accepting: tuple[bool, ...] = ()
    state_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "next_state", tuple(tuple(r) for r in self.next_state))
        object.__setattr__(self, "increment", tuple(tuple(r) for r in self.increment))
        if not self.accepting:
            object.__setattr__(self, "accepting", _all_accepting(self.num_states))
        else:
            object.__setattr__(self, "accepting", tuple(bool(b) for b in self.accepting))
        if not self.state_names:
            object.__setattr__(self, "state_names", _default_names(self.num_states))
        else:
            object.__setattr__(self, "state_names", tuple(self.state_names))

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)

    def symbol_id(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise KeyError(f"unknown symbol {name!r}; alphabet is {list(self.alphabet)}") from None


def validate(dfa: CounterDfa) -> None:
    """Check every structural invariant, raising MalformedAutomaton on the first violation.

    Checks: positive state count, nonempty alphabet, symbol and state names
    distinct nonempty strings, start state in range, both tables total and in
    range, increments in ``[0, U64_MAX]``, flag/name vectors of the right length.
    """
    if dfa.num_states <= 0:
        raise MalformedAutomaton("automaton must have at least one state")
    if dfa.num_symbols == 0:
        raise MalformedAutomaton("alphabet must be nonempty")
    if len(dfa.state_names) != dfa.num_states:
        raise MalformedAutomaton("state names must have one entry per state")
    for kind, names in (("alphabet", dfa.alphabet), ("state", dfa.state_names)):
        if any(not isinstance(name, str) or not name for name in names):
            raise MalformedAutomaton(f"{kind} names must be nonempty strings")
        if len(set(names)) != len(names):
            raise MalformedAutomaton(f"{kind} names must be distinct")
    if not is_int(dfa.start) or not 0 <= dfa.start < dfa.num_states:
        raise MalformedAutomaton(f"start state {dfa.start} out of range")
    if len(dfa.next_state) != dfa.num_states or len(dfa.increment) != dfa.num_states:
        raise MalformedAutomaton("transition tables must have one row per state")
    for q in range(dfa.num_states):
        if len(dfa.next_state[q]) != dfa.num_symbols or len(dfa.increment[q]) != dfa.num_symbols:
            raise MalformedAutomaton(f"state {q}: transition row must cover the whole alphabet")
        for s in range(dfa.num_symbols):
            t = dfa.next_state[q][s]
            if not is_int(t) or not 0 <= t < dfa.num_states:
                raise MalformedAutomaton(f"transition ({q}, {dfa.alphabet[s]!r}): target {t!r} out of range")
            inc = dfa.increment[q][s]
            if not is_int(inc) or inc < 0:
                raise MalformedAutomaton(f"transition ({q}, {dfa.alphabet[s]!r}): increment must be a nonnegative integer")
            if inc > U64_MAX:
                raise MalformedAutomaton(f"transition ({q}, {dfa.alphabet[s]!r}): increment exceeds 64-bit range")
    if len(dfa.accepting) != dfa.num_states:
        raise MalformedAutomaton("accepting flags must have one entry per state")


def run(dfa: CounterDfa, word: Iterable[int | str]) -> RunResult:
    """Consume ``word`` from the start state and return the final state and counter.

    Symbols may be given as ids or as alphabet names (so a plain string works
    for single-character alphabets).  The empty word yields ``(start, 0)``.
    """
    state = dfa.start
    counter = 0
    nxt, inc = dfa.next_state, dfa.increment
    for sym in word:
        s = sym if isinstance(sym, int) else dfa.symbol_id(sym)
        counter += inc[state][s]
        state = nxt[state][s]
    return RunResult(state, counter)


def build_subset_sum_dfa(values: Sequence[int]) -> CounterDfa:
    """One-state automaton whose counter adds up the values it reads.

    The alphabet is one symbol per distinct value (named by the value) plus a
    ``"0"`` symbol with increment zero.  Reading value symbols in any order
    sums them, so pairing position ``i`` with domain ``{0, values[i]}`` turns
    a subset-sum question into an exact counting constraint.
    """
    if not values:
        raise ValueError("values must be nonempty")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    distinct: list[int] = []
    for v in values:
        if v not in distinct:
            distinct.append(v)
    alphabet = tuple(str(v) for v in distinct) + ("0",)
    increments = tuple(distinct) + (0,)
    dfa = CounterDfa(
        num_states=1,
        alphabet=alphabet,
        start=0,
        next_state=((0,) * len(alphabet),),
        increment=(increments,),
    )
    validate(dfa)
    return dfa


def lift_accepting(dfa: CounterDfa, penalty: int) -> CounterDfa:
    """Fold accepting flags into counter increments via an end-of-string symbol.

    Returns an automaton with one extra state and an extra ``"$"`` symbol.
    Reading ``$`` moves to the new state at cost 0 from accepting states and
    at cost ``penalty`` from non-accepting ones; afterwards every symbol
    self-loops at cost 0 so the transition function stays total.  All states
    of the result are accepting.  Callers append ``$`` to their sequences, so
    a word accepted by the original automaton keeps its counter value and a
    rejected one pays exactly ``penalty`` on top.  ``penalty`` is an increment:
    an int, not a bool, in ``1..U64_MAX``; any other raises ``ValueError``,
    whether or not a state pays it.
    """
    if type(penalty) is not int or not 1 <= penalty <= U64_MAX:
        raise ValueError(f"penalty must be an integer in 1..{U64_MAX}; got {penalty!r}")
    validate(dfa)
    if "$" in dfa.alphabet:
        raise MalformedAutomaton("alphabet already contains the end-of-string symbol '$'")
    q_end = dfa.num_states
    alphabet = dfa.alphabet + ("$",)
    next_state = [list(row) + [q_end] for row in dfa.next_state]
    increment = [list(row) + [0 if dfa.accepting[q] else penalty] for q, row in enumerate(dfa.increment)]
    next_state.append([q_end] * len(alphabet))
    increment.append([0] * len(alphabet))
    lifted = CounterDfa(
        num_states=dfa.num_states + 1,
        alphabet=alphabet,
        start=dfa.start,
        next_state=tuple(tuple(r) for r in next_state),
        increment=tuple(tuple(r) for r in increment),
        state_names=dfa.state_names + ("qend",),
    )
    validate(lifted)
    return lifted


def _transitions(arcs: dict[tuple[str, str], tuple[str, int]], states: Sequence[str], alphabet: Sequence[str], start: str) -> CounterDfa:
    index = {name: i for i, name in enumerate(states)}
    nxt = [[0] * len(alphabet) for _ in states]
    inc = [[0] * len(alphabet) for _ in states]
    for (q, sym), (t, delta) in arcs.items():
        nxt[index[q]][alphabet.index(sym)] = index[t]
        inc[index[q]][alphabet.index(sym)] = delta
    return CounterDfa(
        num_states=len(states),
        alphabet=tuple(alphabet),
        start=index[start],
        next_state=tuple(tuple(r) for r in nxt),
        increment=tuple(tuple(r) for r in inc),
        state_names=tuple(states),
    )


def _make_aab() -> CounterDfa:
    # Counts occurrences of the word "aab": +1 on the b-transition out of
    # the state that has just seen "aa".
    return _transitions(
        {
            ("eps", "a"): ("a", 0),
            ("eps", "b"): ("eps", 0),
            ("a", "a"): ("aa", 0),
            ("a", "b"): ("eps", 0),
            ("aa", "a"): ("aa", 0),
            ("aa", "b"): ("eps", 1),
        },
        states=("eps", "a", "aa"),
        alphabet=("a", "b"),
        start="eps",
    )


def _make_among() -> CounterDfa:
    # One state over the two signature symbols of a membership test; counts
    # how many positions fall inside the reference set.
    return _transitions(
        {("i", "in"): ("i", 1), ("i", "notin"): ("i", 0)},
        states=("i",),
        alphabet=("in", "notin"),
        start="i",
    )


def _make_rst() -> CounterDfa:
    # Six states over {r, s, t} with non-unit increments: +1 entering "r"
    # from scratch, +2 on the two r-transitions into "rrtr".
    return _transitions(
        {
            ("eps", "r"): ("r", 1),
            ("eps", "s"): ("eps", 0),
            ("eps", "t"): ("eps", 0),
            ("r", "r"): ("rr", 0),
            ("r", "s"): ("eps", 0),
            ("r", "t"): ("eps", 0),
            ("rr", "r"): ("rr", 0),
            ("rr", "s"): ("rrs", 0),
            ("rr", "t"): ("rrt", 0),
            ("rrt", "r"): ("rrtr", 2),
            ("rrt", "s"): ("rrs", 0),
            ("rrt", "t"): ("rrt", 0),
            ("rrs", "r"): ("rrtr", 2),
            ("rrs", "s"): ("eps", 0),
            ("rrs", "t"): ("eps", 0),
            ("rrtr", "r"): ("rr", 0),
            ("rrtr", "s"): ("r", 0),
            ("rrtr", "t"): ("rrtr", 0),
        },
        states=("eps", "r", "rr", "rrt", "rrs", "rrtr"),
        alphabet=("r", "s", "t"),
        start="eps",
    )


def _make_b() -> CounterDfa:
    # Two states over {1, 2}; the only increment is the 2-self-loop on q.
    return _transitions(
        {
            ("eps", "1"): ("q", 0),
            ("eps", "2"): ("q", 0),
            ("q", "1"): ("eps", 0),
            ("q", "2"): ("q", 1),
        },
        states=("eps", "q"),
        alphabet=("1", "2"),
        start="eps",
    )


_CATALOG = {"AAB": _make_aab, "AMONG": _make_among, "RST": _make_rst, "B": _make_b}


def catalog(name: str) -> CounterDfa:
    """Return one of the built-in example automata by name (see CATALOG_NAMES)."""
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownAutomaton(f"unknown automaton {name!r}; choose from {', '.join(CATALOG_NAMES)}") from None
    return builder()


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------
#
# {
#   "states": 3,
#   "alphabet": ["a", "b"],
#   "start": 0,
#   "accepting": [0, 1, 2],          // optional, default: all states
#   "names": ["eps", "a", "aa"],     // optional, default: q0, q1, ...
#   "transitions": [{"from": 0, "symbol": "a", "to": 1, "inc": 0}, ...]
# }
#
# Every (state, symbol) pair must appear exactly once.


def automaton_to_json(dfa: CounterDfa) -> dict:
    """Plain-dict form of an automaton, inverse of :func:`automaton_from_json`."""
    transitions = [
        {"from": q, "symbol": dfa.alphabet[s], "to": dfa.next_state[q][s], "inc": dfa.increment[q][s]}
        for q in range(dfa.num_states)
        for s in range(dfa.num_symbols)
    ]
    doc: dict = {
        "states": dfa.num_states,
        "alphabet": list(dfa.alphabet),
        "start": dfa.start,
        "transitions": transitions,
    }
    if not all(dfa.accepting):
        doc["accepting"] = [q for q in range(dfa.num_states) if dfa.accepting[q]]
    if dfa.state_names != tuple(f"q{i}" for i in range(dfa.num_states)):
        doc["names"] = list(dfa.state_names)
    return doc


def automaton_from_json(doc: dict) -> CounterDfa:
    """Build and validate an automaton from its dict form.

    Rejects duplicate or missing (state, symbol) cells, unknown symbols,
    out-of-range states and non-integer numbers (``true`` and ``"0"``
    included) with a MalformedAutomaton naming the offending field or cell.
    """
    if not isinstance(doc, dict):
        raise MalformedAutomaton("automaton document must be a JSON object")
    try:
        num_states = doc["states"]
        alphabet = doc["alphabet"]
        start = doc["start"]
        transitions = doc["transitions"]
    except KeyError as exc:
        raise MalformedAutomaton(f"missing field {exc.args[0]!r}") from None
    if not is_int(num_states) or num_states <= 0:
        raise MalformedAutomaton("'states' must be a positive integer")
    if not isinstance(alphabet, list) or not alphabet or any(not isinstance(a, str) for a in alphabet):
        raise MalformedAutomaton("'alphabet' must be a nonempty array of strings")
    if not isinstance(transitions, list):
        raise MalformedAutomaton("'transitions' must be an array of objects")
    symbol_index = {name: i for i, name in enumerate(alphabet)}
    if len(symbol_index) != len(alphabet):
        raise MalformedAutomaton("alphabet names must be distinct")
    if len(transitions) < num_states * len(alphabet):
        # Checked before the tables are allocated, so a huge 'states' costs nothing.
        raise MalformedAutomaton(f"missing transitions: {num_states} states x {len(alphabet)} symbols "
                                 f"need {num_states * len(alphabet)} entries, got {len(transitions)}")
    nxt: list[list] = [[None] * len(alphabet) for _ in range(num_states)]
    inc: list[list] = [[None] * len(alphabet) for _ in range(num_states)]
    for entry in transitions:
        try:
            q, sym, t, delta = entry["from"], entry["symbol"], entry["to"], entry["inc"]
        except (KeyError, TypeError):
            raise MalformedAutomaton(f"bad transition entry {entry!r}") from None
        if not is_int(q) or not 0 <= q < num_states:
            raise MalformedAutomaton(f"transition source {q!r} out of range")
        if not isinstance(sym, str) or sym not in symbol_index:
            raise MalformedAutomaton(f"transition symbol {sym!r} not in alphabet")
        s = symbol_index[sym]
        if nxt[q][s] is not None:
            raise MalformedAutomaton(f"duplicate transition for state {q}, symbol {sym!r}")
        nxt[q][s] = t
        inc[q][s] = delta
    for q in range(num_states):
        for s, t in enumerate(nxt[q]):
            if t is None:
                raise MalformedAutomaton(f"missing transition for state {q}, symbol {alphabet[s]!r}")
    accepting: tuple[bool, ...] = ()
    if "accepting" in doc:
        marked = doc["accepting"]
        if not isinstance(marked, list) or any(not is_int(q) or not 0 <= q < num_states for q in marked):
            raise MalformedAutomaton("'accepting' must be an array of state ids")
        accepting = tuple(q in set(marked) for q in range(num_states))
    names: tuple[str, ...] = ()
    if "names" in doc:
        if not isinstance(doc["names"], list) or len(doc["names"]) != num_states:
            raise MalformedAutomaton("'names' must be an array with one entry per state")
        names = tuple(doc["names"])
    dfa = CounterDfa(
        num_states=num_states,
        alphabet=tuple(alphabet),
        start=start,
        next_state=tuple(tuple(row) for row in nxt),
        increment=tuple(tuple(row) for row in inc),
        accepting=accepting,
        state_names=names,
    )
    validate(dfa)
    return dfa


def read_json(path: str, error: type[ValueError] = MalformedAutomaton):
    """The JSON document in the UTF-8 file ``path``, or on stdin when ``path`` is ``"-"``.

    The package reads every JSON input here, as strict UTF-8 bytes, so stdin
    decodes as a file does whatever the locale.  Bytes that are not UTF-8,
    bad syntax and nesting past the recursion limit raise ``error`` with one
    line naming the source (``stdin`` for ``"-"``); a file that cannot be
    opened raises ``OSError``.
    """
    with nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
            raise error(f"{'stdin' if path == '-' else path}: not valid JSON ({exc})") from None


def load_automaton(path: str) -> CounterDfa:
    """Read an automaton JSON file, or stdin for ``"-"``; raises MalformedAutomaton on bad content."""
    return automaton_from_json(read_json(path))
