"""Finite-domain store for a sequence of symbol variables plus one counter variable.

Sequence-variable domains are bitmasks over the automaton alphabet, and a
mask holds alphabet bits only: a store is checked once, when it is built,
and a domain that names a symbol outside the alphabet raises
``ValueError``.  The counter domain is an explicit sorted list of
nonnegative integers because the exact-counting rule intersects intervals
with it and must see holes.  Every removal is appended to ``removal_log``,
so a propagator's removals can be listed and counted.  Masks are decoded in
one place, a cache of at most ``SYMBOL_CACHE_SIZE`` masks emptied when full.
"""

from __future__ import annotations

import enum
import json
import os
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import index
from typing import Iterable, Sequence

from .automaton import (CounterDfa, MalformedAutomaton, automaton_from_json, automaton_to_json, is_int, load_automaton,
                        read_json)
from .signature import SignatureMap, among_signature

#: Variable key used for the counter variable in removal-log entries.
COUNTER_VAR = "N"


class RemoveResult(enum.Enum):
    UNCHANGED = "unchanged"
    CHANGED = "changed"
    EMPTIED = "emptied"


def _mask(symbols: Iterable[int]) -> int:
    """The bitmask of ``symbols``, an int: each id is read with ``operator.index``.

    Shifting by a numpy integer would make a 64-bit numpy mask: symbol 63
    would make it negative, and one of 64 or more would vanish from it.
    """
    mask = 0
    for s in symbols:
        mask |= 1 << index(s)
    return mask


#: Most domain masks whose symbol tuples are kept.
SYMBOL_CACHE_SIZE = 1024


class _SymbolTuples(dict):
    """Domain mask -> ascending symbol ids, emptied when it reaches its bound."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        if len(self) >= SYMBOL_CACHE_SIZE:
            self.clear()
        syms = self[mask] = tuple(s for s in range(mask.bit_length()) if mask >> s & 1)
        return syms


_symbol_tuples = _SymbolTuples()


class DomainStore:
    """Mutable domains for ``x_1 .. x_n`` and the counter variable ``N``.

    A store holds Python ints however it is built: each symbol id and
    N-value is read with ``operator.index``, as :meth:`SignatureMap.project`
    reads the symbol ids of a projected mask, so numpy integers become ints
    and a float raises ``TypeError`` here, not in a kernel.
    """

    __slots__ = ("domains", "counter", "removal_log")

    def __init__(self, alphabet_size: int, var_domains: Sequence[Iterable[int]], counter_values: Iterable[int]):
        self.domains: list[int] = [_mask(d) for d in var_domains]
        if max(self.domains, default=0) >> alphabet_size:
            raise ValueError(f"a domain names a symbol outside the alphabet of {alphabet_size} symbols")
        self.counter: list[int] = sorted(set(map(index, counter_values)))
        self.removal_log: list[tuple[int | str, int]] = []

    # -- sequence variables -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.domains)

    def symbols(self, i: int) -> list[int]:
        """Symbol ids in dom(x_i), ascending."""
        return list(_symbol_tuples[self.domains[i]])

    def symbol_tuples(self) -> list[tuple[int, ...]]:
        """Per-position symbol tuples, as :meth:`symbols` lists them; built once per propagator pass."""
        cache = _symbol_tuples
        return [cache[d] for d in self.domains]

    def remove_symbol(self, i: int, sym: int) -> RemoveResult:
        bit = 1 << sym
        if not self.domains[i] & bit:
            return RemoveResult.UNCHANGED
        self.domains[i] &= ~bit
        self.removal_log.append((i, sym))
        return RemoveResult.EMPTIED if self.domains[i] == 0 else RemoveResult.CHANGED

    def assign_symbol(self, i: int, sym: int) -> None:
        """Branching helper: reduce dom(x_i) to {sym}, logging the removals.

        One mask write clears every other symbol; the log gets one ``(i, s)``
        entry per cleared symbol, in ascending order, as :meth:`remove_symbol`
        would have logged them one by one.  A ``sym`` not in dom(x_i) leaves
        none of its symbols.
        """
        others = self.domains[i] & ~(1 << sym)
        if others:
            self.domains[i] &= ~others
            self.removal_log.extend([(i, s) for s in _symbol_tuples[others]])

    # -- counter variable ----------------------------------------------------

    def counter_has_between(self, lo, hi) -> bool:
        """True iff some counter value v satisfies lo <= v <= hi (holes respected)."""
        i = bisect_left(self.counter, lo)
        return i < len(self.counter) and self.counter[i] <= hi

    def remove_counter(self, value: int) -> RemoveResult:
        i = bisect_left(self.counter, value)
        if i >= len(self.counter) or self.counter[i] != value:
            return RemoveResult.UNCHANGED
        del self.counter[i]
        self.removal_log.append((COUNTER_VAR, value))
        return RemoveResult.EMPTIED if not self.counter else RemoveResult.CHANGED

    def assign_counter(self, value: int) -> None:
        for other in list(self.counter):
            if other != value:
                self.remove_counter(other)

    # -- whole-store helpers ---------------------------------------------

    def copy(self) -> "DomainStore":
        dup = DomainStore.__new__(DomainStore)
        dup.domains = list(self.domains)
        dup.counter = list(self.counter)
        dup.removal_log = list(self.removal_log)
        return dup

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomainStore):
            return NotImplemented
        return self.domains == other.domains and self.counter == other.counter

    def __repr__(self) -> str:
        doms = ["{" + ",".join(map(str, self.symbols(i))) + "}" for i in range(self.n)]
        return f"DomainStore(x={doms}, N={self.counter})"


def project_store(
    dfa: CounterDfa, sig: SignatureMap, native_domains: Sequence[Iterable[int]], counter_values: Iterable[int]
) -> DomainStore:
    """Symbol-level store whose dom(x_i) holds the signature images of native dom(x_i)."""
    store = DomainStore(dfa.num_symbols, [], counter_values)
    store.domains = [sig.project(i, dom) for i, dom in enumerate(native_domains)]
    if max(store.domains, default=0) >> dfa.num_symbols:
        raise ValueError(f"a signature maps a value to a symbol outside the alphabet of {dfa.num_symbols} symbols")
    return store


@dataclass
class Instance:
    """A counting-constraint instance: automaton, domains, counter domain, mode.

    Plain instances hold per-position symbol-id domains in ``var_domains``.
    Instances with a signature instead hold integer ``native_domains`` plus a
    per-position value-to-symbol map; the propagators then run on the
    projected symbol domains and channel prunings back (see
    :func:`regcount.propagators.propagate_composite`).
    """

    dfa: CounterDfa
    mode: str
    var_domains: list[list[int]] = field(default_factory=list)
    counter_values: list[int] = field(default_factory=list)
    signature: SignatureMap | None = None
    native_domains: list[list[int]] | None = None
    name: str = ""

    MODES = ("atmost", "atleast", "exact")

    @property
    def is_composite(self) -> bool:
        return self.signature is not None

    @property
    def n(self) -> int:
        return len(self.native_domains) if self.is_composite else len(self.var_domains)

    def make_store(self) -> DomainStore:
        """Fresh symbol-level store (projected through the signature if any)."""
        if self.is_composite:
            assert self.signature is not None and self.native_domains is not None
            return project_store(self.dfa, self.signature, self.native_domains, self.counter_values)
        return DomainStore(self.dfa.num_symbols, self.var_domains, self.counter_values)


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------
#
# {
#   "automaton": {...} | "relative/path.json",
#   "vars": [["a", "b"], ["a"]],            // symbol names, or ints with a signature
#   "counter": [0, 1, 2],
#   "mode": "atmost" | "atleast" | "exact",
#   "signature": [{"1": "in", ...}, ...]    // optional: per-position maps,
#                | {"set": [2, 5]}          //   or the membership shorthand
#   "name": "family-label"                  // optional, used by bench
# }


class MalformedInstance(ValueError):
    """An instance document is structurally invalid."""


def symbol_ids(dfa: CounterDfa, names: Iterable) -> list[int]:
    """Alphabet ids of ``names``, in order; an unknown name raises MalformedInstance."""
    try:
        return [dfa.symbol_id(str(name)) for name in names]
    except KeyError as exc:
        raise MalformedInstance(exc.args[0]) from None


def instance_from_json(doc: dict, base_dir: str = ".") -> Instance:
    if not isinstance(doc, dict):
        raise MalformedInstance("instance document must be a JSON object")
    for key in ("automaton", "vars", "counter", "mode"):
        if key not in doc:
            raise MalformedInstance(f"missing field {key!r}")
    auto = doc["automaton"]
    if isinstance(auto, str):
        if "\0" in auto:  # open() would raise a plain ValueError
            raise MalformedInstance("'automaton' path must not contain a NUL character")
        dfa = load_automaton(os.path.join(base_dir, auto))
    else:
        dfa = automaton_from_json(auto)
    mode = doc["mode"]
    if mode not in Instance.MODES:
        raise MalformedInstance(f"mode must be one of {Instance.MODES}, got {mode!r}")
    counter = doc["counter"]
    if not isinstance(counter, list) or not counter or any(not is_int(v) or v < 0 for v in counter):
        raise MalformedInstance("'counter' must be a nonempty array of nonnegative integers")
    raw_vars = doc["vars"]
    if not isinstance(raw_vars, list) or any(not isinstance(d, list) or not d for d in raw_vars):
        raise MalformedInstance("'vars' must be an array of nonempty arrays")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise MalformedInstance("'name' must be a string")

    if "signature" in doc:
        if not all(is_int(v) for dom in raw_vars for v in dom):
            raise MalformedInstance("'vars' of a signature instance must hold integers")
        native = [list(dom) for dom in raw_vars]
        sig = _signature_from_json(doc["signature"], dfa, native)
        inst = Instance(dfa=dfa, mode=mode, counter_values=sorted(set(counter)),
                        signature=sig, native_domains=native, name=name)
    else:
        var_domains = [sorted(set(symbol_ids(dfa, dom))) for dom in raw_vars]
        inst = Instance(dfa=dfa, mode=mode, var_domains=var_domains,
                        counter_values=sorted(set(counter)), name=name)
    return inst


#: A signature key: JSON object keys are strings, so native value 5 is "5".
_INT_KEY = re.compile(r"-?[0-9]+")


def _signature_from_json(block, dfa: CounterDfa, native_domains: list[list[int]]) -> SignatureMap:
    if isinstance(block, dict) and "set" in block:
        members = block["set"]
        if not isinstance(members, list) or not all(is_int(v) for v in members):
            raise MalformedInstance("'signature.set' must be an array of integers")
        try:
            return among_signature(dfa, set(members), native_domains)
        except KeyError as exc:
            raise MalformedInstance(exc.args[0]) from None
    if isinstance(block, list):
        if len(block) != len(native_domains):
            raise MalformedInstance("signature must list one map per position")
        maps = []
        for i, m in enumerate(block):
            if not isinstance(m, dict):
                raise MalformedInstance(f"signature entry {i} must be an object")
            bad = [v for v in m if not (isinstance(v, str) and _INT_KEY.fullmatch(v))]
            if bad:
                raise MalformedInstance(f"signature entry {i}: keys {bad} are not integers")
            values = [int(v) for v in m]
            if len(set(values)) != len(values):
                same = [key for key, v in zip(m, values) if values.count(v) > 1]
                raise MalformedInstance(f"signature entry {i}: keys {same} name the same integer")
            maps.append(dict(zip(values, symbol_ids(dfa, m.values()))))
        sig = SignatureMap(maps)
        for i, dom in enumerate(native_domains):
            missing = [v for v in dom if v not in sig.maps[i]]
            if missing:
                raise MalformedInstance(f"signature at position {i + 1} does not cover values {missing}")
        return sig
    raise MalformedInstance("'signature' must be a per-position array of maps or a {'set': [...]} shorthand")


def instance_to_json(inst: Instance) -> dict:
    doc: dict = {"automaton": automaton_to_json(inst.dfa), "mode": inst.mode, "counter": list(inst.counter_values)}
    if inst.is_composite:
        assert inst.signature is not None and inst.native_domains is not None
        doc["vars"] = [list(d) for d in inst.native_domains]
        doc["signature"] = [
            {str(v): inst.dfa.alphabet[s] for v, s in sorted(m.items())} for m in inst.signature.maps
        ]
    else:
        doc["vars"] = [[inst.dfa.alphabet[s] for s in dom] for dom in inst.var_domains]
    if inst.name:
        doc["name"] = inst.name
    return doc


def load_instance(path: str) -> Instance:
    """Read an instance JSON file, or stdin for ``"-"``, as :func:`regcount.automaton.read_json` reads it.

    An automaton path inside it is relative to the file's directory, or to
    the working directory for stdin.  A malformed instance or automaton
    raises MalformedInstance, with an automaton's error prefixed by the
    source: the path, or ``stdin``.
    """
    doc = read_json(path, MalformedInstance)
    try:
        return instance_from_json(doc, base_dir=os.path.dirname(path) or ".")
    except MalformedAutomaton as exc:
        raise MalformedInstance(f"{'stdin' if path == '-' else path}: {exc}") from None


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
