"""Unary signature channeling: per-position maps from native values to symbols.

A signature lets the automaton run over symbols computed from each position's
native integer value (e.g. "is the value in the reference set").  Because the
map at each position depends on that position alone, the combined network of
one counting constraint and the per-position maps stays Berge-acyclic, so
propagating to fixpoint on the symbol side and channeling removals back gives
domain consistency on the native side as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence


@dataclass(frozen=True)
class SignatureMap:
    """One value-to-symbol-id dict per position, total on that position's universe."""

    maps: tuple[dict[int, int], ...]

    def __init__(self, maps: Sequence[dict[int, int]]):
        object.__setattr__(self, "maps", tuple(dict(m) for m in maps))

    def symbol_of(self, i: int, value: int) -> int:
        try:
            return self.maps[i][value]
        except KeyError:
            raise KeyError(f"position {i + 1}: native value {value} has no signature mapping") from None

    def project(self, i: int, native: Iterable[int]) -> int:
        """Bitmask of symbols hit by some native value at position i; each id is read with ``operator.index``."""
        mask = 0
        for v in native:
            mask |= 1 << index(self.symbol_of(i, v))
        return mask

    def channel_back(self, i: int, pruned_symbols: Iterable[int], native: Iterable[int]) -> list[int]:
        """Native values at position i whose image symbol was pruned."""
        pruned = set(pruned_symbols)
        return [v for v in native if self.symbol_of(i, v) in pruned]


def among_signature(dfa, members: set[int], native_domains: Sequence[Iterable[int]]) -> SignatureMap:
    """Membership signature: value maps to "in" when it lies in ``members``, else "notin".

    The automaton must name both symbols; each position's universe is taken
    from its native domain.
    """
    sym_in = dfa.symbol_id("in")
    sym_notin = dfa.symbol_id("notin")
    maps = [{v: (sym_in if v in members else sym_notin) for v in dom} for dom in native_domains]
    return SignatureMap(maps)
