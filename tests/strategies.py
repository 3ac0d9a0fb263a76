"""Shared hypothesis strategies: small random automata, stores and words."""

from __future__ import annotations

import hypothesis.strategies as st

from regcount import CounterDfa, DomainStore, validate

_LETTERS = "abcd"


@st.composite
def cdfas(draw, max_states: int = 4, max_symbols: int = 3, max_increment: int = 2, increments=None) -> CounterDfa:
    """Random valid automata; ``increments`` (a strategy) overrides ``0..max_increment``."""
    num_states = draw(st.integers(1, max_states))
    num_symbols = draw(st.integers(1, max_symbols))
    cell = st.integers(0, num_states - 1)
    inc = st.integers(0, max_increment) if increments is None else increments
    dfa = CounterDfa(
        num_states=num_states,
        alphabet=tuple(_LETTERS[:num_symbols]),
        start=draw(cell),
        next_state=tuple(tuple(draw(cell) for _ in range(num_symbols)) for _ in range(num_states)),
        increment=tuple(tuple(draw(inc) for _ in range(num_symbols)) for _ in range(num_states)),
    )
    validate(dfa)
    return dfa


@st.composite
def dfa_store_pairs(
    draw,
    max_states: int = 4,
    max_symbols: int = 3,
    max_n: int = 4,
    min_n: int = 0,
    max_counter: int = 8,
    max_increment: int = 2,
    increments=None,
) -> tuple[CounterDfa, DomainStore]:
    dfa = draw(cdfas(max_states, max_symbols, max_increment, increments))
    n = draw(st.integers(min_n, max_n))
    symbol = st.integers(0, dfa.num_symbols - 1)
    domains = [draw(st.sets(symbol, min_size=1)) for _ in range(n)]
    counter = draw(st.sets(st.integers(0, max_counter), min_size=1))
    return dfa, DomainStore(dfa.num_symbols, domains, counter)


@st.composite
def dfa_word_pairs(draw, max_states: int = 4, max_symbols: int = 3, max_len: int = 6):
    dfa = draw(cdfas(max_states, max_symbols))
    word = draw(st.lists(st.integers(0, dfa.num_symbols - 1), max_size=max_len))
    return dfa, word
