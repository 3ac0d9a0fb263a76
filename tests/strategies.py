"""Shared hypothesis strategies: small random automata, stores and words."""

from __future__ import annotations

import hypothesis.strategies as st

from regcount import U64_MAX, CounterDfa, DomainStore, SignatureMap, validate

_LETTERS = "abcd"

#: Small increments mixed with ones near U64_MAX, so that some counters pass
#: U64_MAX; an ``increments`` strategy for :func:`cdfas` and :func:`dfa_store_pairs`.
NEAR_U64_MAX = st.one_of(st.integers(0, 2), st.integers(U64_MAX - 2, U64_MAX), st.integers(U64_MAX // 12 - 1, U64_MAX // 11))


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


@st.composite
def signature_instances(draw, max_states: int = 4, max_symbols: int = 3, max_n: int = 4, max_value: int = 5,
                        max_counter: int = 8):
    """(dfa, SignatureMap, native domains, counter values); native domains may repeat a value."""
    dfa = draw(cdfas(max_states, max_symbols))
    n = draw(st.integers(0, max_n))
    natives = [draw(st.lists(st.integers(0, max_value), min_size=1, max_size=4)) for _ in range(n)]
    symbol = st.integers(0, dfa.num_symbols - 1)
    sig = SignatureMap([{v: draw(symbol) for v in sorted(set(dom))} for dom in natives])
    counter = sorted(draw(st.sets(st.integers(0, max_counter), min_size=1)))
    return dfa, sig, natives, counter
