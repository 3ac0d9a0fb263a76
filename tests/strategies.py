"""Shared test inputs: hypothesis strategies for small random automata,
stores and words; root-long-shaped stores; and fixed automata and witnesses."""

from __future__ import annotations

import hypothesis.strategies as st

import reference_kernel
from regcount import COUNTER_VAR, U64_MAX, CounterDfa, DomainStore, SignatureMap, generator, run, validate

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
def windowed(draw, pairs):
    """A pair drawn from ``pairs`` with dom(N) redrawn against its counter range.

    ``least`` and ``greatest`` are the global minimum and maximum full-string
    counters, read off the reference sweeps.  dom(N) is an interval covering
    [least, greatest] ("cover"), an interval that cuts only its low end
    ("low") or only its high end ("high"), or a random set around it that
    usually has holes ("holes").  A cut range wider than a few values is
    windowed near the cut; a range too wide to cover falls back to "low".
    Half of the pairs have at least half of their positions reduced to one
    symbol.
    """
    dfa, store = draw(pairs)
    domains = [store.symbols(i) for i in range(store.n)]
    if draw(st.booleans()):
        for i in draw(st.sets(st.integers(0, store.n - 1), min_size=(store.n + 1) // 2)) if store.n else ():
            domains[i] = [draw(st.sampled_from(domains[i]))]
    store = DomainStore(dfa.num_symbols, domains, (0,))
    least = min(reference_kernel.forward(dfa, store, "min")[-1])
    greatest = max(reference_kernel.forward(dfa, store, "max")[-1])
    slack = st.integers(0, 2)
    shape = draw(st.sampled_from(("cover", "low", "high", "holes")))
    if shape == "cover" and greatest - least > 64:
        shape = "low"
    if shape in ("low", "high") and greatest == least:
        shape = "cover"
    if shape == "cover":
        counter = range(max(0, least - draw(slack)), greatest + draw(slack) + 1)
    elif shape == "low":
        counter = range(max(0, least - draw(slack)), least + draw(st.integers(0, min(greatest - least - 1, 6))) + 1)
    elif shape == "high":
        counter = range(greatest - draw(st.integers(0, min(greatest - least - 1, 6))), greatest + draw(slack) + 1)
    else:
        around = st.one_of(st.integers(max(0, least - 2), least + 2), st.integers(max(0, greatest - 2), greatest + 2),
                           st.integers(least, greatest))
        counter = draw(st.sets(around, min_size=1, max_size=6))
    return dfa, DomainStore(dfa.num_symbols, domains, counter)


@st.composite
def dfa_word_pairs(draw, max_states: int = 4, max_symbols: int = 3, max_len: int = 6):
    dfa = draw(cdfas(max_states, max_symbols))
    word = draw(st.lists(st.integers(0, dfa.num_symbols - 1), max_size=max_len))
    return dfa, word


@st.composite
def signature_instances(draw, max_states: int = 4, max_symbols: int = 3, max_n: int = 4, max_value: int = 5,
                        max_counter: int = 8, increments=None):
    """(dfa, SignatureMap, native domains, counter values); native domains may repeat a value."""
    dfa = draw(cdfas(max_states, max_symbols, increments=increments))
    n = draw(st.integers(0, max_n))
    natives = [draw(st.lists(st.integers(0, max_value), min_size=1, max_size=4)) for _ in range(n)]
    symbol = st.integers(0, dfa.num_symbols - 1)
    sig = SignatureMap([{v: draw(symbol) for v in sorted(set(dom))} for dom in natives])
    counter = sorted(draw(st.sets(st.integers(0, max_counter), min_size=1)))
    return dfa, sig, natives, counter


def _one_choice_mostly(draw, domains: list, max_multi: int) -> list[list[int]]:
    """``domains`` with all but at most ``max_multi`` positions cut to one value, sometimes repeated."""
    keep = draw(st.sets(st.integers(0, len(domains) - 1), max_size=max_multi)) if domains else set()
    return [list(dom) if i in keep else [draw(st.sampled_from(sorted(dom)))] * draw(st.integers(1, 2))
            for i, dom in enumerate(domains)]


@st.composite
def few_choice_pairs(draw, pairs, max_multi: int = 2):
    """A pair drawn from ``pairs`` with at most ``max_multi`` positions left with several symbols.

    Runs of one-choice positions then sit between the positions with several
    choices and after the last one, and some rows have one such position or none.
    """
    dfa, store = draw(pairs)
    domains = _one_choice_mostly(draw, [store.symbols(i) for i in range(store.n)], max_multi)
    return dfa, DomainStore(dfa.num_symbols, domains, store.counter)


@st.composite
def few_choice_signature_instances(draw, cases, max_multi: int = 2):
    """:func:`few_choice_pairs` for a signature instance drawn from ``cases``; a cut position may repeat its value."""
    dfa, sig, natives, counter = draw(cases)
    return dfa, sig, _one_choice_mostly(draw, natives, max_multi), counter


#: Short random pairs, a share of them with increments near U64_MAX.
SHORT_PAIRS = st.one_of(dfa_store_pairs(max_n=6, max_counter=12), dfa_store_pairs(max_n=6, increments=NEAR_U64_MAX))
#: Wider increments spread the counter range, so windows cut into it more often.
WINDOWED_PAIRS = windowed(st.one_of(dfa_store_pairs(min_n=3, max_n=8, max_increment=3),
                                    dfa_store_pairs(max_n=6, increments=NEAR_U64_MAX)))

#: 20 states and 8 symbols, as in perfbench's root-long workload; at n = 150
#: most states are unreachable at most positions, unlike in the small strategies.
ROOT_LONG_CFG = generator.GenConfig(min_states=20, max_states=20, min_symbols=8, max_symbols=8)


def root_long_shaped(index, end, holed=False, n=150, singleton_share=0.75, seed=13, cfg=ROOT_LONG_CFG):
    """A 20x8 automaton (or one of ``cfg``'s sizes) over ``n`` positions,
    three in four of them one symbol, with dom(N) three values around the
    least full-string counter (``end`` "least", perfbench's recipe) or the
    greatest one; ``holed``, the two values either side of that counter
    instead.  ``seed`` and ``index`` choose the stream."""
    rng = generator.rng_for(seed, index)
    dfa = generator.random_cdfa(cfg, rng)
    alphabet = dfa.num_symbols
    singles = rng.random(n) < singleton_share
    symbols = rng.integers(0, alphabet, n)
    masks = rng.integers(1, 2**alphabet, n)
    domains = [[int(symbols[i])] if singles[i] else [s for s in range(alphabet) if int(masks[i]) >> s & 1]
               for i in range(n)]
    store = DomainStore(alphabet, domains, (0,))
    if end == "least":
        middle = min(reference_kernel.forward(dfa, store, "min")[-1])
    else:
        middle = max(reference_kernel.forward(dfa, store, "max")[-1])
    if holed:
        return dfa, DomainStore(alphabet, domains, (middle - 1, middle + 1))
    low = max(middle - 1, 0)
    return dfa, DomainStore(alphabet, domains, range(low, low + 3))


@st.composite
def ground_pairs(draw):
    """A store with one symbol per position, n = 0..12, and a dom(N) drawn
    around its word's counter, near 0 or anywhere up to 2 * U64_MAX."""
    dfa = draw(st.one_of(cdfas(), cdfas(increments=NEAR_U64_MAX)))
    word = draw(st.lists(st.integers(0, dfa.num_symbols - 1), max_size=12))
    c = run(dfa, word).counter
    value = st.one_of(st.integers(max(0, c - 2), c + 2), st.integers(0, 12), st.integers(0, 2 * U64_MAX))
    counter = draw(st.sets(value, min_size=1, max_size=6))
    return dfa, DomainStore(dfa.num_symbols, [[s] for s in word], counter)


#: "x" stays in state 0 for free; "y" moves to state 1 for 3.  Over one
#: position with both symbols, the end intervals are [0, 0] and [3, 3].
GAP = CounterDfa(num_states=2, alphabet=("x", "y"), start=0, next_state=((0, 1), (1, 1)),
                 increment=((0, 3), (0, 0)))

#: Multi-pass exact witnesses over two states: (next_state, increment,
#: domains, dom(N), exact's removals and passes, the decomposition's
#: removals), symbols by name.  On "prefix", exact's first pass removes
#: symbols at positions 0, 1 and 5, and only the prefix rows its second pass
#: builds from the shrunk domains show that N = 11 has lost its support.  On
#: "suffix-jump", exact's first pass removes (4, b) and (11, b).  The min
#: suffix rows 12 down to 6 of its second pass equal the first pass's,
#: though row 12 reads the shrunk position 11, and row 5, which reads
#: position 4, differs; from there the second pass removes (3, b) and the
#: third (0, a).  A sweep that reused the first pass's suffix rows would
#: have to resume at position 4 after finding row 12 unchanged.
MULTI_PASS_WITNESSES = {
    "prefix": (((1, 1, 0), (1, 0, 1)), ((2, 0, 1), (3, 3, 3)), "b,c;a,c;c;b;a,b;b,c;c;a", (11, 12),
               [(0, "b"), (1, "a"), (5, "c"), (COUNTER_VAR, 11)], 2, [(0, "b"), (1, "a")]),
    "suffix-jump": (((1, 0), (0, 1)), ((0, 0), (1, 3)), "a,b;b;a;a,b;a,b;a;b;a;b;b;b;a,b", (11, 12),
                    [(4, "b"), (11, "b"), (COUNTER_VAR, 11), (3, "b"), (0, "a")], 3, []),
}
