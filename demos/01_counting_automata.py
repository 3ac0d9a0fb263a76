"""Counter automata basics: run words, count patterns, build reductions.

A counter automaton is a complete DFA that never rejects; instead, selected
transitions bump a counter, so consuming a word yields a number.  The catalog
ships four small machines used throughout the demos and tests.
"""

from regcount import build_subset_sum_dfa, catalog, lift_accepting, run

print("== counting occurrences of a word ==")
aab = catalog("AAB")
for word in ["aab", "aabaab", "abab", "aaaab", ""]:
    result = run(aab, word)
    print(f"  {word!r:10} -> counter {result.counter} (ends in {aab.state_names[result.end_state]!r})")

print()
print("== non-unit increments ==")
rst = catalog("RST")
for word in ["r", "rrtr", "rrsrr", "ttt"]:
    print(f"  {word!r:10} -> counter {run(rst, word).counter}")

print()
print("== a one-state adder: subset-sum as exact counting ==")
adder = build_subset_sum_dfa([2, 3, 7])
print(f"  alphabet: {adder.alphabet}")
for picks in [["2", "0", "7"], ["0", "0", "0"], ["2", "3", "7"]]:
    print(f"  picks {picks} -> sum {run(adder, picks).counter}")

print()
print("== folding accepting states into the counter ==")
# let states 0 and 2 of the word-counter accept and the middle one reject,
# then lift: words that would end there pay a penalty after the
# end-of-string symbol
lifted = lift_accepting(aab, [0, 2], penalty=100)
for word in ["aab", "aaba", "a"]:
    print(f"  {word + '$'!r:8} -> counter {run(lifted, word + '$').counter}")
