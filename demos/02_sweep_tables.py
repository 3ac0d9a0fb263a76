"""The dynamic-programming tables behind the propagators.

For domains rather than fixed words, the propagators need the extremal
counter value per state and prefix length.  Keeping one value per *state*
(not one global extremum) is essential: a state that currently looks cheap
can still own the most expensive continuation.  Watch rrtr pick up 4 in the
last row below, fed by rrt, which was the *smallest* entry one row earlier.
"""

from regcount import DomainStore, SweepTable, catalog, format_rows

rst = catalog("RST")
r, t = rst.symbol_id("r"), rst.symbol_id("t")
store = DomainStore(rst.num_symbols, [(r, t)] * 6, (0,))

table = SweepTable.compute(rst, store)

print("six variables over {r, t}: maximum counter per state and prefix length")
for line in format_rows(table.pre_max, rst.state_names, 0):
    print(" ", line)

print()
print("suffix table (maximum counter increase from each state to the end,")
print("whatever state the suffix ends in; rrs is never reached, yet has a row):")
for line in format_rows(table.suf_max[1:], rst.state_names, 1):
    print(" ", line)

print()
print("each suffix row is a gather over per-symbol columns of the transition")
print("tables, shown as state -> next state (+increment):")
names = rst.state_names
next_cols, inc_cols = tuple(zip(*rst.next_state)), tuple(zip(*rst.increment))
for sym in (r, t):
    moves = zip(names, next_cols[sym], inc_cols[sym])
    print(f"  {rst.alphabet[sym]}:", ", ".join(f"{q}->{names[p]}(+{inc})" for q, p, inc in moves))

print()
print(f"global counter range over all admissible words: [{table.least}, {table.greatest}]")
print("consistency: the suffix table at position 1 prices the whole sequence,")
print(f"  suf_min[1][start] = {table.suf_min[1][rst.start]}, "
      f"suf_max[1][start] = {table.suf_max[1][rst.start]}")
