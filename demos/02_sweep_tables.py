"""The dynamic-programming tables behind the propagators.

For domains rather than fixed words, the propagators need the extremal
counter value per state and prefix length.  Keeping one value per *state*
(not one global extremum) is essential: a state that currently looks cheap
can still own the most expensive continuation.  Watch rrtr pick up 4 in the
last row below, fed by rrt, which was the *smallest* entry one row earlier.
"""

from regcount import DomainStore, SweepTable, backward, catalog, format_rows

rst = catalog("RST")
r, t = rst.symbol_id("r"), rst.symbol_id("t")
store = DomainStore(rst.num_symbols, [(r, t)] * 6, (0,))

table = SweepTable.compute(rst, store)

print("six variables over {r, t}: maximum counter per state and prefix length")
for line in format_rows(table.pre_max, rst.state_names, 0):
    print(" ", line)

print()
print("suffix table (maximum counter increase from each state to the end,")
print("whatever state the suffix ends in).  The table builds a row at a position")
print("with several symbols, here every one, only at the states the prefix row one")
print("position earlier reaches, the only entries the filter reads; so rrs, which")
print("no prefix reaches, appears only in the base row 7:")
for line in format_rows(table.suf_max[1:], rst.state_names, 1):
    print(" ", line)

print()
print("backward() without prefix rows builds every state, as dump-sweep prints it:")
for line in format_rows(backward(rst, store, "max")[1:], rst.state_names, 1):
    print(" ", line)

print()
print("a suffix row at a one-symbol position is a gather over that symbol's")
print("column of the transition tables, shown as state -> next state (+increment);")
print("a row with several symbols takes the best of these columns at each state:")
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
