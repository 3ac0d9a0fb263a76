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

table = SweepTable.compute(rst, store)  # the prefix rows; a pass then asks for suffix sides
table.suffix(rst, store, True, True)

print("six variables over {r, t}: maximum counter per state and prefix length")
for line in format_rows(table.pre_max, rst.state_names, 0):
    print(" ", line)

print()
print("suffix table (maximum counter increase from each state to the end,")
print("whatever state the suffix ends in).  The forward sweep records which")
print("states each prefix row reaches, and the table builds each suffix row only")
print("at the states the prefix row one position earlier reaches, the only")
print("entries the filter reads; so rrs, which no prefix reaches, appears only in")
print("the base row 7:")
for line in format_rows(table.suf_max[1:], rst.state_names, 1):
    print(" ", line)
print()
print("states each prefix row reaches, in the order the sweep reached them:")
for i, states in enumerate(table.live):
    print(f"  {i}:", ",".join(rst.state_names[q] for q in states))

print()
print("backward() without those lists builds every state, as dump-sweep prints it:")
for line in format_rows(backward(rst, store, "max")[1:], rst.state_names, 1):
    print(" ", line)

print()
print("every row is one loop over the position's symbols, then the listed states,")
print("reading the automaton's tables row by row, shown as state -> next state")
print("(+increment); a suffix row takes the best of these moves at each state:")
names = rst.state_names
for sym in (r, t):
    moves = [f"{q}->{names[rst.next_state[i][sym]]}(+{rst.increment[i][sym]})" for i, q in enumerate(names)]
    print(f"  {rst.alphabet[sym]}:", ", ".join(moves))

print()
print(f"global counter range over all admissible words: [{table.least}, {table.greatest}]")
print("consistency: the suffix table at position 1 prices the whole sequence,")
print(f"  suf_min[1][start] = {table.suf_min[1][rst.start]}, "
      f"suf_max[1][start] = {table.suf_max[1][rst.start]}")
assert (table.suf_min[1][rst.start], table.suf_max[1][rst.start]) == (table.least, table.greatest)
