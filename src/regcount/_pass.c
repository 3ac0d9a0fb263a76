/* One propagator pass over a store's tables, kept in C arrays.
 *
 * The compiled counterpart of regcount.sweep's Python kernels and of the
 * interval loop of SweepTable.unsupported; regcount.kernel builds this file
 * into a shared library and drives it through ctypes.  A pass is three
 * calls: rc_prefix builds the prefix rows of the chosen sides and the
 * reached-state lists, Python applies the N rule to the end rows, rc_suffix
 * builds each chosen suffix side at the reached states, and rc_unsupported
 * checks the symbols against the windows.
 *
 * Every table is row-major, num_states entries per row.  An entry is
 * written only at the states its row reaches (prefix row i: live[i]; suffix
 * row i: live[i - 1]; suffix row n + 1 is 0 everywhere), and only those
 * entries are used, so no sum ever involves an unreached entry.  The relax
 * loops have no data-dependent branch.  So rc_prefix loads a prefix entry
 * before it knows whether this is the state's first reach in the row; on a
 * first reach the entry may be stale (the caller's arrays are reused across
 * passes, stores and shapes; ctypes allocates them zeroed, and every index is
 * in bounds), and a select discards it for the new sum, so no result can
 * depend on it.  Likewise rc_prefix writes every relaxed state to the next
 * free slot of its live row and keeps it only on a first reach; with every
 * state reached that slot is the first entry of the following row, which is
 * rebuilt after it, or of row n + 1, which nothing reads.  The caller
 * guarantees that every domain is nonempty, that every full-string counter
 * is below 2^62 and that every dom(N) value fits in int64, so no sum
 * overflows.  Symbols are read from the domain masks in ascending order.
 */

#include <stdint.h>
#include <string.h>

typedef struct {
    int32_t n, num_states, num_symbols, start;
    const int32_t *next_state;  /* num_states * num_symbols */
    const int64_t *increment;   /* num_states * num_symbols */
    const uint64_t *domains;    /* n masks */
    int64_t *pre_min, *pre_max; /* rows 0..n */
    int64_t *suf_min, *suf_max; /* rows 0..n + 1; row 0 unused */
    int32_t *live;              /* rows 0..n: the states each prefix row reaches, in first-reach order;
                                   row n + 1 is scratch */
    int32_t *live_len;          /* n + 1 */
    int32_t *stamp;             /* num_states: the last prefix row that reached each state */
} rc_pass;

/* Prefix rows 0..n of the chosen sides, each row relaxed symbol-major over
 * the states the previous row reaches, as regcount.sweep.forward relaxes
 * both sides: a state's first reach writes its sums and appends it to
 * live[i], a later reach keeps the least (greatest) sum.  ends gets the
 * least and greatest full-string counters of the built sides. */
void rc_prefix(rc_pass *p, int min_side, int max_side, int64_t *ends)
{
    const int32_t Q = p->num_states, S = p->num_symbols;
    memset(p->stamp, 0, (size_t)Q * sizeof *p->stamp);
    p->pre_min[p->start] = p->pre_max[p->start] = 0;
    p->live[0] = p->start;
    p->live_len[0] = 1;
    for (int32_t i = 0; i < p->n; i++) {
        const int64_t *low = p->pre_min + (int64_t)i * Q, *high = p->pre_max + (int64_t)i * Q;
        int64_t *new_low = p->pre_min + (int64_t)(i + 1) * Q, *new_high = p->pre_max + (int64_t)(i + 1) * Q;
        const int32_t *states = p->live + (int64_t)i * Q, count = p->live_len[i];
        int32_t *reached = p->live + (int64_t)(i + 1) * Q, size = 0;
        for (uint64_t mask = p->domains[i]; mask; mask &= mask - 1) {
            const int s = __builtin_ctzll(mask);
            for (int32_t k = 0; k < count; k++) {
                const int32_t q = states[k], t = p->next_state[q * S + s];
                const int64_t step = p->increment[q * S + s];
                const int fresh = p->stamp[t] != i + 1;
                p->stamp[t] = i + 1;
                reached[size] = t;
                size += fresh;
                if (min_side) {
                    const int64_t v = low[q] + step, old = new_low[t];
                    new_low[t] = fresh ? v : v < old ? v : old;
                }
                if (max_side) {
                    const int64_t v = high[q] + step, old = new_high[t];
                    new_high[t] = fresh ? v : v > old ? v : old;
                }
            }
        }
        p->live_len[i + 1] = size;
    }
    const int64_t *last_low = p->pre_min + (int64_t)p->n * Q, *last_high = p->pre_max + (int64_t)p->n * Q;
    const int32_t *last = p->live + (int64_t)p->n * Q;
    ends[0] = INT64_MAX;
    ends[1] = INT64_MIN;
    for (int32_t k = 0; k < p->live_len[p->n]; k++) {
        if (min_side && last_low[last[k]] < ends[0]) ends[0] = last_low[last[k]];
        if (max_side && last_high[last[k]] > ends[1]) ends[1] = last_high[last[k]];
    }
}

/* Suffix rows n + 1 down to 1 of one side, row i built at the states of
 * live[i - 1] as regcount.sweep.backward builds it with live: the first
 * symbol's sums seed each entry and the others only compare. */
void rc_suffix(rc_pass *p, int minimize)
{
    const int32_t Q = p->num_states, S = p->num_symbols;
    int64_t *suf = minimize ? p->suf_min : p->suf_max;
    memset(suf + (int64_t)(p->n + 1) * Q, 0, (size_t)Q * sizeof *suf);
    for (int32_t i = p->n; i >= 1; i--) {
        const int64_t *next = suf + (int64_t)(i + 1) * Q;
        int64_t *row = suf + (int64_t)i * Q;
        const int32_t *states = p->live + (int64_t)(i - 1) * Q, count = p->live_len[i - 1];
        uint64_t mask = p->domains[i - 1];
        const int first = __builtin_ctzll(mask);
        for (int32_t k = 0; k < count; k++) {
            const int32_t q = states[k];
            row[q] = next[p->next_state[q * S + first]] + p->increment[q * S + first];
        }
        for (mask &= mask - 1; mask; mask &= mask - 1) {
            const int s = __builtin_ctzll(mask);
            for (int32_t k = 0; k < count; k++) {
                const int32_t q = states[k];
                const int64_t c = next[p->next_state[q * S + s]] + p->increment[q * S + s], r = row[q];
                row[q] = (minimize ? c < r : c > r) ? c : r;
            }
        }
    }
}

/* True iff some value of the sorted counter[0..size) lies in [lo, hi]. */
static int has_between(const int64_t *counter, int64_t size, int64_t lo, int64_t hi)
{
    int64_t a = 0, b = size;
    while (a < b) {
        const int64_t mid = a + (b - a) / 2;
        if (counter[mid] < lo) a = mid + 1; else b = mid;
    }
    return a < size && counter[a] <= hi;
}

/* The interval loop: for each window [windows[2w], windows[2w + 1]], each
 * position i (0-based) whose domain holds several symbols, and each symbol s
 * of it in ascending order, (i, s) is unsupported iff no state of live[i]
 * gives an interval [lo, hi] through s that meets the window, and with
 * holes dom(N) itself.  An unbuilt suffix side (min_side or max_side 0)
 * leaves its end unbounded.  The unsupported pairs go to found as (i, s)
 * and their count to counts[0].  If witnesses is not NULL, the lo (min_side)
 * or else hi of each support found goes there, and their count to
 * counts[1]. */
void rc_unsupported(const rc_pass *p, int min_side, int max_side, const int64_t *windows, int32_t num_windows,
                    int holes, const int64_t *counter, int64_t counter_size,
                    int32_t *found, int64_t *witnesses, int64_t *counts)
{
    const int32_t Q = p->num_states, S = p->num_symbols;
    int64_t num_found = 0, num_witnesses = 0;
    for (int32_t w = 0; w < num_windows; w++) {
        const int64_t bottom = windows[2 * w], top = windows[2 * w + 1];
        for (int32_t i = 0; i < p->n; i++) {
            const uint64_t domain = p->domains[i];
            if (!(domain & (domain - 1)))
                continue; /* supported by any survivor at i - 1 */
            const int64_t *pre_min = p->pre_min + (int64_t)i * Q, *pre_max = p->pre_max + (int64_t)i * Q;
            const int64_t *suf_min = p->suf_min + (int64_t)(i + 2) * Q, *suf_max = p->suf_max + (int64_t)(i + 2) * Q;
            const int32_t *states = p->live + (int64_t)i * Q, count = p->live_len[i];
            for (uint64_t mask = domain; mask; mask &= mask - 1) {
                const int s = __builtin_ctzll(mask);
                int32_t k = 0;
                for (; k < count; k++) {
                    const int32_t q = states[k], t = p->next_state[q * S + s];
                    const int64_t step = p->increment[q * S + s];
                    const int64_t lo = min_side ? pre_min[q] + step + suf_min[t] : INT64_MIN;
                    const int64_t hi = max_side ? pre_max[q] + step + suf_max[t] : INT64_MAX;
                    if (lo <= top && hi >= bottom && (!holes || has_between(counter, counter_size, lo, hi))) {
                        if (witnesses)
                            witnesses[num_witnesses++] = min_side ? lo : hi;
                        break;
                    }
                }
                if (k == count) {
                    found[2 * num_found] = i;
                    found[2 * num_found + 1] = s;
                    num_found++;
                }
            }
        }
    }
    counts[0] = num_found;
    counts[1] = num_witnesses;
}
