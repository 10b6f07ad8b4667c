"""C source for the compiled kernel tier (gcc + ctypes).

One translation unit holding the hot loop bodies the dispatch layer can
route to when the compiled engine is active:

* ``mex_sorted`` — exact minimum-excluded-color over sorted CSR segments
  (stamp-array formulation; equivalent to the bitmask/sort NumPy paths).
* ``waved_color`` — the fused wave loop of
  :func:`repro.coloring.kernels.color_waves`: per wave, a
  snapshot gather + mex pass over every vertex, then a commit pass, so
  wave-granular write visibility is preserved exactly; the caller's
  longest segment sizes the stamp array.
* ``detect_conflicts_full`` / ``detect_conflicts_subset`` — the
  monochromatic-edge loser scan.
* ``reuse_prev_i32`` / ``reuse_prev_i64`` — previous-touch indices for
  the reuse-distance cache model (hash last-seen scan; replaces a full
  stable argsort).
* ``first_occurrences`` — first index of each distinct key, emitted in
  key-sorted order (hash scan + radix argsort of the unique subset);
  exactly ``np.unique(key, return_index=True)[1]``.
* ``issue_order`` — stable LSD radix argsort of the packed issue keys;
  the identical permutation to ``np.argsort(key, kind='stable')``.
* ``order3_*`` — the same issue ordering as a 3-key LSD *counting* sort
  over (wave, warp, step); three passes total instead of one byte-radix
  pass per significant key byte.
* ``walk_stats_* / walk_ro_* / walk_l2_*`` — the fused cache-hierarchy
  walk: RO-cache and L2 reuse gaps computed in issue order against
  direct-address last-seen tables, replacing the vectorized
  formulation's gathers, compactions and argsort-based reuse scans.
* ``pack_mask`` — boolean-mask compaction (``np.flatnonzero``).

Everything is integer arithmetic on caller-provided buffers — no malloc,
no floats, no libc beyond ``memset`` — so results are bit-exact across
compilers and optimization levels.  The dispatch layer guarantees dtype
and contiguity before handing out pointers.
"""

from __future__ import annotations

#: Bump when the C source changes incompatibly; part of the .so cache key.
SOURCE_VERSION = 4

KERNELS_C = r"""
#include <stdint.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* mex over sorted segments: stamp-array formulation.                  */
/*                                                                     */
/* The mex of a set reached through a segment of d entries is at most  */
/* d + 1, so colors above d + 1 cannot change the answer and are       */
/* skipped; the stamp array marks colors seen this segment using a     */
/* generation counter so it never needs clearing.                      */
/* ------------------------------------------------------------------ */
static inline int32_t mex_of_run(
    const int32_t* nbr_colors, int64_t lo, int64_t hi,
    uint64_t* stamp, int64_t stamp_len, uint64_t gen)
{
    int64_t d = hi - lo;
    int64_t cap = d + 1;                 /* mex is in [1, d + 1] */
    if (cap >= stamp_len) cap = stamp_len - 1;
    for (int64_t e = lo; e < hi; e++) {
        int64_t c = (int64_t)nbr_colors[e];
        if (c >= 1 && c <= cap) stamp[c] = gen;
    }
    for (int64_t c = 1; c <= cap; c++) {
        if (stamp[c] != gen) return (int32_t)c;
    }
    return (int32_t)(cap + 1);
}

/* seg must be non-decreasing; out has num_segments entries.           */
EXPORT void mex_sorted(
    const int64_t* seg, const int32_t* nbr_colors, int64_t n,
    int64_t num_segments, int32_t* out,
    uint64_t* stamp, int64_t stamp_len, uint64_t* gen_io)
{
    for (int64_t s = 0; s < num_segments; s++) out[s] = 1;
    int64_t e = 0;
    uint64_t gen = *gen_io;
    while (e < n) {
        int64_t s = seg[e];
        int64_t lo = e;
        while (e < n && seg[e] == s) e++;
        gen++;
        out[s] = mex_of_run(nbr_colors, lo, e, stamp, stamp_len, gen);
    }
    *gen_io = gen;
}

/* ------------------------------------------------------------------ */
/* Fused wave loop: per wave, compute every vertex's color from the    */
/* wave-entry snapshot (phase 1), then commit (phase 2) — the same     */
/* two-phase visibility the vectorized NumPy wave loop has.            */
/* ------------------------------------------------------------------ */
EXPORT void waved_color(
    const int64_t* active_ids, int64_t n_active,
    const int64_t* seg, const int32_t* nbr,
    const int64_t* bounds, const int64_t* epos, int64_t n_waves,
    int32_t* colors, int32_t* out,
    uint64_t* stamp, int64_t stamp_len, uint64_t* gen_io)
{
    uint64_t gen = *gen_io;
    for (int64_t w = 0; w < n_waves; w++) {
        int64_t lo = bounds[w], hi = bounds[w + 1];
        if (hi <= lo) continue;
        int64_t e = epos[w], ehi = epos[w + 1];
        /* phase 1: snapshot reads only */
        for (int64_t pos = lo; pos < hi; pos++) {
            int64_t elo = e;
            while (e < ehi && seg[e] == pos) e++;
            if (e == elo) { out[pos] = 1; continue; }
            gen++;
            int64_t d = e - elo;
            int64_t cap = d + 1;
            if (cap >= stamp_len) cap = stamp_len - 1;
            for (int64_t k = elo; k < e; k++) {
                int64_t c = (int64_t)colors[nbr[k]];
                if (c >= 1 && c <= cap) stamp[c] = gen;
            }
            int32_t mex = (int32_t)(cap + 1);
            for (int64_t c = 1; c <= cap; c++) {
                if (stamp[c] != gen) { mex = (int32_t)c; break; }
            }
            out[pos] = mex;
        }
        /* phase 2: commit the wave */
        for (int64_t pos = lo; pos < hi; pos++) {
            colors[active_ids[pos]] = out[pos];
        }
    }
    *gen_io = gen;
}

/* ------------------------------------------------------------------ */
/* Conflict detection: mark the smaller endpoint of every              */
/* monochromatic edge.  "full" means seg positions are the vertex ids  */
/* themselves (whole-graph expansion); "subset" indirects through the  */
/* scope array.                                                        */
/* ------------------------------------------------------------------ */
EXPORT void detect_conflicts_full(
    const int64_t* seg, const int32_t* nbr, const int32_t* colors,
    int64_t m, uint8_t* loser)
{
    for (int64_t e = 0; e < m; e++) {
        int64_t v = seg[e];
        int64_t w = (int64_t)nbr[e];
        int32_t cv = colors[v];
        if (cv > 0 && cv == colors[w] && v < w) loser[v] = 1;
    }
}

EXPORT void detect_conflicts_subset(
    const int64_t* seg, const int64_t* scope_ids, const int32_t* nbr,
    const int32_t* colors, int64_t m, uint8_t* loser)
{
    for (int64_t e = 0; e < m; e++) {
        int64_t s = seg[e];
        int64_t v = scope_ids[s];
        int64_t w = (int64_t)nbr[e];
        int32_t cv = colors[v];
        if (cv > 0 && cv == colors[w] && v < w) loser[s] = 1;
    }
}

/* ------------------------------------------------------------------ */
/* Reuse-distance previous-touch scan.                                 */
/*                                                                     */
/* For every re-touch of a cache line, record its stream position and  */
/* the previous touch's position.  The (idx, prev) pair set is exactly */
/* what the stable-argsort formulation extracts; the downstream hit    */
/* mask is a scatter, so emission order is irrelevant.                 */
/*                                                                     */
/* Open addressing, linear probing; table_size is a power of two       */
/* >= 2n.  Fibonacci hashing keeps the *high* product bits (the mixed  */
/* ones).  Slots carry an epoch stamp so reusing a cached table costs  */
/* nothing — a slot belongs to this call iff gen[h] == epoch, which    */
/* replaces the O(table) memset.                                       */
/* ------------------------------------------------------------------ */
static inline int table_shift(int64_t table_size)
{
    return 64 - __builtin_ctzll((uint64_t)table_size);
}

static inline uint64_t hash_key(int64_t key, int shift)
{
    return ((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> shift;
}

#define REUSE_PREV(NAME, LINETYPE)                                     \
EXPORT int64_t NAME(                                                   \
    const LINETYPE* line, int64_t n,                                   \
    int64_t* idx_out, int64_t* prev_out,                               \
    int64_t* table_key, int64_t* table_val, int64_t* table_gen,        \
    int64_t table_size, int64_t epoch)                                 \
{                                                                      \
    uint64_t mask = (uint64_t)(table_size - 1);                        \
    int shift = table_shift(table_size);                               \
    int64_t k = 0;                                                     \
    for (int64_t i = 0; i < n; i++) {                                  \
        int64_t key = (int64_t)line[i];                                \
        uint64_t h = hash_key(key, shift);                             \
        for (;;) {                                                     \
            if (table_gen[h] != epoch) {                               \
                table_gen[h] = epoch;                                  \
                table_key[h] = key;                                    \
                table_val[h] = i;                                      \
                break;                                                 \
            }                                                          \
            if (table_key[h] == key) {                                 \
                idx_out[k] = i;                                        \
                prev_out[k] = table_val[h];                            \
                table_val[h] = i;                                      \
                k++;                                                   \
                break;                                                 \
            }                                                          \
            h = (h + 1) & mask;                                        \
        }                                                              \
    }                                                                  \
    return k;                                                          \
}

REUSE_PREV(reuse_prev_i32, int32_t)
REUSE_PREV(reuse_prev_i64, int64_t)

/* ------------------------------------------------------------------ */
/* Stable LSD radix argsort of non-negative int64 keys.  Identical     */
/* permutation to np.argsort(key, kind='stable'): LSD counting sorts   */
/* are stable, and passes beyond the highest significant byte are      */
/* skipped (they would be identity permutations).                      */
/* ------------------------------------------------------------------ */
static void radix_argsort(
    const int64_t* key, int64_t n, int64_t* perm,
    int64_t* tmp_perm, int64_t* key_buf, int64_t* tmp_key)
{
    int64_t max_key = 0;
    for (int64_t i = 0; i < n; i++) {
        perm[i] = i;
        key_buf[i] = key[i];
        if (key[i] > max_key) max_key = key[i];
    }
    int passes = 0;
    while (max_key > 0) { passes++; max_key >>= 8; }
    if (passes == 0) return;

    int64_t count[256];
    int64_t* kin = key_buf;  int64_t* kout = tmp_key;
    int64_t* pin = perm;     int64_t* pout = tmp_perm;
    for (int p = 0; p < passes; p++) {
        memset(count, 0, sizeof(count));
        int shift = p * 8;
        for (int64_t i = 0; i < n; i++) {
            count[(kin[i] >> shift) & 0xff]++;
        }
        int64_t total = 0;
        for (int b = 0; b < 256; b++) {
            int64_t c = count[b];
            count[b] = total;
            total += c;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t slot = count[(kin[i] >> shift) & 0xff]++;
            kout[slot] = kin[i];
            pout[slot] = pin[i];
        }
        int64_t* t;
        t = kin; kin = kout; kout = t;
        t = pin; pin = pout; pout = t;
    }
    if (pin != perm) {
        memcpy(perm, pin, (size_t)n * sizeof(int64_t));
    }
}

EXPORT void issue_order(
    const int64_t* key, int64_t n, int64_t* perm,
    int64_t* tmp_perm, int64_t* key_buf, int64_t* tmp_key)
{
    radix_argsort(key, n, perm, tmp_perm, key_buf, tmp_key);
}

/* ------------------------------------------------------------------ */
/* First-occurrence indices of each distinct key, in key-sorted order  */
/* (np.unique(key, return_index=True)[1]).  Hash scan collects the     */
/* unique (key, first index) pairs, then the radix argsort orders them */
/* by key — keys are unique at that point, so the order is total and   */
/* deterministic.                                                      */
/* ------------------------------------------------------------------ */
EXPORT int64_t first_occurrences(
    const int64_t* key, int64_t n, int64_t* out_pos,
    int64_t* ukey, int64_t* upos,
    int64_t* table_key, int64_t* table_gen, int64_t table_size,
    int64_t epoch,
    int64_t* perm, int64_t* tmp_perm, int64_t* key_buf, int64_t* tmp_key)
{
    uint64_t mask = (uint64_t)(table_size - 1);
    int shift = table_shift(table_size);
    int64_t k = 0;
    int64_t prev = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t kv = key[i];
        if (i > 0 && kv == prev) continue;  /* adjacent-run fast path */
        prev = kv;
        uint64_t h = hash_key(kv, shift);
        for (;;) {
            if (table_gen[h] != epoch) {     /* empty: record first touch */
                table_gen[h] = epoch;
                table_key[h] = kv;
                ukey[k] = kv;
                upos[k] = i;
                k++;
                break;
            }
            if (table_key[h] == kv) break;   /* seen before: keep first */
            h = (h + 1) & mask;
        }
    }
    radix_argsort(ukey, k, perm, tmp_perm, key_buf, tmp_key);
    for (int64_t i = 0; i < k; i++) out_pos[i] = upos[perm[i]];
    return k;
}

/* ------------------------------------------------------------------ */
/* Boolean-mask compaction (np.flatnonzero over a uint8 mask).         */
/* ------------------------------------------------------------------ */
EXPORT int64_t pack_mask(const uint8_t* mask_arr, int64_t n, int64_t* out)
{
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        if (mask_arr[i]) out[k++] = i;
    }
    return k;
}

/* ------------------------------------------------------------------ */
/* Coalescing first-occurrence over (warp, step, line) components.     */
/*                                                                     */
/* The trace builder packs the three components into one arithmetic    */
/* key and takes np.unique(..., return_index=True)[1].  Packing with   */
/* bit shifts instead preserves both the ordering and the equality     */
/* classes of the arithmetic key, so an LSD radix sort with three      */
/* heterogeneous digits (one per component) followed by an adjacent    */
/* run scan yields the identical selection — no hash table, no         */
/* power-of-two probing, and the digit count is 3 regardless of key    */
/* magnitude.  ``step == NULL`` means the step component is constant   */
/* across the call (a broadcast scalar) and drops out of the order.    */
/* ------------------------------------------------------------------ */
/* Shared LSD radix over prebuilt bitkeys, carrying (key, perm) pairs
   so every count phase reads sequentially.  Digit widths are balanced
   over the key's total bit count rather than following component
   boundaries: up to 19 bits per pass (512 Ki-entry count array) once
   the stream is large enough to amortize the zero+prefix cost, so a
   37-bit key sorts in two passes instead of three.  Returns 0 when the
   sorted result ended in (key_buf, perm), 1 when in (tmp_key,
   tmp_perm). */
static int lsd_pairs(
    int64_t* key_buf, int64_t* tmp_key, int64_t* perm, int64_t* tmp_perm,
    int64_t n, int64_t nbits, int64_t* count)
{
    if (nbits <= 0 || n <= 0) return 0;
    int64_t cap = 16;
    while (cap < 19 && (n >> (cap - 2)) > 0) cap++;
    if (cap > nbits) cap = nbits;
    int64_t npass = (nbits + cap - 1) / cap;
    int64_t d = (nbits + npass - 1) / npass;
    int flip = 0;
    for (int64_t p = 0; p < npass; p++) {
        int64_t sh = p * d;
        int64_t w = nbits - sh;
        if (w > d) w = d;
        int64_t nb = (int64_t)1 << w;
        int64_t msk = nb - 1;
        int64_t* kin = flip ? tmp_key : key_buf;
        int64_t* kout = flip ? key_buf : tmp_key;
        int64_t* pin = flip ? tmp_perm : perm;
        int64_t* pout = flip ? perm : tmp_perm;
        memset(count, 0, (size_t)nb * sizeof(int64_t));
        for (int64_t i = 0; i < n; i++) count[(kin[i] >> sh) & msk]++;
        int64_t total = 0;
        for (int64_t b = 0; b < nb; b++) {
            int64_t c = count[b];
            count[b] = total;
            total += c;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t slot = count[(kin[i] >> sh) & msk]++;
            kout[slot] = kin[i];
            pout[slot] = pin[i];
        }
        flip = !flip;
    }
    return flip;
}

EXPORT int64_t first_occ3(
    const int32_t* warp, const int64_t* step, const int64_t* line,
    int64_t n, int64_t wb, int64_t sb, int64_t lb,
    int64_t* sel_out, int64_t* perm, int64_t* tmp_perm,
    int64_t* key_buf, int64_t* tmp_key, int64_t* count)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t k = ((int64_t)warp[i] << (sb + lb)) | line[i];
        if (step) k |= step[i] << lb;
        key_buf[i] = k;
        perm[i] = i;
    }
    int flip = lsd_pairs(key_buf, tmp_key, perm, tmp_perm, n,
                         wb + sb + lb, count);
    const int64_t* kin = flip ? tmp_key : key_buf;
    const int64_t* pin = flip ? tmp_perm : perm;
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i == 0 || kin[i] != kin[i - 1]) sel_out[m++] = pin[i];
    }
    return m;
}

/* ------------------------------------------------------------------ */
/* Fused cache-hierarchy walk (the RO -> L2 -> DRAM pricing pass).     */
/*                                                                     */
/* Replaces the vectorized formulation's permutation gathers, mask     */
/* algebra, substream compactions and argsort-based reuse-distance     */
/* scans with two passes in issue order.  Last-seen positions live in  */
/* a direct-address table indexed by cache-line id (epoch-stamped, so  */
/* no clearing); gaps are *substream-relative* positions, exactly the  */
/* (idx - prev) the compacted-argsort formulation produces.  The hit   */
/* thresholding itself stays in Python (the threshold depends on the   */
/* substream's unique count, known only after the scan).               */
/*                                                                     */
/* Access-kind codes are passed in (see gpusim.trace.AccessKind).      */
/* ------------------------------------------------------------------ */
#define WALK(SUF, LT)                                                  \
/* Order-free per-stream facts: __ldg count per SM, atomic count, and  \
   the line-id / SM-id maxima the caller needs to size the tables and  \
   validate its invariants before committing to the fused path (the    \
   count write is range-guarded so a violated invariant declines       \
   instead of corrupting memory).  out3 = [atomics, max_line, max_sm]. \
*/                                                                     \
EXPORT void walk_stats_##SUF(                                          \
    const uint8_t* kind, const int32_t* sm, const LT* line, int64_t n, \
    int64_t num_sms, int64_t ldg_code, int64_t atomic_code,            \
    int64_t* ldg_per_sm, int64_t* out3)                                \
{                                                                      \
    int64_t atomics = 0;                                               \
    int64_t max_line = -1;                                             \
    int64_t max_sm = -1;                                               \
    for (int64_t i = 0; i < n; i++) {                                  \
        int64_t s = (int64_t)sm[i];                                    \
        if (s > max_sm) max_sm = s;                                    \
        if (kind[i] == ldg_code && s >= 0 && s < num_sms)              \
            ldg_per_sm[s]++;                                           \
        if (kind[i] == atomic_code) atomics++;                         \
        if ((int64_t)line[i] > max_line) max_line = (int64_t)line[i];  \
    }                                                                  \
    out3[0] = atomics;                                                 \
    out3[1] = max_line;                                                \
    out3[2] = max_sm;                                                  \
}                                                                      \
                                                                       \
/* Representative-SM __ldg substream: gap to previous touch (-1 =      \
   first touch), in issue order.  Returns the substream length.     */ \
EXPORT int64_t walk_ro_##SUF(                                          \
    const int64_t* order, const uint8_t* kind, const LT* line,         \
    const int32_t* sm, int64_t n, int64_t ldg_code, int64_t rep_sm,    \
    int64_t* gap_out,                                                  \
    int64_t* tval, int64_t* tgen, int64_t epoch)                       \
{                                                                      \
    int64_t j = 0;                                                     \
    for (int64_t i = 0; i < n; i++) {                                  \
        int64_t o = order[i];                                          \
        if (kind[o] != ldg_code || (int64_t)sm[o] != rep_sm) continue; \
        int64_t lid = (int64_t)line[o];                                \
        gap_out[j] = (tgen[lid] == epoch) ? j - tval[lid] : -1;        \
        tval[lid] = j;                                                 \
        tgen[lid] = epoch;                                             \
        j++;                                                           \
    }                                                                  \
    return j;                                                          \
}                                                                      \
                                                                       \
/* Everything the RO cache did not absorb, walked in issue order:      \
   resolve each __ldg's RO hit (rep substream verdicts for the rep     \
   SM, Bernoulli draws for the rest, consumed in issue order exactly   \
   as the boolean-mask assignment did), and emit the L2 substream's    \
   gaps + stall flags.  out2 = [l2_n, ro_hits].                     */ \
EXPORT void walk_l2_##SUF(                                             \
    const int64_t* order, const uint8_t* kind, const LT* line,         \
    const int32_t* sm, int64_t n,                                      \
    int64_t ldg_code, int64_t store_code, int64_t rep_sm,              \
    const uint8_t* rep_hits, const double* draws, double rate,         \
    int64_t* l2_gap, uint8_t* l2_stall,                                \
    int64_t* tval, int64_t* tgen, int64_t epoch, int64_t* out2)        \
{                                                                      \
    int64_t rj = 0, oj = 0, l2n = 0, ro_hits = 0;                      \
    for (int64_t i = 0; i < n; i++) {                                  \
        int64_t o = order[i];                                          \
        int64_t k = (int64_t)kind[o];                                  \
        if (k == ldg_code) {                                           \
            int hit;                                                   \
            if ((int64_t)sm[o] == rep_sm) hit = rep_hits[rj++];        \
            else hit = draws[oj++] < rate;                             \
            if (hit) { ro_hits++; continue; }                          \
        }                                                              \
        int64_t lid = (int64_t)line[o];                                \
        l2_gap[l2n] = (tgen[lid] == epoch) ? l2n - tval[lid] : -1;     \
        tval[lid] = l2n;                                               \
        tgen[lid] = epoch;                                             \
        l2_stall[l2n] = (uint8_t)(k != store_code);                    \
        l2n++;                                                         \
    }                                                                  \
    out2[0] = l2n;                                                     \
    out2[1] = ro_hits;                                                 \
}

WALK(i32, int32_t)
WALK(i64, int64_t)

/* ------------------------------------------------------------------ */
/* Issue ordering over (wave, warp, step) as a 3-digit bitkey LSD      */
/* radix sort.  Bit-packing the components preserves the packed        */
/* arithmetic key's ordering exactly, so this is the identical         */
/* permutation to the stable argsort the NumPy path computes — in      */
/* three passes with sequential count-phase reads, regardless of key   */
/* magnitude.                                                          */
/* ------------------------------------------------------------------ */
#define ORDER3(SUF, WARPT, STEPT)                                      \
EXPORT void order3_##SUF(                                              \
    const int32_t* wave, const WARPT* warp, const STEPT* step,         \
    int64_t n, int64_t vb, int64_t wb, int64_t sb,                     \
    int64_t* perm, int64_t* tmp_perm, int64_t* key_buf,                \
    int64_t* tmp_key, int64_t* count)                                  \
{                                                                      \
    for (int64_t i = 0; i < n; i++) {                                  \
        key_buf[i] = ((int64_t)wave[i] << (wb + sb))                   \
                   | ((int64_t)warp[i] << sb) | (int64_t)step[i];      \
        perm[i] = i;                                                   \
    }                                                                  \
    int flip = lsd_pairs(key_buf, tmp_key, perm, tmp_perm, n,          \
                         vb + wb + sb, count);                         \
    if (flip) memcpy(perm, tmp_perm, (size_t)n * sizeof(int64_t));     \
}

ORDER3(w32s32, int32_t, int32_t)
ORDER3(w32s64, int32_t, int64_t)
ORDER3(w64s32, int64_t, int32_t)
ORDER3(w64s64, int64_t, int64_t)

/* ------------------------------------------------------------------ */
/* Fused coalesce-and-emit: the dedup of first_occ3 followed by the    */
/* narrowing gathers the trace builder would otherwise run as five     */
/* separate NumPy passes, written straight into the builder's arena    */
/* columns (no per-call temporaries, no final concatenate).  Output    */
/* order is the bitkey-sorted order — identical to the NumPy path's    */
/* ``column[sel]``.  ``step == NULL`` means a constant step of         */
/* ``cstep``.  Returns the emitted transaction count.                  */
/* ------------------------------------------------------------------ */
EXPORT int64_t emit_coalesced(
    const int32_t* warp, const int64_t* step, int64_t cstep,
    const int64_t* line, const int32_t* sm, const int32_t* wave,
    int64_t n, int64_t wb, int64_t sb, int64_t lb,
    int64_t kind, int64_t seq_off,
    int64_t* perm, int64_t* tmp_perm, int64_t* key_buf, int64_t* tmp_key,
    int64_t* count,
    uint8_t* out_kind, int32_t* out_line, int32_t* out_sm,
    int32_t* out_warp, int32_t* out_wave, int32_t* out_step)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t k = ((int64_t)warp[i] << (sb + lb)) | line[i];
        if (step) k |= step[i] << lb;
        key_buf[i] = k;
        perm[i] = i;
    }
    int flip = lsd_pairs(key_buf, tmp_key, perm, tmp_perm, n,
                         wb + sb + lb, count);
    const int64_t* kin = flip ? tmp_key : key_buf;
    const int64_t* pin = flip ? tmp_perm : perm;
    int64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        if (i == 0 || kin[i] != kin[i - 1]) {
            int64_t p = pin[i];
            out_kind[m] = (uint8_t)kind;
            out_line[m] = (int32_t)line[p];
            out_sm[m] = sm[p];
            out_warp[m] = warp[p];
            out_wave[m] = wave[p];
            out_step[m] = (int32_t)((step ? step[p] : cstep) * 1024 + seq_off);
            m++;
        }
    }
    return m;
}

/* ------------------------------------------------------------------ */
/* Issue ordering as a stable k-way merge of presorted segments.       */
/*                                                                     */
/* Every arena segment leaves emit_coalesced sorted by (warp, step)    */
/* — and wave is monotone in warp (blocks ascend with warps) — so the  */
/* global (wave, warp, step) stable argsort is a merge of the          */
/* segments with ties broken by segment index (segments sit in append  */
/* order, so lower segment == lower global index; equal keys *within*  */
/* a segment keep their relative order, which the merge preserves).    */
/* The presortedness invariant is verified on the fly: any violation   */
/* aborts with -1 and the caller falls back to the radix sort.         */
/* Returns 0 on success.                                               */
/* ------------------------------------------------------------------ */
EXPORT int64_t merge_order_i32(
    const int32_t* wave, const int32_t* warp, const int32_t* step,
    const int64_t* seg_off, int64_t nseg, int64_t wb, int64_t sb,
    int64_t* heap_key, int64_t* heap_seg, int64_t* pos,
    int64_t* perm)
{
    int64_t hn = 0;
    for (int64_t s = 0; s < nseg; s++) {
        pos[s] = seg_off[s];
        if (seg_off[s] >= seg_off[s + 1]) continue;
        int64_t i = seg_off[s];
        int64_t k = ((int64_t)wave[i] << (wb + sb))
                  | ((int64_t)warp[i] << sb) | (int64_t)step[i];
        /* sift-up insert keyed by (key, seg); seg values are inserted
           ascending, so equal keys keep segment order. */
        int64_t c = hn++;
        while (c > 0) {
            int64_t par = (c - 1) >> 1;
            if (heap_key[par] <= k) break;
            heap_key[c] = heap_key[par];
            heap_seg[c] = heap_seg[par];
            c = par;
        }
        heap_key[c] = k;
        heap_seg[c] = s;
    }
    int64_t o = 0;
    while (hn > 0) {
        int64_t s = heap_seg[0];
        int64_t kprev = heap_key[0];
        int64_t i = pos[s]++;
        perm[o++] = i;
        int64_t k;
        int64_t seg2;
        if (pos[s] < seg_off[s + 1]) {
            int64_t j = pos[s];
            k = ((int64_t)wave[j] << (wb + sb))
              | ((int64_t)warp[j] << sb) | (int64_t)step[j];
            if (k < kprev) return -1; /* segment not presorted */
            seg2 = s;
        } else {
            hn--;
            if (hn == 0) break;
            k = heap_key[hn];
            seg2 = heap_seg[hn];
        }
        /* sift-down from the root with comparator (key, seg) */
        int64_t c = 0;
        for (;;) {
            int64_t l = 2 * c + 1;
            if (l >= hn) break;
            int64_t r = l + 1;
            int64_t best = l;
            if (r < hn && (heap_key[r] < heap_key[l] ||
                           (heap_key[r] == heap_key[l] &&
                            heap_seg[r] < heap_seg[l])))
                best = r;
            if (heap_key[best] < k ||
                (heap_key[best] == k && heap_seg[best] < seg2)) {
                heap_key[c] = heap_key[best];
                heap_seg[c] = heap_seg[best];
                c = best;
            } else {
                break;
            }
        }
        heap_key[c] = k;
        heap_seg[c] = seg2;
    }
    return 0;
}
"""
