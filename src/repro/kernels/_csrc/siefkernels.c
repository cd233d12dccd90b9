/* Compiled kernels for the SIEF hot loops (the "cext" tier).
 *
 * Five kernels, exactly mirroring the numpy reference implementations:
 *
 *   sief_bfs        - single-source CSR BFS with optional edge masking
 *                     and an allowed-vertex mask (repro.graph.frontier.
 *                     bfs_distances_csr).
 *   sief_bitparallel- 64-lane bit-parallel BFS sweep (bfs_bitparallel_csr).
 *   sief_relabel    - one full RELABEL direction pass: batched sweeps plus
 *                     the late redundancy filter, which reads dist(r, hub)
 *                     from the root's sweep row
 *                     (repro.core.batched._relabel_side_batched), its
 *                     entries exported via sief_relabel_export.
 *   sief_hub_join   - per-pair sorted-key merge join of two label slices
 *                     (repro.labeling.query.batch_dist_query), and
 *                     sief_hub_join_pair, the same join for one pair
 *                     (repro.labeling.query.dist_query).
 *   sief_pll_build  - full pruned-landmark-labeling construction
 *                     (repro.labeling.pll._build_pll_impl), exported to
 *                     the frozen flat layout via sief_pll_export.
 *
 * Bit-identity contract: every kernel produces exactly the values the
 * numpy tier produces - BFS distances are traversal-order independent,
 * settlements are counted per level the same way, the redundancy filter
 * walks supplemental entries in identical append order, and integer
 * hub-join sums are computed in 64-bit like numpy's widened adds.  The
 * differential fuzz adapters and the parity suites assert this.
 *
 * Compiled on demand by repro.kernels.cext_backend with the system C
 * compiler; no Python.h - everything crosses the boundary as raw typed
 * pointers via ctypes.  Return codes: 0 ok, -2 allocation failure; the
 * two builders that size their own output (sief_relabel, sief_pll_build)
 * return a handle instead, NULL on allocation failure.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SIEF_INF_I64 (INT64_MAX / 4)

/* ------------------------------------------------------------------ */
/* small helpers                                                      */
/* ------------------------------------------------------------------ */

static int64_t lower_bound_i64(const int64_t *arr, int64_t len, int64_t key)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (arr[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int64_t upper_bound_i64(const int64_t *arr, int64_t len, int64_t key)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = (lo + hi) / 2;
        if (arr[mid] <= key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* min over shared hubs of dists_a + dists_b (Equation 1) on the frozen
 * int32 flat labeling; SIEF_INF_I64 when the labels share no hub. */
static int64_t merge_min_sum_i32(const int64_t *offsets, const int32_t *hubs,
                                 const int32_t *dists, int64_t a, int64_t b)
{
    int64_t i = offsets[a], iend = offsets[a + 1];
    int64_t j = offsets[b], jend = offsets[b + 1];
    int64_t best = SIEF_INF_I64;
    while (i < iend && j < jend) {
        int32_t ha = hubs[i], hb = hubs[j];
        if (ha == hb) {
            int64_t tot = (int64_t)dists[i] + (int64_t)dists[j];
            if (tot < best)
                best = tot;
            i++;
            j++;
        } else if (ha < hb) {
            i++;
        } else {
            j++;
        }
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* sief_bfs                                                           */
/* ------------------------------------------------------------------ */

/* dist arrives prefilled with -1 and dist[source] == 0; avoid0/avoid1
 * are flat `indices` positions to skip (-1 = no masking); `allowed`
 * gates *entry* of vertices (the source is expanded regardless, exactly
 * like the numpy kernel's root exemption). */
int sief_bfs(int64_t n, const int64_t *indptr, const int32_t *indices,
             int64_t source, int64_t avoid0, int64_t avoid1,
             int32_t has_allowed, const uint8_t *allowed, int32_t *dist)
{
    int64_t *queue = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (queue == NULL)
        return -2;
    int64_t qhead = 0, qtail = 0;
    queue[qtail++] = source;
    while (qhead < qtail) {
        int64_t vtx = queue[qhead++];
        int32_t dnext = dist[vtx] + 1;
        int64_t end = indptr[vtx + 1];
        for (int64_t pos = indptr[vtx]; pos < end; pos++) {
            if (pos == avoid0 || pos == avoid1)
                continue;
            int32_t w = indices[pos];
            if (dist[w] != -1)
                continue;
            if (has_allowed && !allowed[w])
                continue;
            dist[w] = dnext;
            queue[qtail++] = w;
        }
    }
    free(queue);
    return 0;
}

/* ------------------------------------------------------------------ */
/* bit-parallel sweep (shared by sief_bitparallel and sief_relabel)   */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t *visited;   /* n */
    uint64_t *fb;        /* n: frontier lane bits                     */
    uint64_t *nb;        /* n: next-level accumulator                 */
    uint64_t *remaining; /* n: outstanding needed bits (may be NULL)  */
    int64_t *cur;        /* n: current frontier vertices              */
    int64_t *touched;    /* n: vertices reached this level            */
} sweep_scratch;

static int sweep_scratch_alloc(sweep_scratch *s, int64_t n, int want_remaining)
{
    memset(s, 0, sizeof(*s));
    s->visited = (uint64_t *)malloc((size_t)n * 8);
    s->fb = (uint64_t *)malloc((size_t)n * 8);
    s->nb = (uint64_t *)calloc((size_t)n, 8);
    s->cur = (int64_t *)malloc((size_t)n * 8);
    s->touched = (int64_t *)malloc((size_t)n * 8);
    s->remaining = want_remaining ? (uint64_t *)malloc((size_t)n * 8) : NULL;
    if (!s->visited || !s->fb || !s->nb || !s->cur || !s->touched ||
        (want_remaining && !s->remaining))
        return -2;
    return 0;
}

static void sweep_scratch_free(sweep_scratch *s)
{
    free(s->visited);
    free(s->fb);
    free(s->nb);
    free(s->cur);
    free(s->touched);
    free(s->remaining);
}

/* One level-synchronous bit-parallel sweep over k <= 64 roots.
 *
 * dist is a k*width row-major int32 matrix prefilled with -1.  Vertex
 * w's column is slot[w]; with slot NULL it is w itself and width is n.
 * A vertex whose slot is -1 is swept and counted but not recorded, so
 * a caller reading few vertices keeps a matrix of only those.  mask_pos
 * / mask_keep (sorted flat positions and the lane bits that *survive*
 * there) implement per-lane edge avoidance.  needed (may be NULL) is
 * the uint64 per-vertex bitmask of lanes that still owe that vertex a
 * distance; the sweep stops once every needed bit is settled.  Returns
 * the settlement count (roots included), matching the numpy kernel's
 * `settled`.
 */
static int64_t bitparallel_sweep(int64_t n, const int64_t *indptr,
                                 const int32_t *indices, int64_t k,
                                 const int64_t *roots, int64_t npos,
                                 const int64_t *mask_pos,
                                 const uint64_t *mask_keep,
                                 const uint64_t *needed, const int64_t *slot,
                                 int64_t width, int32_t *dist,
                                 sweep_scratch *s)
{
    memset(s->visited, 0, (size_t)n * 8);
    /* nb is maintained all-zero between levels; fb only holds live
     * frontier bits (stale entries are unreachable - visited gates
     * re-entry), so neither needs a full clear here. */
    int64_t cur_len = 0;
    int64_t settled = k;
    for (int64_t i = 0; i < k; i++) {
        int64_t r = roots[i];
        uint64_t bit = (uint64_t)1 << i;
        if (s->fb[r] == 0)
            s->cur[cur_len++] = r;
        else if ((s->fb[r] & bit) == 0) {
            /* another lane already queued this vertex; merge bits */
        }
        s->fb[r] |= bit;
        s->visited[r] |= bit;
        int64_t col = slot ? slot[r] : r;
        if (col >= 0)
            dist[i * width + col] = 0;
    }
    int64_t rem_nonzero = 0;
    if (needed != NULL) {
        for (int64_t w = 0; w < n; w++) {
            uint64_t rm = needed[w] & ~s->visited[w];
            s->remaining[w] = rm;
            if (rm)
                rem_nonzero++;
        }
        if (rem_nonzero == 0) {
            for (int64_t c = 0; c < cur_len; c++)
                s->fb[s->cur[c]] = 0;
            return settled;
        }
    }
    int32_t level = 0;
    while (cur_len > 0) {
        level++;
        int64_t tn = 0;
        for (int64_t c = 0; c < cur_len; c++) {
            int64_t v = s->cur[c];
            uint64_t bits = s->fb[v];
            int64_t pos = indptr[v], end = indptr[v + 1];
            /* The masked positions inside this adjacency slice, walked
             * in step with it: one compare per edge, not a search. */
            int64_t m = lower_bound_i64(mask_pos, npos, pos);
            int64_t next = m < npos ? mask_pos[m] : end;
            for (; pos < end; pos++) {
                uint64_t b = bits;
                if (pos == next) {
                    b &= mask_keep[m]; /* first match, as a search finds */
                    while (m < npos && mask_pos[m] == pos)
                        m++;
                    next = m < npos ? mask_pos[m] : end;
                    if (b == 0)
                        continue;
                }
                int32_t w = indices[pos];
                uint64_t nw = b & ~s->visited[w];
                if (nw) {
                    if (s->nb[w] == 0)
                        s->touched[tn++] = w;
                    s->nb[w] |= nw;
                }
            }
        }
        for (int64_t c = 0; c < cur_len; c++)
            s->fb[s->cur[c]] = 0;
        cur_len = 0;
        if (tn == 0)
            break;
        for (int64_t j = 0; j < tn; j++) {
            int64_t w = s->touched[j];
            uint64_t nw = s->nb[w];
            s->nb[w] = 0;
            s->visited[w] |= nw;
            s->fb[w] = nw;
            s->cur[cur_len++] = w;
            settled += __builtin_popcountll(nw);
            int64_t col = slot ? slot[w] : w;
            if (col >= 0) {
                for (uint64_t x = nw; x; x &= x - 1)
                    dist[(int64_t)__builtin_ctzll(x) * width + col] = level;
            }
            if (needed != NULL && s->remaining[w]) {
                s->remaining[w] &= ~nw;
                if (s->remaining[w] == 0)
                    rem_nonzero--;
            }
        }
        if (needed != NULL && rem_nonzero == 0)
            break;
    }
    for (int64_t c = 0; c < cur_len; c++)
        s->fb[s->cur[c]] = 0;
    return settled;
}

int64_t sief_bitparallel(int64_t n, const int64_t *indptr,
                         const int32_t *indices, int64_t k,
                         const int64_t *roots, int64_t npos,
                         const int64_t *mask_pos, const uint64_t *mask_keep,
                         int32_t has_needed, const uint64_t *needed,
                         int32_t *dist)
{
    sweep_scratch s;
    if (sweep_scratch_alloc(&s, n, has_needed) != 0) {
        sweep_scratch_free(&s);
        return -2;
    }
    memset(s.fb, 0, (size_t)n * 8);
    int64_t settled = bitparallel_sweep(n, indptr, indices, k, roots, npos,
                                        mask_pos, mask_keep,
                                        has_needed ? needed : NULL, NULL, n,
                                        dist, &s);
    sweep_scratch_free(&s);
    return settled;
}

/* ------------------------------------------------------------------ */
/* sief_relabel                                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t next; /* next entry of the same target, -1 at the chain's end */
    int64_t t;    /* target vertex */
    int64_t rank; /* rank of the root that appended it: the hub */
    int64_t root; /* that root's index in `roots`, its column in a row */
    int64_t dist;
} relabel_entry;

typedef struct {
    relabel_entry *e;
    int64_t len;
    int64_t cap;
} relabel_out;

void sief_relabel_free(void *handle)
{
    relabel_out *out = (relabel_out *)handle;
    if (out != NULL)
        free(out->e);
    free(out);
}

/* One RELABEL direction pass (roots side A ascending rank, targets
 * side B ascending rank), 64 roots per bit-parallel sweep, followed by
 * the identical late redundancy filter in identical order.
 *
 * The sweep records only the pass's own vertices: root j's column is
 * j and target j's is nroots + j, so one batch's matrix is
 * k x (nroots + ntargets).  Every hub the filter meets in SL(t) is an
 * earlier root of this pass, on the same side as the current root r,
 * where the failure changes no distance (Case 3): root i's row already
 * holds dist(r, hub) wherever the sweep settled the hub.  Where the
 * early exit left it unsettled, the filter runs the label merge and
 * stores its answer in that cell, so the row is the per-root cache.
 *
 * `roots` is the FULL side (ascending rank); `nlive` is the live
 * prefix (roots ranked below some target).  Batches start only inside
 * the live prefix but, exactly like the numpy loop's unclamped
 * `roots[b0 : b0 + 64]` slice, a batch straddling the boundary carries
 * the dead roots beyond it as extra lanes — they append nothing, yet
 * their settlements count, and search_expanded must match bit-for-bit.
 *
 * Appended entries go to a growable buffer behind an opaque handle;
 * per-target chains through it reproduce SL(t) in append order for the
 * filter's walk.  stats[0] = appended entries (the size the caller
 * allocates for sief_relabel_export), stats[1] = total settlements (the
 * `search_expanded` contribution), stats[2] = label merges run by the
 * filter.  Returns NULL on allocation failure (everything already
 * allocated is released); release the handle with sief_relabel_free.
 */
void *sief_relabel(int64_t n, const int64_t *indptr, const int32_t *indices,
                   int64_t avoid0, int64_t avoid1, int64_t nroots,
                   int64_t nlive, const int64_t *roots,
                   const int64_t *root_ranks, int64_t ntargets,
                   const int64_t *targets, const int64_t *target_ranks,
                   const int64_t *L_offsets, const int32_t *L_hubs,
                   const int32_t *L_dists, int64_t *stats)
{
    stats[0] = stats[1] = stats[2] = 0;
    relabel_out *out = (relabel_out *)calloc(1, sizeof(relabel_out));
    if (out == NULL)
        return NULL;
    if (nlive == 0 || nroots == 0 || ntargets == 0)
        return out;

    int64_t width = nroots + ntargets;
    sweep_scratch s;
    int ok = sweep_scratch_alloc(&s, n, 1) == 0;
    int32_t *dist = (int32_t *)malloc((size_t)64 * (size_t)width * 4);
    uint64_t *needed = (uint64_t *)calloc((size_t)n, 8);
    int64_t *slot = (int64_t *)malloc((size_t)n * 8);
    int64_t *head = (int64_t *)malloc((size_t)ntargets * 8);
    int64_t *tail = (int64_t *)malloc((size_t)ntargets * 8);
    if (!ok || !dist || !needed || !slot || !head || !tail)
        goto fail;
    memset(s.fb, 0, (size_t)n * 8);
    memset(slot, 0xFF, (size_t)n * 8); /* int64 -1 fill */
    for (int64_t j = 0; j < nroots; j++)
        slot[roots[j]] = j;
    for (int64_t j = 0; j < ntargets; j++) {
        slot[targets[j]] = nroots + j;
        head[j] = tail[j] = -1;
    }

    /* Both flat positions of the failed edge block every lane. */
    int64_t mask_pos[2];
    uint64_t mask_keep[2] = {0, 0};
    if (avoid0 <= avoid1) {
        mask_pos[0] = avoid0;
        mask_pos[1] = avoid1;
    } else {
        mask_pos[0] = avoid1;
        mask_pos[1] = avoid0;
    }

    for (int64_t b0 = 0; b0 < nlive; b0 += 64) {
        int64_t k = nroots - b0; /* unclamped: dead lanes ride along */
        if (k > 64)
            k = 64;
        /* needed[t]: the prefix of batch lanes ranked below t.  Only
         * target entries are ever set, and each batch rewrites them all. */
        for (int64_t j = 0; j < ntargets; j++) {
            int64_t cnt =
                lower_bound_i64(root_ranks + b0, k, target_ranks[j]);
            uint64_t mask =
                cnt >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << cnt) - 1);
            needed[targets[j]] = mask;
        }
        memset(dist, 0xFF, (size_t)k * (size_t)width * 4); /* int32 -1 */
        stats[1] += bitparallel_sweep(n, indptr, indices, k, roots + b0, 2,
                                      mask_pos, mask_keep, needed, slot,
                                      width, dist, &s);

        for (int64_t i = 0; i < k; i++) {
            int64_t r = roots[b0 + i];
            int64_t r_rank = root_ranks[b0 + i];
            int64_t p0 = upper_bound_i64(target_ranks, ntargets, r_rank);
            int32_t *row = dist + i * width;
            for (int64_t j = p0; j < ntargets; j++) {
                int32_t d = row[nroots + j];
                if (d < 0)
                    continue; /* failure disconnected r from t */
                int redundant = 0;
                for (int64_t e = head[j]; e != -1; e = out->e[e].next) {
                    const relabel_entry *ent = &out->e[e];
                    int64_t via = row[ent->root];
                    if (via < 0) {
                        via = merge_min_sum_i32(L_offsets, L_hubs, L_dists, r,
                                                roots[ent->root]);
                        /* INT32_MAX: no shared hub, never <= d */
                        row[ent->root] =
                            via < INT32_MAX ? (int32_t)via : INT32_MAX;
                        stats[2]++;
                    }
                    if (via + ent->dist <= (int64_t)d) {
                        redundant = 1;
                        break;
                    }
                }
                if (redundant)
                    continue;
                if (out->len == out->cap) {
                    int64_t ncap = out->cap ? 2 * out->cap : 4 * width;
                    relabel_entry *ne = (relabel_entry *)realloc(
                        out->e, (size_t)ncap * sizeof(relabel_entry));
                    if (ne == NULL)
                        goto fail;
                    out->e = ne;
                    out->cap = ncap;
                }
                int64_t a = out->len++;
                out->e[a] = (relabel_entry){-1, targets[j], r_rank, b0 + i, d};
                if (head[j] == -1)
                    head[j] = a;
                else
                    out->e[tail[j]].next = a;
                tail[j] = a;
            }
        }
    }
    stats[0] = out->len;
    goto done;
fail:
    sief_relabel_free(out);
    out = NULL;
done:
    sweep_scratch_free(&s);
    free(dist);
    free(needed);
    free(slot);
    free(head);
    free(tail);
    return out;
}

int sief_relabel_export(void *handle, int64_t *out_t, int64_t *out_rank,
                        int64_t *out_dist)
{
    relabel_out *out = (relabel_out *)handle;
    for (int64_t a = 0; a < out->len; a++) {
        out_t[a] = out->e[a].t;
        out_rank[a] = out->e[a].rank;
        out_dist[a] = out->e[a].dist;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* sief_hub_join                                                      */
/* ------------------------------------------------------------------ */

/* Two things make this loop fast, neither changing a single answer:
 *
 * - The merge is branchless on the hot comparisons: hub order between
 *   the two slices is essentially random, so `ha < hb` branches
 *   mispredict half the time — conditional-increment pointer advances
 *   and a cmov-able minimum keep the pipeline full.  Initializing
 *   `best` to the accumulator's own infinity (INT64_MAX / IEEE inf)
 *   replaces the found-flag: no label sum can reach it, and the
 *   minimum over the identical candidate set is the identical value.
 *
 * - Four pairs are merged in interleaved lanes.  One merge is a
 *   serial dependency chain (each step's loads wait on the previous
 *   step's pointer update, ~6 cycles round trip), so a lone merge
 *   leaves most of the core idle; four independent chains overlap in
 *   the out-of-order window.  A finished lane parks with its `i >= e`
 *   test false — a perfectly predicted branch — until the slowest
 *   lane drains.  Each lane computes exactly what the scalar loop
 *   computes for its pair.
 *
 * sief_hub_join reads `pairs` as interleaved (s, t) int64 ids and
 * answers 0.0 for s == t, as the numpy reference does.
 * sief_hub_join_pair answers one pair and returns the accumulator
 * itself, its infinity included, so an integral labeling's answer
 * stays an exact integer instead of a double.
 */
#define HUB_LANE_INIT(L, acc, acc_inf)                                        \
    int64_t s##L = pairs[2 * (q + L)], t##L = pairs[2 * (q + L) + 1];         \
    int64_t i##L = offsets[s##L], e##L = offsets[s##L + 1];                   \
    int64_t j##L = offsets[t##L], f##L = offsets[t##L + 1];                   \
    acc b##L = acc_inf;

#define HUB_LANE_STEP(L, acc)                                                 \
    if (i##L < e##L && j##L < f##L) {                                         \
        int32_t ha = hubs[i##L], hb = hubs[j##L];                             \
        acc tot = (acc)dists[i##L] + (acc)dists[j##L];                        \
        if (ha == hb && tot < b##L)                                           \
            b##L = tot;                                                       \
        i##L += (ha <= hb);                                                   \
        j##L += (hb <= ha);                                                   \
        more = 1;                                                             \
    }

#define HUB_LANE_OUT(L, acc_inf)                                              \
    out[q + L] = (s##L == t##L)   ? 0.0                                       \
                 : (b##L == acc_inf) ? INFINITY                               \
                                     : (double)b##L;

#define DEFINE_HUB_JOIN(suffix, dtype, acc, acc_inf)                          \
    static inline acc hub_join_one_##suffix(                                  \
        const int64_t *offsets, const int32_t *hubs, const dtype *dists,      \
        int64_t s, int64_t t)                                                 \
    {                                                                         \
        int64_t i = offsets[s], iend = offsets[s + 1];                        \
        int64_t j = offsets[t], jend = offsets[t + 1];                        \
        acc best = acc_inf;                                                   \
        while (i < iend && j < jend) {                                        \
            int32_t ha = hubs[i], hb = hubs[j];                               \
            acc tot = (acc)dists[i] + (acc)dists[j];                          \
            if (ha == hb && tot < best)                                       \
                best = tot;                                                   \
            i += (ha <= hb);                                                  \
            j += (hb <= ha);                                                  \
        }                                                                     \
        return best;                                                          \
    }                                                                         \
                                                                              \
    int sief_hub_join_##suffix(                                               \
        const int64_t *offsets, const int32_t *hubs, const dtype *dists,      \
        int64_t npairs, const int64_t *pairs, double *out)                    \
    {                                                                         \
        int64_t q = 0;                                                        \
        for (; q + 4 <= npairs; q += 4) {                                     \
            HUB_LANE_INIT(0, acc, acc_inf)                                    \
            HUB_LANE_INIT(1, acc, acc_inf)                                    \
            HUB_LANE_INIT(2, acc, acc_inf)                                    \
            HUB_LANE_INIT(3, acc, acc_inf)                                    \
            int more = 1;                                                     \
            while (more) {                                                    \
                more = 0;                                                     \
                HUB_LANE_STEP(0, acc)                                         \
                HUB_LANE_STEP(1, acc)                                         \
                HUB_LANE_STEP(2, acc)                                         \
                HUB_LANE_STEP(3, acc)                                         \
            }                                                                 \
            HUB_LANE_OUT(0, acc_inf)                                          \
            HUB_LANE_OUT(1, acc_inf)                                          \
            HUB_LANE_OUT(2, acc_inf)                                          \
            HUB_LANE_OUT(3, acc_inf)                                          \
        }                                                                     \
        for (; q < npairs; q++) {                                             \
            int64_t s = pairs[2 * q], t = pairs[2 * q + 1];                   \
            acc best = hub_join_one_##suffix(offsets, hubs, dists, s, t);     \
            out[q] = (s == t)             ? 0.0                               \
                     : (best == acc_inf) ? INFINITY                           \
                                         : (double)best;                      \
        }                                                                     \
        return 0;                                                             \
    }                                                                         \
                                                                              \
    acc sief_hub_join_pair_##suffix(                                          \
        const int64_t *offsets, const int32_t *hubs, const dtype *dists,      \
        int64_t s, int64_t t)                                                 \
    {                                                                         \
        return hub_join_one_##suffix(offsets, hubs, dists, s, t);             \
    }

DEFINE_HUB_JOIN(i32, int32_t, int64_t, INT64_MAX)
DEFINE_HUB_JOIN(i64, int64_t, int64_t, INT64_MAX)
DEFINE_HUB_JOIN(f64, double, double, INFINITY)

/* ------------------------------------------------------------------ */
/* sief_pll_build / sief_pll_export / sief_pll_free                   */
/* ------------------------------------------------------------------ */

/* Full pruned-landmark-labeling construction, mirroring
 * repro.labeling.pll._build_pll_impl line for line: one BFS per root in
 * ascending rank order, the scatter/prune discipline over the root's
 * existing labels, appends in (rank, dist) order, CSR adjacency walked
 * in slice order.  Because every loop visits vertices in the same order
 * as the Python reference, the exported flat arrays are byte-identical
 * to Labeling.freeze() of the pure-Python build.
 *
 * Labels accumulate in per-vertex growable buffers of interleaved
 * (rank, dist) int32 pairs behind an opaque handle; the ctypes caller
 * reads the total, allocates the flat numpy arrays, and calls
 * sief_pll_export to fill them.  sief_pll_build returns NULL on
 * allocation failure (everything already allocated is released).
 */

typedef struct {
    int32_t *data; /* interleaved pairs: data[2i] = rank, data[2i+1] = dist */
    int64_t len;   /* pairs used */
    int64_t cap;   /* pairs allocated */
} pll_row;

typedef struct {
    int64_t n;
    int64_t total; /* total pairs across all rows */
    pll_row *rows;
} pll_handle;

static int pll_row_append(pll_row *row, int32_t rank, int32_t dist)
{
    if (row->len == row->cap) {
        int64_t ncap = row->cap ? row->cap * 2 : 4;
        int32_t *nd = (int32_t *)realloc(row->data, (size_t)ncap * 8);
        if (nd == NULL)
            return -2;
        row->data = nd;
        row->cap = ncap;
    }
    row->data[2 * row->len] = rank;
    row->data[2 * row->len + 1] = dist;
    row->len++;
    return 0;
}

void sief_pll_free(void *handle)
{
    pll_handle *h = (pll_handle *)handle;
    if (h == NULL)
        return;
    if (h->rows != NULL) {
        for (int64_t v = 0; v < h->n; v++)
            free(h->rows[v].data);
        free(h->rows);
    }
    free(h);
}

void *sief_pll_build(int64_t n, const int64_t *indptr, const int32_t *indices,
                     const int64_t *vertex_at, int64_t *total_out)
{
    pll_handle *h = (pll_handle *)calloc(1, sizeof(pll_handle));
    int32_t *root_cover = (int32_t *)malloc((size_t)n * 4);
    int32_t *dist = (int32_t *)malloc((size_t)n * 4);
    int64_t *queue = (int64_t *)malloc((size_t)n * 8);
    int64_t *touched = (int64_t *)malloc((size_t)n * 8);
    if (h != NULL)
        h->rows = (pll_row *)calloc((size_t)(n > 0 ? n : 1), sizeof(pll_row));
    if (h == NULL || h->rows == NULL || root_cover == NULL || dist == NULL ||
        queue == NULL || touched == NULL)
        goto fail;
    h->n = n;
    memset(root_cover, 0xFF, (size_t)n * 4); /* int32 -1 fill */
    memset(dist, 0xFF, (size_t)n * 4);

    for (int64_t rank = 0; rank < n; rank++) {
        int64_t root = vertex_at[rank];
        pll_row *row_root = &h->rows[root];
        int64_t old_len = row_root->len; /* labels before this round */
        for (int64_t i = 0; i < old_len; i++)
            root_cover[row_root->data[2 * i]] = row_root->data[2 * i + 1];

        dist[root] = 0;
        int64_t tn = 0;
        touched[tn++] = root;
        int64_t qhead = 0, qtail = 0;
        queue[qtail++] = root;
        while (qhead < qtail) {
            int64_t v = queue[qhead++];
            int32_t d = dist[v];
            /* Prune test: dist(root, v, L) <= d using existing labels. */
            pll_row *row_v = &h->rows[v];
            int covered = 0;
            for (int64_t i = 0; i < row_v->len; i++) {
                int32_t rc = root_cover[row_v->data[2 * i]];
                if (rc != -1 &&
                    (int64_t)rc + row_v->data[2 * i + 1] <= (int64_t)d) {
                    covered = 1;
                    break;
                }
            }
            if (covered)
                continue;
            if (pll_row_append(row_v, (int32_t)rank, d) != 0)
                goto fail;
            h->total++;
            int32_t nd = d + 1;
            int64_t end = indptr[v + 1];
            for (int64_t pos = indptr[v]; pos < end; pos++) {
                int32_t w = indices[pos];
                if (dist[w] == -1) {
                    dist[w] = nd;
                    touched[tn++] = w;
                    queue[qtail++] = w;
                }
            }
        }

        for (int64_t i = 0; i < old_len; i++)
            root_cover[row_root->data[2 * i]] = -1;
        root_cover[rank] = -1; /* root labeled itself this round */
        for (int64_t j = 0; j < tn; j++)
            dist[touched[j]] = -1;
    }

    free(root_cover);
    free(dist);
    free(queue);
    free(touched);
    *total_out = h->total;
    return h;

fail:
    free(root_cover);
    free(dist);
    free(queue);
    free(touched);
    sief_pll_free(h);
    return NULL;
}

int sief_pll_export(void *handle, int64_t *offsets, int32_t *hubs,
                    int32_t *dists)
{
    pll_handle *h = (pll_handle *)handle;
    int64_t pos = 0;
    offsets[0] = 0;
    for (int64_t v = 0; v < h->n; v++) {
        pll_row *row = &h->rows[v];
        for (int64_t i = 0; i < row->len; i++) {
            hubs[pos] = row->data[2 * i];
            dists[pos] = row->data[2 * i + 1];
            pos++;
        }
        offsets[v + 1] = pos;
    }
    return 0;
}
