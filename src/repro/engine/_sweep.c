/*
 * Algorithm 4.1 in native code: the TEMP_S sweep (temps_sweep) and the
 * whole structure build that feeds it (structure_sweep).
 *
 * A line-for-line port of repro.engine.kernels.sweep_min_cut: the same
 * float expressions, the same comparisons, the same bisect_left tie rule
 * and the same evaluation order, so every weight is bit-identical to the
 * Python sweep.  Built with -ffp-contract=off and without fast-math; a
 * target that evaluates doubles in excess precision refuses to build
 * (and the caller falls back to Python) instead of drifting by an ulp.
 *
 * Rows of the TEMP_S queue live in parallel columns, TOP..BOTTOM;
 * "deleting" the rows below a split is a size reset.  Every edge pushes
 * at most one row, so r slots per column suffice.  Solution t is created
 * by edge t; the arena keeps only its predecessor id, because a row's W
 * always equals the cumulative weight of the solution it carries, so the
 * retired row's W is the predecessor weight.
 *
 * With index == NULL the arena and the per-row solution ids are skipped
 * and only the weight is returned.
 *
 * structure_sweep runs the O(n) structural phase of a query in one pass
 * over the chain's prefix and beta buffers -- prime windows, membership
 * intervals and the non-redundant edge reduction -- and hands the
 * reduced columns to temps_sweep.  It ports the reference in
 * repro.core.prime_subpaths (find_prime_subpaths, edge_membership_intervals,
 * reduce_edges) with the same comparisons, so its prime and edge columns
 * equal the NumPy kernels' in repro.engine.kernels.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision for a bit-identical sweep"
#endif

/* CPython's bisect_left over w[lo:hi]: the first row with w >= x. */
static int64_t bisect_left(const double *w, double x, int64_t lo, int64_t hi)
{
    while (lo < hi) {
        int64_t mid = (int64_t)(((uint64_t)lo + (uint64_t)hi) / 2);
        if (w[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/*
 * Sweep r reduced edges (columns weight/first/last, in edge order).
 * Stores the optimal weight in *out_weight.  With index != NULL, writes
 * the optimal cut's edge indices (ascending) to cut[0..k) and returns k;
 * with index == NULL returns 0.  Returns -1 if scratch allocation fails.
 */
int64_t temps_sweep(int64_t r, const double *weight, const int64_t *first,
                    const int64_t *last, const int64_t *index, int64_t *cut,
                    double *out_weight)
{
    /* One scratch block per call holds every column (doubles and
     * int64s share size and alignment): one allocation to check and to
     * free, and no state shared between calls. */
    size_t n = r > 0 ? (size_t)r : 1;
    double *row_w = malloc(n * (index != NULL ? 5 : 3) * sizeof(double));
    if (row_w == NULL)
        return -1;
    int64_t *row_lo = (int64_t *)(row_w + n);
    int64_t *row_hi = row_lo + n;
    int64_t *row_sol = index != NULL ? row_hi + n : NULL;
    int64_t *sol_prev = index != NULL ? row_sol + n : NULL;
    int64_t size = 0, top = 0, gamma = -1, count = 0;
    double gamma_w = 0.0;
    for (int64_t t = 0; t < r; t++) {
        double bw = weight[t], wv;
        int64_t fp = first[t], lp = last[t], prev;
        /* Retire primes completed before this edge (pop_completed). */
        while (top < size) {
            if (row_lo[top] >= fp)
                break;
            /* Weight-only mode needs gamma only as a "seen" flag. */
            gamma = index != NULL ? row_sol[top] : 0;
            gamma_w = row_w[top];
            if (row_hi[top] < fp) {
                top += 1; /* entire row retired */
            } else {
                row_lo[top] = fp; /* trim and stop */
                break;
            }
        }
        if (fp > 0 && gamma >= 0) {
            wv = bw + gamma_w;
            prev = gamma;
        } else {
            wv = bw;
            prev = -1;
        }
        if (index != NULL)
            sol_prev[t] = prev;
        /* First row (from TOP) whose W >= wv; replace it and everything
         * below with one row carrying wv, then open new subpaths. */
        int64_t split = bisect_left(row_w, wv, top, size);
        if (split < size) {
            int64_t bottom_hi = row_hi[size - 1];
            row_hi[split] = bottom_hi > lp ? bottom_hi : lp;
            row_w[split] = wv;
            if (index != NULL)
                row_sol[split] = t;
            size = split + 1;
        } else if (top >= size) {
            /* Queue drained: anchor a fresh row at this edge's range. */
            row_lo[size] = fp;
            row_hi[size] = lp;
            row_w[size] = wv;
            if (index != NULL)
                row_sol[size] = t;
            size += 1;
        } else if (lp > row_hi[size - 1]) {
            row_lo[size] = row_hi[size - 1] + 1;
            row_hi[size] = lp;
            row_w[size] = wv;
            if (index != NULL)
                row_sol[size] = t;
            size += 1;
        }
        /* else: wv exceeds every open minimum and opens nothing. */
    }
    if (top >= size) {
        *out_weight = 0.0;
    } else {
        /* Solution S_p sits in the BOTTOM row; walk its edge chain. */
        *out_weight = row_w[size - 1];
        if (index != NULL) {
            for (int64_t s = row_sol[size - 1]; s >= 0; s = sol_prev[s])
                count += 1;
            int64_t k = count;
            for (int64_t s = row_sol[size - 1]; s >= 0; s = sol_prev[s])
                cut[--k] = index[s];
        }
    }
    free(row_w);
    return count;
}

/*
 * The structure of a chain with n tasks at bound K, and its sweep.
 * prefix has n + 1 entries (prefix[0] = 0), beta n - 1.  Stores the
 * optimal weight in out[0] and the end of the bound's stability interval
 * (the smallest prime weight, NaN skipped; INFINITY if none) in out[1],
 * the prime count p in sizes[0] and the reduced edge count r in sizes[1].
 * With cut != NULL (room for n - 1 entries) writes the optimal cut and
 * returns its length; with cut == NULL returns 0.  Returns -1 if scratch
 * allocation fails.
 */
int64_t structure_sweep(int64_t n, const double *prefix, const double *beta,
                        double bound, int64_t *cut, double *out,
                        int64_t *sizes)
{
    size_t m = n > 1 ? (size_t)(n - 1) : 1;
    /* Prime first/last tasks, then the reduced columns weight, first
     * prime, last prime and edge index: 6 slots per edge. */
    int64_t *first = malloc(m * 6 * sizeof(int64_t));
    if (first == NULL)
        return -1;
    int64_t *last = first + m;
    double *e_weight = (double *)(last + m);
    int64_t *e_first = (int64_t *)(e_weight + m);
    int64_t *e_last = e_first + m;
    int64_t *e_index = e_last + m;
    double valid_until = INFINITY;

    /* Prime windows: for each a the smallest b >= a + 1 whose window
     * a..b is critical, !(prefix[b + 1] - prefix[a] <= bound), so a nan
     * gap counts as critical; b never decreases.  A candidate whose
     * successor ends at the same b is dominated and replaced. */
    int64_t p = 0, b = 0;
    for (int64_t a = 0; a < n; a++) {
        if (b <= a)
            b = a + 1;
        while (b < n && prefix[b + 1] - prefix[a] <= bound)
            b += 1;
        if (b == n)
            break;
        if (p > 0 && last[p - 1] == b) {
            first[p - 1] = a;
        } else {
            first[p] = a;
            last[p] = b;
            p += 1;
        }
    }
    for (int64_t i = 0; i < p; i++) {
        double w = prefix[last[i] + 1] - prefix[first[i]];
        if (w < valid_until) /* false for nan */
            valid_until = w;
    }

    /* Edge j lies in primes lo..hi (none when lo > hi); edges with the
     * same membership form one run, reduced to its leftmost minimum. */
    int64_t r = 0, lo = 0, hi = -1;
    for (int64_t j = 0; p > 0 && j < n - 1; j++) {
        while (lo < p && last[lo] - 1 < j)
            lo += 1;
        while (hi + 1 < p && first[hi + 1] <= j)
            hi += 1;
        if (lo > hi)
            continue;
        if (r > 0 && e_first[r - 1] == lo && e_last[r - 1] == hi) {
            if (beta[j] < e_weight[r - 1]) {
                e_weight[r - 1] = beta[j];
                e_index[r - 1] = j;
            }
        } else {
            e_weight[r] = beta[j];
            e_first[r] = lo;
            e_last[r] = hi;
            e_index[r] = j;
            r += 1;
        }
    }

    int64_t count = temps_sweep(r, e_weight, e_first, e_last,
                                cut != NULL ? e_index : NULL, cut, out);
    free(first);
    out[1] = valid_until;
    sizes[0] = p;
    sizes[1] = r;
    return count;
}
