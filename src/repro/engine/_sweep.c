/*
 * Algorithm 4.1's TEMP_S sweep as one native loop.
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
 */
#include <float.h>
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
