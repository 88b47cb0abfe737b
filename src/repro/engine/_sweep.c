/*
 * The paper's solvers in native code, five entries.  Algorithm 4.1: the
 * TEMP_S sweep (temps_sweep), the whole structure build that feeds it
 * (structure_sweep), and the one pass that freezes a chain's weights
 * (chain_freeze).  Algorithms 2.1 and 2.2 on a tree: the sorted
 * union-find sweep (tree_sweep) and the Section 2.2 pruning of its
 * components (tree_prune).
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
 *
 * chain_freeze is repro.graphs.chain.Chain's validation and prefix
 * pass; it adds left to right, as the stdlib freeze's
 * itertools.accumulate does, so both give the same prefix bytes.
 *
 * tree_sweep and tree_prune port repro.graphs.tree (edges_by_weight,
 * _merge, _tops) and the pruning loop of
 * repro.core.pipeline.partition_tree: the same sort order, the same
 * union-find tie direction, and every float sum in Python's order.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/*
 * Freeze a chain of n tasks: validate alpha[0..n) and beta[0..n-1),
 * write prefix[0..n] (prefix[0] = 0, prefix[i + 1] = prefix[i] +
 * alpha[i]; an overflowed sum is inf) and store each -0.0 in beta as
 * 0.0.  Returns the largest task weight, or -1.0 when some weight is
 * out of range (alpha outside (0, inf), beta outside [0, inf), NaN
 * included); the caller then names the first bad weight.
 */
double chain_freeze(int64_t n, const double *alpha, double *beta,
                    double *prefix)
{
    double total = 0.0, top = 0.0;
    int valid = 1;
    prefix[0] = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double a = alpha[i];
        if (!(a > 0.0 && a < INFINITY))
            valid = 0;
        if (a > top)
            top = a;
        total += a;
        prefix[i + 1] = total;
    }
    for (int64_t i = 0; i + 1 < n; i++) {
        double b = beta[i];
        if (!(b >= 0.0 && b < INFINITY))
            valid = 0;
        else if (b == 0.0)
            beta[i] = 0.0; /* -0.0 == 0.0: store the positive zero */
    }
    return valid ? top : -1.0;
}

/*
 * An edge of a tree, named by its child vertex, with a sort key: a
 * weight, then a distinct tie code.  No key weight is NaN (the
 * constructors reject NaN, and tree_prune stops at the first total that
 * overflows, before inf - inf), so the order is total and any sort
 * gives the one result Python's stable sort gives.  -0.0 and 0.0 tie
 * under <, as in Python.
 */
struct tree_edge {
    double weight;
    int64_t code;
    int64_t child;
};

/* Whether x sorts before y: lighter, or as heavy with a smaller code. */
static int edge_before(const struct tree_edge *x, const struct tree_edge *y)
{
    return x->weight < y->weight
           || (!(y->weight < x->weight) && x->code < y->code);
}

/* Sort edge[0..count) by edge_before: insertion-sorted runs of 16, then
 * merge passes between edge and tmp (room for count records). */
static void sort_edges(struct tree_edge *edge, struct tree_edge *tmp,
                       int64_t count)
{
    const int64_t run = 16;
    for (int64_t lo = 0; lo < count; lo += run) {
        int64_t hi = lo + run < count ? lo + run : count;
        for (int64_t i = lo + 1; i < hi; i++) {
            struct tree_edge e = edge[i];
            int64_t j = i;
            for (; j > lo && edge_before(&e, &edge[j - 1]); j--)
                edge[j] = edge[j - 1];
            edge[j] = e;
        }
    }
    struct tree_edge *src = edge, *dst = tmp;
    for (int64_t width = run; width < count; width *= 2) {
        for (int64_t lo = 0; lo < count; lo += 2 * width) {
            int64_t mid = lo + width < count ? lo + width : count;
            int64_t hi = lo + 2 * width < count ? lo + 2 * width : count;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = edge_before(&src[j], &src[i]) ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        struct tree_edge *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != edge)
        memcpy(edge, src, (size_t)count * sizeof *edge);
}

/*
 * Algorithm 2.1 on a tree of n vertices rooted at 0: weight, parent
 * (-1 at the root), parent_weight (the weight of edge {v, parent[v]})
 * and the BFS order, each n entries.
 *
 * Writes the n - 1 edges (child vertices) to by_weight by (weight,
 * canonical code lo * n + hi), merges them heaviest first in a
 * union-find by size (the child's root keeps a tie, no path
 * compression) and stops at
 * the first merge weighing over bound; returns that boundary, so
 * by_weight[0..boundary) is the cut.  With top != NULL also writes each
 * vertex's component top (0, or the child of the cut edge above it) to
 * top and each top's union-find sum to sums (0.0 at other vertices).
 * Returns -1 if scratch allocation fails.
 */
int64_t tree_sweep(int64_t n, const double *weight, const int64_t *parent,
                   const double *parent_weight, const int64_t *order,
                   double bound, int64_t *by_weight, int64_t *top, double *sums)
{
    size_t slots = n > 0 ? (size_t)n : 1;
    /* root, size and sum per vertex, then the sort records and their
     * merge scratch. */
    int64_t *root = malloc(slots * 3 * sizeof(int64_t)
                           + slots * 2 * sizeof(struct tree_edge));
    if (root == NULL)
        return -1;
    int64_t *size = root + slots;
    double *sum = (double *)(size + slots);
    struct tree_edge *edge = (struct tree_edge *)(sum + slots);
    int64_t m = 0, boundary = 0;

    for (int64_t v = 0; v < n; v++) {
        int64_t p = parent[v];
        if (p < 0)
            continue;
        edge[m].weight = parent_weight[v];
        edge[m].code = v < p ? v * n + p : p * n + v;
        edge[m].child = v;
        m += 1;
    }
    sort_edges(edge, edge + slots, m);
    for (int64_t i = 0; i < m; i++)
        by_weight[i] = edge[i].child;

    for (int64_t v = 0; v < n; v++) {
        root[v] = v;
        size[v] = 1;
        sum[v] = weight[v];
    }
    for (int64_t idx = m - 1; idx >= 0; idx--) {
        int64_t ru = by_weight[idx], rv = parent[ru];
        while (root[ru] != ru)
            ru = root[ru];
        while (root[rv] != rv)
            rv = root[rv];
        double merged = sum[ru] + sum[rv];
        if (merged > bound) {
            boundary = idx + 1;
            break;
        }
        if (size[ru] < size[rv]) {
            int64_t swap = ru;
            ru = rv;
            rv = swap;
        }
        root[rv] = ru;
        size[ru] += size[rv];
        sum[ru] = merged;
    }

    if (top != NULL) {
        for (int64_t v = 0; v < n; v++)
            top[v] = parent[v];
        for (int64_t i = 0; i < boundary; i++)
            top[by_weight[i]] = by_weight[i];
        if (n > 0)
            top[0] = 0;
        for (int64_t i = 0; i < n; i++) /* a parent's top is final first */
            top[order[i]] = top[top[order[i]]];
        for (int64_t v = 0; v < n; v++)
            sums[v] = 0.0;
        for (int64_t v = 0; v < n; v++)
            if (root[v] == v)
                sums[top[v]] = sum[v];
    }
    free(root);
    return boundary;
}

/*
 * Python's sum() over the residuals of kid[d - 1], ..., kid[0] (d >= 1):
 * it starts from the int 0, so the first add is 0.0 + x.  With
 * compensated != 0 it is CPython 3.12's compensated float sum
 * (Neumaier's), else plain left-to-right adds.
 */
static double children_sum(const double *residual, const int64_t *kid,
                           int64_t d, int64_t compensated)
{
    double s = 0.0 + residual[kid[d - 1]], c = 0.0;
    for (int64_t j = d - 2; j >= 0; j--) {
        double x = residual[kid[j]];
        if (!compensated) {
            s += x;
            continue;
        }
        double t = s + x;
        if (fabs(s) >= fabs(x))
            c += (s - t) + x;
        else
            c += (x - t) + s;
        s = t;
    }
    if (c != 0.0 && isfinite(c))
        s += c;
    return s;
}

/*
 * Section 2.2 on Algorithm 2.1's components: tree_sweep's top and sums
 * (read, not written), the tree's parent and BFS order, and the cut's
 * count child vertices in the order Python hands them over.  Each
 * component takes the children hanging below it in that order; the
 * components are reduced children first (reverse BFS order of their
 * tops).  One sums its residual and its children's, the children in
 * reverse, and while the total exceeds bound prunes the heaviest child
 * (stable among equals); when equal weights straddle the cut-off, the
 * children are re-sorted by (weight descending, lowest vertex).  Writes
 * the pruned children to pruned in that order and returns their count;
 * returns -1 if scratch allocation fails and -2, writing nothing of use,
 * when a total over the bound is inf (which children to prune is then
 * not computable).
 */
int64_t tree_prune(int64_t n, const int64_t *parent, const int64_t *order,
                   const int64_t *top, const double *sums, int64_t count,
                   const int64_t *children, double bound,
                   int64_t compensated, int64_t *pruned)
{
    size_t slots = n > 0 ? (size_t)n : 1, edges = count > 0 ? (size_t)count : 1;
    /* residual and low per vertex, n + 1 group starts, then the grouped
     * children, their sort records and the merge scratch. */
    double *residual = malloc((slots * 3 + 1 + edges) * sizeof(int64_t)
                              + edges * 2 * sizeof(struct tree_edge));
    if (residual == NULL)
        return -1;
    int64_t *low = (int64_t *)(residual + slots);
    int64_t *start = low + slots;
    int64_t *kid = start + slots + 1;
    struct tree_edge *rec = (struct tree_edge *)(kid + edges);
    int64_t out = 0;

    memcpy(residual, sums, (size_t)n * sizeof(double));
    /* Group the children by the top above them, keeping their order: a
     * counting sort that leaves start[t]..start[t + 1] as t's group. */
    for (int64_t t = 0; t <= n; t++)
        start[t] = 0;
    for (int64_t i = 0; i < count; i++)
        start[top[parent[children[i]]]] += 1;
    for (int64_t t = 1; t <= n; t++)
        start[t] += start[t - 1];
    for (int64_t i = count - 1; i >= 0; i--)
        kid[--start[top[parent[children[i]]]]] = children[i];
    for (int64_t v = n - 1; v >= 0; v--) /* each top's lowest vertex */
        low[top[v]] = v;

    for (int64_t i = n - 1; i >= 0; i--) {
        int64_t v = order[i], first = start[v], d = start[v + 1] - first;
        if (d == 0)
            continue;
        double total = residual[v] + children_sum(residual, kid + first, d,
                                                  compensated);
        if (total > bound) {
            if (total == INFINITY) {
                free(residual);
                return -2;
            }
            /* Heaviest first: by -residual, ties in group order. */
            int64_t k = 0;
            for (int64_t j = 0; j < d; j++) {
                rec[j].weight = -residual[kid[first + j]];
                rec[j].code = j;
                rec[j].child = kid[first + j];
            }
            sort_edges(rec, rec + edges, d);
            for (; k < d; k++) {
                if (total <= bound)
                    break;
                total -= residual[rec[k].child];
            }
            if (k < d && residual[rec[k - 1].child] == residual[rec[k].child]) {
                for (int64_t j = 0; j < d; j++)
                    rec[j].code = low[rec[j].child];
                sort_edges(rec, rec + edges, d);
            }
            for (int64_t j = 0; j < k; j++)
                pruned[out++] = rec[j].child;
        }
        residual[v] = total;
    }
    free(residual);
    return out;
}
