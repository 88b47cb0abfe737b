"""Quadratic dynamic-programming oracle for chain bandwidth minimization.

The textbook formulation of the Section 2.3 problem: let ``D[j]`` be the
minimum cut weight over all feasible partitions of the prefix
``v_0 .. v_j`` whose last cut is edge ``j`` (edge ``j`` separates tasks
``j`` and ``j+1``).  Then

.. math::

    D[j] = \\beta_j + \\min \\{ D[i] : \\text{weight}(v_{i+1}..v_j) \\le K \\}

with the virtual predecessor ``D[-1] = 0`` admissible when the whole
prefix fits in ``K``, and the answer is the best ``D[j]`` whose suffix
``v_{j+1} .. v_{n-1}`` also fits (or 0 when the whole chain fits).

This scans the feasible window directly — ``O(n^2)`` worst case — and is
the primary correctness oracle: every other chain algorithm in the
repository is cross-checked against it.
"""

from __future__ import annotations

from typing import List

from repro.core.bandwidth import ChainCutResult
from repro.core.feasibility import finite_optimum, validate_bound
from repro.graphs.chain import Chain


def bandwidth_min_dp(chain: Chain, bound: float) -> ChainCutResult:
    """Exact minimum-bandwidth load-bounded cut, ``O(n^2)``."""
    validate_bound(chain.alpha, bound)
    n = chain.num_tasks
    fits = chain.block_fits
    if fits(0, n - 1, bound):
        return ChainCutResult(chain, [], 0.0)

    beta = chain.beta
    num_edges = chain.num_edges
    INF = float("inf")
    cost: List[float] = [INF] * num_edges
    pred: List[int] = [-2] * num_edges  # -1 = virtual start, -2 = unreachable

    for j in range(num_edges):
        # Block after cut i (exclusive) up to task j must fit.
        best = INF
        best_i = -2
        if fits(0, j, bound):
            best = 0.0
            best_i = -1
        i = j - 1
        while i >= 0 and fits(i + 1, j, bound):
            if cost[i] < best:
                best = cost[i]
                best_i = i
            i -= 1
        if best_i != -2:
            cost[j] = best + beta[j]
            pred[j] = best_i

    best_final = INF
    best_j = -2
    for j in range(num_edges):
        if cost[j] < best_final and fits(j + 1, n - 1, bound):
            best_final = cost[j]
            best_j = j
    # validate_bound guarantees a feasible cut; if none has a finite
    # weight, the optimum overflowed.
    best_final = finite_optimum(best_final, bound)

    cut: List[int] = []
    j = best_j
    while j >= 0:
        cut.append(j)
        j = pred[j]
    cut.reverse()
    return ChainCutResult(chain, cut, best_final)
