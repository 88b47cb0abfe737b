"""Monotone-deque chain bandwidth minimization — ``O(n)``.

The DP window of :mod:`repro.baselines.exact_dp` slides monotonically
(the feasible predecessor range only moves right as ``j`` grows), so a
classic monotone deque yields the window minimum in amortized ``O(1)``.
This post-dates the paper's toolbox — it is included as the modern
reference point in the algorithm-comparison benchmark and as a third
independent implementation for cross-checking.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.core.bandwidth import ChainCutResult
from repro.core.feasibility import finite_optimum, validate_bound
from repro.graphs.chain import Chain


def bandwidth_min_deque(chain: Chain, bound: float) -> ChainCutResult:
    """Exact minimum-bandwidth load-bounded cut in linear time."""
    validate_bound(chain.alpha, bound)
    n = chain.num_tasks
    fits = chain.block_fits
    if fits(0, n - 1, bound):
        return ChainCutResult(chain, [], 0.0)

    beta = chain.beta
    num_edges = chain.num_edges
    INF = float("inf")
    cost: List[float] = [INF] * num_edges
    pred: List[int] = [-2] * num_edges

    # window holds candidate predecessors i (cut indices, -1 = virtual
    # start with cost 0) with increasing i and increasing cost.
    window: Deque[Tuple[int, float]] = deque()
    window.append((-1, 0.0))
    next_candidate = 0  # next cut index to push into the window

    for j in range(num_edges):
        # Admit predecessors i <= j - 1 (their cost is final).
        while next_candidate < j:
            i = next_candidate
            if cost[i] < INF:
                while window and window[-1][1] >= cost[i]:
                    window.pop()
                window.append((i, cost[i]))
            next_candidate += 1
        # Evict predecessors whose block (i+1 .. j) would exceed the bound
        # (the shared Chain.block_fits rule, so borderline blocks are
        # judged identically across implementations).
        while window and not fits(window[0][0] + 1, j, bound):
            window.popleft()
        if window:
            best_i, best = window[0]
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
