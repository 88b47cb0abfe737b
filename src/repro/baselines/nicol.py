"""Nicol & O'Hallaron-style ``O(n log n)`` chain partitioner.

Reference [11] of the paper solves the shared-memory linear-task-graph
partitioning problem in ``O(n log n)`` time and ``O(n)`` space; it is
the "best known algorithm" the paper's Algorithm 4.1 is measured
against.  The original 1991 article is not redistributable here, so this
module provides a complexity-faithful reimplementation: the same DP as
:mod:`repro.baselines.exact_dp`, with the sliding-window minimum
maintained by a lazy-deletion binary heap — ``O(log n)`` per step,
``O(n log n)`` total, ``O(n)`` space.

It returns provably optimal cuts (cross-checked against the quadratic
oracle) at the stated complexity, which is exactly the role the baseline
plays in the paper's comparison (Section 2.3.2).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.bandwidth import ChainCutResult
from repro.core.feasibility import finite_optimum, validate_bound
from repro.graphs.chain import Chain

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability import Span, Tracer


def bandwidth_min_nlogn(
    chain: Chain, bound: float, tracer: Optional["Tracer"] = None
) -> ChainCutResult:
    """Exact minimum-bandwidth load-bounded cut in ``O(n log n)``.

    A ``tracer`` wraps the DP in a ``nicol_dp_sweep`` span
    counting heap pushes and lazy pops — the baseline's analogue of the
    paper's search steps, so traced comparisons against Algorithm 4.1
    measure both sides in the same units.
    """
    if tracer is None:
        return _nlogn_impl(chain, bound)
    with tracer.span(
        "nicol_dp_sweep", n=chain.num_tasks, bound=bound
    ) as span:
        result = _nlogn_impl(chain, bound, span)
        span.set("weight", result.weight)
    return result


def _nlogn_impl(
    chain: Chain, bound: float, span: Optional["Span"] = None
) -> ChainCutResult:
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

    heap: List[Tuple[float, int]] = [(0.0, -1)]  # (cost, cut index)
    window_start = -1  # smallest predecessor index still in the window
    next_candidate = 0
    counting = span is not None
    heap_pushes = 0
    heap_pops = 0

    for j in range(num_edges):
        while next_candidate < j:
            i = next_candidate
            if cost[i] < INF:  # repro-mutate: equivalent=flip-compare -- cost is finite for every prefix once K >= alpha_max (singleton blocks fit)
                heapq.heappush(heap, (cost[i], i))
                if counting:
                    heap_pushes += 1
            next_candidate += 1
        # Advance the window start past infeasible predecessors.
        while (
            window_start < j - 1  # repro-mutate: equivalent=flip-compare -- at window_start == j-1 the single-task window never exceeds a validated bound
            and not fits(window_start + 1, j, bound)
        ):
            window_start += 1
        # Lazily drop heap entries that fell out of the window.
        while heap and heap[0][1] < window_start:
            heapq.heappop(heap)
            if counting:
                heap_pops += 1
        if heap and fits(heap[0][1] + 1, j, bound):  # repro-mutate: equivalent=shift-index -- stale tops were popped above, so the heap top is already inside the feasible window
            best, best_i = heap[0]
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

    if counting:
        span.add("heap_pushes", heap_pushes)
        span.add("heap_pops", heap_pops)
    cut: List[int] = []
    j = best_j
    while j >= 0:
        cut.append(j)
        j = pred[j]
    cut.reverse()
    return ChainCutResult(chain, cut, best_final)
