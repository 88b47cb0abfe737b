"""Hansen & Lih-style chains-on-chains partitioning (reference [8]).

Hansen and Lih (1992) gave an alternative ``O(m^2 n)`` algorithm for
Bokhari's partitioning problem that the paper describes as "different,
more lucid".  This module provides a lucid exact DP in the same spirit,
accelerated with the standard monotonicity observation: in

.. math::

    B_k(j) = \\min_i \\max\\big(B_{k-1}(i),\\ S(i{+}1, j)\\big)

the first term is non-decreasing and the second non-increasing in ``i``,
so the optimal ``i`` is found by binary search — ``O(m n log n)``
overall.  Exactness is cross-checked against :func:`repro.baselines.bokhari.ccp_dp`.
"""

from __future__ import annotations

from typing import List

from repro.baselines.bokhari import CCPResult
from repro.graphs.chain import Chain


def ccp_hansen_lih(chain: Chain, num_processors: int) -> CCPResult:
    """Minimize the maximum block weight over at most ``num_processors``
    contiguous blocks, via the monotone DP."""
    if num_processors < 1:
        raise ValueError("need at least one processor")
    n = chain.num_tasks
    m = min(num_processors, n)
    prefix = chain.prefix_weights()
    INF = float("inf")

    prev: List[float] = [
        prefix[j] for j in range(n + 1)
    ]  # k = 1: one block covering 0..j-1
    choices: List[List[int]] = [[0] * (n + 1)]
    for _k in range(2, m + 1):
        current = [INF] * (n + 1)
        parent = [0] * (n + 1)
        current[0] = 0.0
        for j in range(1, n + 1):
            # minimize over i in [0, j-1] of max(prev[i], prefix[j]-prefix[i]).
            # prev[i] is non-decreasing in i, the block term decreasing:
            # binary search for the crossover, then check its neighbours.
            lo, hi = 0, j - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if prev[mid] >= prefix[j] - prefix[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            best, best_i = INF, 0
            for i in (lo - 1, lo):
                if 0 <= i < j and prev[i] < INF:
                    candidate = max(prev[i], prefix[j] - prefix[i])
                    if candidate < best:
                        best, best_i = candidate, i
            current[j] = best
            parent[j] = best_i
        choices.append(parent)
        prev = current

    cuts: List[int] = []
    j = n
    for k in range(m - 1, 0, -1):
        i = choices[k][j]
        if i > 0:
            cuts.append(i - 1)
        j = i
        if j == 0:
            break
    cuts = sorted(set(cuts))
    bottleneck = max(chain.component_weights(cuts))
    return CCPResult(tuple(cuts), len(cuts) + 1, bottleneck)
