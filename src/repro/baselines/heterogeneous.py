"""Heterogeneous chains-on-chains partitioning.

Bokhari [5] "considered the problem for both homogeneous and
non-homogeneous processors"; this module supplies the non-homogeneous
variant for the comparison family: partition a chain into at most ``m``
contiguous blocks, assign block ``j`` to processor ``j`` *in order*
(the linear-array constraint), and minimize the bottleneck *time*
``max_j (block weight_j / speed_j)``.

Two exact solvers with identical optima:

- :func:`ccp_hetero_dp` — layered DP, ``O(m n^2)``;
- :func:`ccp_hetero_probe` — bisection on the bottleneck time with a
  greedy feasibility probe (fill each processor up to ``B * speed``),
  converging to float precision.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.baselines.bokhari import CCPResult
from repro.graphs.chain import Chain


def _validate(chain: Chain, speeds: Sequence[float]) -> List[float]:
    speeds = [float(s) for s in speeds]
    if not speeds:
        raise ValueError("need at least one processor speed")
    if any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive")
    return speeds


def ccp_hetero_dp(chain: Chain, speeds: Sequence[float]) -> CCPResult:
    """Exact heterogeneous chains-on-chains by layered DP.

    ``speeds[j]`` is the speed of the processor receiving block ``j``.
    Blocks may be empty (a slow processor can be skipped), matching
    Bokhari's linear-array semantics where unused processors idle.
    """
    speeds = _validate(chain, speeds)
    n = chain.num_tasks
    m = len(speeds)
    prefix = chain.prefix_weights()
    INF = float("inf")

    # dp[j] = min bottleneck time covering tasks 0..j-1 with processors
    # 0..k; empty blocks allowed, so dp[0] stays 0 at every layer.
    prev = [INF] * (n + 1)
    prev[0] = 0.0
    for j in range(1, n + 1):
        prev[j] = (prefix[j] - prefix[0]) / speeds[0]
    parents: List[List[int]] = [[0] * (n + 1)]
    for k in range(1, m):
        current = [INF] * (n + 1)
        parent = [0] * (n + 1)
        current[0] = 0.0
        speed = speeds[k]
        for j in range(1, n + 1):
            best, best_i = INF, 0
            for i in range(j + 1):
                if prev[i] == INF:
                    continue
                block = (prefix[j] - prefix[i]) / speed if i < j else 0.0
                candidate = max(prev[i], block)
                if candidate < best:
                    best, best_i = candidate, i
            current[j] = best
            parent[j] = best_i
        parents.append(parent)
        prev = current

    # Reconstruct.
    cuts: List[int] = []
    j = n
    for k in range(m - 1, 0, -1):
        i = parents[k][j]
        if 0 < i < n and i != j:
            cuts.append(i - 1)
        j = i
    cuts = sorted(set(cuts))
    bottleneck = _realized_bottleneck(chain, speeds, cuts)
    return CCPResult(tuple(cuts), len(cuts) + 1, bottleneck)


def _realized_bottleneck(
    chain: Chain, speeds: Sequence[float], cuts: Sequence[int]
) -> float:
    """Bottleneck time of a cut under the best in-order block->processor
    alignment (skipping processors greedily never helps once blocks are
    fixed in order and speeds are arbitrary, so align block j with the
    j-th *fastest-feasible* prefix processor via DP on small sizes)."""
    blocks = chain.cut_components(cuts)
    weights = [chain.segment_weight(lo, hi) for lo, hi in blocks]
    m = len(speeds)
    k = len(weights)
    if k > m:
        return float("inf")
    INF = float("inf")
    # dp[b] = min bottleneck placing first b blocks on first p procs.
    dp = [0.0] + [INF] * k
    for p in range(m):
        new = list(dp)
        for b in range(1, k + 1):
            if dp[b - 1] < INF:
                candidate = max(dp[b - 1], weights[b - 1] / speeds[p])
                if candidate < new[b]:
                    new[b] = candidate
        dp = new
    return dp[k]


def ccp_hetero_probe(
    chain: Chain, speeds: Sequence[float], tolerance: float = 1e-12
) -> CCPResult:
    """Bisection + greedy probe for the heterogeneous problem.

    A candidate time ``B`` is feasible iff sweeping tasks left to right
    and letting processor ``j`` absorb up to ``B * speeds[j]`` weight
    covers the chain within ``m`` processors (the greedy is exchange-
    optimal because blocks are contiguous and in processor order).
    """
    speeds = _validate(chain, speeds)

    def probe(candidate: float) -> Optional[List[int]]:
        cuts: List[int] = []
        proc = 0
        load = 0.0
        capacity = candidate * speeds[0]
        for i, weight in enumerate(chain.alpha):
            while load + weight > capacity:
                proc += 1
                if proc >= len(speeds):
                    return None
                if i > 0 and (not cuts or cuts[-1] != i - 1):
                    cuts.append(i - 1)
                load = 0.0
                capacity = candidate * speeds[proc]
            load += weight
        return cuts

    total = chain.total_weight()
    lo = 0.0
    hi = total / min(speeds)
    result: Optional[List[int]] = probe(hi)
    assert result is not None
    for _ in range(200):
        if hi - lo <= tolerance * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        attempt = probe(mid)
        if attempt is not None:
            hi = mid
            result = attempt
        else:
            lo = mid
    assert result is not None
    bottleneck = _realized_bottleneck(chain, speeds, result)
    return CCPResult(tuple(sorted(set(result))), len(set(result)) + 1, bottleneck)
