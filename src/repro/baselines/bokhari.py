"""Bokhari-style chains-on-chains partitioners (reference [5]).

Bokhari (1988) partitions a linear task graph over ``m`` processors of a
linear array, minimizing the *bottleneck processor load*.  The paper
cites his ``O(n^3 m)`` algorithm as the starting point of the line of
work it improves on, so this module provides the chains-on-chains
family used in the comparison benchmarks:

- :func:`ccp_dp` — the layered-graph dynamic program (flattened to the
  textbook ``O(m n^2)`` form);
- :func:`ccp_probe` — probe-based bisection (feasibility of a candidate
  bottleneck checked by a greedy ``O(n)`` sweep), exact on integer
  weights;
- :func:`bokhari_pipelined_dp` — Bokhari's pipelined model where a
  processor's load includes the communication on its boundary edges.

These solve a *different* problem from the paper's Section 2 algorithms
(fixed processor count, minimize bottleneck load, no bound ``K``), which
is exactly why the paper's shared-memory formulation is interesting; the
benchmarks put the two families side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.graphs.chain import Chain


@dataclass(frozen=True)
class CCPResult:
    """A chains-on-chains partition: cut indices, block count, bottleneck."""

    cut_indices: Tuple[int, ...]
    num_blocks: int
    bottleneck: float


def _block_sum(prefix: List[float], lo: int, hi: int) -> float:
    """Weight of tasks lo..hi inclusive."""
    return prefix[hi + 1] - prefix[lo]


def ccp_dp(chain: Chain, num_processors: int) -> CCPResult:
    """Partition a chain into at most ``num_processors`` contiguous blocks
    minimizing the maximum block weight.  ``O(m n^2)`` DP."""
    if num_processors < 1:
        raise ValueError("need at least one processor")
    n = chain.num_tasks
    m = min(num_processors, n)
    prefix = chain.prefix_weights()
    INF = float("inf")

    # dp[j] = min bottleneck partitioning tasks 0..j-1 into the current
    # number of blocks; rolled over k.
    dp = [INF] * (n + 1)
    choice = [[0] * (n + 1) for _ in range(m + 1)]
    dp[0] = 0.0
    for j in range(1, n + 1):
        dp[j] = _block_sum(prefix, 0, j - 1)
    prev = list(dp)
    for k in range(2, m + 1):
        current = [INF] * (n + 1)
        current[0] = 0.0
        for j in range(1, n + 1):
            best = INF
            best_i = 0
            for i in range(j):
                if prev[i] == INF:
                    continue
                candidate = max(prev[i], _block_sum(prefix, i, j - 1))
                if candidate < best:
                    best = candidate
                    best_i = i
            current[j] = best
            choice[k][j] = best_i
        prev = current

    # Reconstruct cuts from the last layer.
    cuts: List[int] = []
    j = n
    for k in range(m, 1, -1):
        i = choice[k][j]
        if i > 0:
            cuts.append(i - 1)  # edge between task i-1 and task i
        j = i
        if j == 0:
            break
    cuts = sorted(set(cuts))
    bottleneck = max(chain.component_weights(cuts))
    return CCPResult(tuple(cuts), len(cuts) + 1, bottleneck)


def probe(chain: Chain, num_processors: int, candidate: float) -> Optional[List[int]]:
    """Greedy feasibility probe: can the chain split into at most
    ``num_processors`` blocks each weighing at most ``candidate``?

    Returns the greedy cut (edge indices) or ``None``.  ``O(n)``.
    """
    if candidate < chain.max_vertex_weight():
        return None
    cuts: List[int] = []
    load = 0.0
    for i, weight in enumerate(chain.alpha):
        if load + weight > candidate:
            cuts.append(i - 1)
            if len(cuts) >= num_processors:
                return None
            load = weight
        else:
            load += weight
    return cuts


def ccp_probe(chain: Chain, num_processors: int) -> CCPResult:
    """Probe-based chains-on-chains partitioning.

    Bisects the bottleneck value; exact when vertex weights are integers
    (the search is over integers), otherwise converges to float
    precision and snaps to the realized maximum block weight.
    """
    if num_processors < 1:
        raise ValueError("need at least one processor")
    total = chain.total_weight()
    lo = max(chain.max_vertex_weight(), total / num_processors)
    hi = total
    integral = all(a == int(a) for a in chain.alpha)
    if integral:
        ilo, ihi = int(lo), int(hi)
        if probe(chain, num_processors, float(ilo)) is not None:
            ihi = ilo
        while ilo < ihi:
            mid = (ilo + ihi) // 2
            if probe(chain, num_processors, float(mid)) is not None:
                ihi = mid
            else:
                ilo = mid + 1
        cuts = probe(chain, num_processors, float(ihi))
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if probe(chain, num_processors, mid) is not None:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(1.0, total):
                break
        cuts = probe(chain, num_processors, hi)
    assert cuts is not None
    bottleneck = max(chain.component_weights(cuts))
    return CCPResult(tuple(cuts), len(cuts) + 1, bottleneck)


def bokhari_pipelined_dp(chain: Chain, num_processors: int) -> CCPResult:
    """Bokhari's pipelined model: a block's load includes the weight of
    the edges on its two boundaries (data must be received and sent).

    Minimizes ``max_block (sum alpha + beta_left + beta_right)`` over
    partitions into at most ``num_processors`` blocks.  ``O(m n^2)``.
    """
    if num_processors < 1:
        raise ValueError("need at least one processor")
    n = chain.num_tasks
    m = min(num_processors, n)
    prefix = chain.prefix_weights()
    beta = chain.beta
    INF = float("inf")

    def load(lo: int, hi: int) -> float:
        left = beta[lo - 1] if lo > 0 else 0.0
        right = beta[hi] if hi < n - 1 else 0.0
        return _block_sum(prefix, lo, hi) + left + right

    # values[k][j] = min bottleneck splitting tasks 0..j-1 into exactly k
    # blocks; unlike the communication-free model this is NOT monotone in
    # k (each split adds boundary traffic), so every k <= m is kept and
    # the best complete layer wins.
    values: List[List[float]] = [[INF] * (n + 1)]
    parents: List[List[int]] = [[0] * (n + 1)]
    first = [INF] * (n + 1)
    for j in range(1, n + 1):
        first[j] = load(0, j - 1)
    values.append(first)
    parents.append([0] * (n + 1))
    for k in range(2, m + 1):
        prev = values[k - 1]
        current = [INF] * (n + 1)
        parent = [0] * (n + 1)
        for j in range(k, n + 1):
            best, best_i = INF, 0
            for i in range(k - 1, j):
                if prev[i] == INF:
                    continue
                candidate = max(prev[i], load(i, j - 1))
                if candidate < best:
                    best, best_i = candidate, i
            current[j] = best
            parent[j] = best_i
        values.append(current)
        parents.append(parent)

    best_k = min(range(1, m + 1), key=lambda k: values[k][n])
    cuts: List[int] = []
    j = n
    for k in range(best_k, 1, -1):
        i = parents[k][j]
        cuts.append(i - 1)
        j = i
    cuts = sorted(set(cuts))
    blocks = chain.cut_components(cuts)
    bottleneck = max(load(lo, hi) for lo, hi in blocks)
    return CCPResult(tuple(cuts), len(cuts) + 1, bottleneck)
