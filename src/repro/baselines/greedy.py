"""Greedy and naive comparison partitions.

These are the "straw" partitioners the application benchmarks (machine
throughput, distributed simulation message counts) compare the paper's
algorithms against: they satisfy the load bound but ignore edge weights,
which is precisely the behaviour the paper's bandwidth objective fixes.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core.bandwidth import ChainCutResult
from repro.core.feasibility import validate_bound
from repro.graphs.chain import Chain


def first_fit_cut(chain: Chain, bound: float) -> ChainCutResult:
    """Scan left to right, cutting just before a block would overflow.

    Produces the minimum possible number of blocks (every block is
    maximal under :meth:`Chain.block_fits`) but pays no attention to
    the weight of the edges it cuts.
    """
    validate_bound(chain.alpha, bound)
    cuts: List[int] = []
    start = 0
    for i in range(1, chain.num_tasks):
        if not chain.block_fits(start, i, bound):
            cuts.append(i - 1)
            start = i
    return ChainCutResult(chain, cuts, chain.cut_weight(cuts))


def equal_blocks_cut(chain: Chain, num_blocks: int) -> ChainCutResult:
    """Split into ``num_blocks`` blocks of (nearly) equal task counts —
    the naive "block" mapping; ignores all weights."""
    if not (1 <= num_blocks <= chain.num_tasks):
        raise ValueError(f"cannot make {num_blocks} blocks of {chain.num_tasks} tasks")
    n = chain.num_tasks
    cuts = []
    for b in range(1, num_blocks):
        boundary = (b * n) // num_blocks
        cuts.append(boundary - 1)
    cuts = sorted(set(cuts))
    return ChainCutResult(chain, cuts, chain.cut_weight(cuts))


def random_feasible_cut(
    chain: Chain, bound: float, rng: Optional[random.Random] = None
) -> ChainCutResult:
    """A random feasible cut: left to right, each cut drawn uniformly
    among the positions that keep the running block within the bound."""
    validate_bound(chain.alpha, bound)
    r = rng or random.Random()
    # A single task always fits (Chain.block_fits), so the suffix stays
    # viable whatever cut is drawn.
    n = chain.num_tasks
    cuts: List[int] = []
    start = 0
    while not chain.block_fits(start, n - 1, bound):
        # Latest cut c keeps block (start..c) within bound.
        latest = start
        while latest + 1 < n - 1 and chain.block_fits(start, latest + 1, bound):
            latest += 1
        cut = r.randint(start, latest)
        cuts.append(cut)
        start = cut + 1
    return ChainCutResult(chain, cuts, chain.cut_weight(cuts) if cuts else 0.0)
