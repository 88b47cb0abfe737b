"""Lexicographic bottleneck-then-bandwidth chain partitioning.

The real-time study (Section 3) requires *both* secondary conditions at
once: "``sum w(dp_im)`` is minimum and ``max w(dp_im)`` is minimized".
The two can conflict; the natural composition — and the one the paper's
machinery supports directly — is lexicographic:

1. find the minimum achievable bottleneck ``B*`` (Algorithm 2.1 on the
   chain viewed as a tree): the lightest value such that some feasible
   cut uses only edges of weight ``<= B*``;
2. among cuts whose every edge weighs at most ``B*``, minimize total
   weight — Algorithm 4.1 on a *restricted* instance where heavier
   edges are forbidden (their weight is set to ``+inf``, so the
   hitting-set recurrence never selects them; step 1 guarantees a
   finite optimum exists).

The result is a cut that is simultaneously bottleneck-optimal and
bandwidth-optimal *given* that bottleneck; brute force validates both
properties in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.core.bandwidth import ChainCutResult, bandwidth_min
from repro.core.bottleneck import bottleneck_min
from repro.core.feasibility import validate_bound
from repro.graphs.chain import Chain


@dataclass
class LexicographicResult:
    """Bottleneck-optimal, then bandwidth-optimal chain cut."""

    __slots__ = ("chain", "bottleneck", "cut")

    chain: Chain
    bottleneck: float
    cut: ChainCutResult

    @property
    def bandwidth(self) -> float:
        return self.cut.weight

    @property
    def cut_indices(self) -> List[int]:
        return self.cut.cut_indices


def lexicographic_chain_partition(
    chain: Chain, bound: float
) -> LexicographicResult:
    """Minimize the heaviest cut edge, then total cut weight (both
    subject to the execution-time bound ``K``)."""
    validate_bound(chain.alpha, bound)
    if chain.total_weight() <= bound:
        empty = ChainCutResult(chain, [], 0.0)
        return LexicographicResult(chain, 0.0, empty)

    tree = chain.to_tree()
    b_star = bottleneck_min(tree, bound).bottleneck

    # Forbid edges heavier than B*: infinite weight removes them from
    # every minimum-weight hitting set while keeping indices aligned.
    restricted = chain._forbid_edges(
        i for i, b in enumerate(chain.beta) if b > b_star
    )
    result = bandwidth_min(restricted, bound)
    assert math.isfinite(result.weight), (
        "bottleneck-feasible cut must exist by construction"
    )
    # Re-expressed on the original chain (same indices, same weights —
    # every chosen edge was unrestricted).
    cut = ChainCutResult(
        chain, result.cut_indices, chain.cut_weight(result.cut_indices)
    )
    return LexicographicResult(chain, b_star, cut)
