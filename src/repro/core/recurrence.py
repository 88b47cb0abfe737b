"""Naive evaluation of the Section 2.3 recurrence.

The paper first presents the recurrence

.. math::

    \\beta(S_1) = \\min_{a_1 \\le j \\le b_1} \\beta_j, \\qquad
    \\beta(S_{i+1}) = \\min_{a_{i+1} \\le j \\le b_{i+1}}
        \\big(\\beta_j + \\beta(S_{\\gamma_j})\\big)

"in this naive way", costing ``O(sum_i |P_i|)`` (up to ``O(np)``), and
only then develops the TEMP_S implementation.  This module is that naive
version — valuable both as an independent correctness cross-check for
Algorithm 4.1 and as the baseline in the ablation benchmark that shows
what TEMP_S buys.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.bandwidth import ChainCutResult
from repro.core.feasibility import validate_bound
from repro.core.prime_subpaths import PrimeStructure
from repro.core.temp_s import SolutionNode, solution_weight
from repro.graphs.chain import Chain


def bandwidth_min_naive(
    chain: Chain, bound: float, *, apply_reduction: bool = True
) -> ChainCutResult:
    """Minimum-bandwidth load-bounded cut via the naive recurrence.

    Identical output objective to
    :func:`repro.core.bandwidth.bandwidth_min` (the certified tie-break
    may differ), at ``O(sum_i |P_i|)`` cost.
    """
    validate_bound(chain.alpha, bound)
    structure = PrimeStructure.compute(chain, bound, apply_reduction=apply_reduction)
    primes = structure.primes
    if not primes:
        return ChainCutResult(chain, [], 0.0)

    # Group the reduced edges by prime subpath: edge j belongs to primes
    # first_prime .. last_prime.
    edges_of_prime: List[List[int]] = [[] for _ in primes]
    reduced = structure.edges
    for idx, edge in enumerate(reduced):
        for prime_idx in range(edge.first_prime, edge.last_prime + 1):
            edges_of_prime[prime_idx].append(idx)

    # solutions[i] = S_i as a parent-pointer chain; W-values computed on
    # demand from beta_j + beta(S_{gamma_j}).
    solutions: List[Optional[SolutionNode]] = [None] * len(primes)
    for i in range(len(primes)):
        best_node: Optional[SolutionNode] = None
        best_w = float("inf")
        for edge_pos in edges_of_prime[i]:
            edge = reduced[edge_pos]
            prev = solutions[edge.gamma] if edge.gamma >= 0 else None
            w_value = edge.weight + solution_weight(prev)
            if w_value < best_w:
                best_w = w_value
                best_node = SolutionNode(edge.index, edge.weight, prev)
        assert best_node is not None, "every prime subpath contains an edge"
        solutions[i] = best_node

    final = solutions[-1]
    assert final is not None
    return ChainCutResult(chain, final.edge_indices(), final.weight)


def hitting_set_cost_naive(chain: Chain, bound: float) -> float:
    """Objective value only, via the recurrence — the cheapest
    cross-check used inside property tests."""
    return bandwidth_min_naive(chain, bound).weight
