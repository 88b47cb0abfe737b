"""Brute-force oracles over all edge subsets (tiny instances only).

Exhaustively enumerates every cut ``S ⊆ E`` — ``2^(n-1)`` subsets — and
reports the optimum for each of the paper's three objectives.  This is
the ground truth the property-based tests compare every polynomial
algorithm against; it is deliberately unoptimized and refuses instances
large enough to be slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Set, Tuple

from repro.core.feasibility import finite_optimum
from repro.graphs.chain import Chain
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree

_MAX_EDGES = 18


@dataclass(frozen=True)
class BruteForceOptimum:
    """Optimal objective values over all feasible cuts of one instance."""

    feasible: bool
    min_bandwidth: Optional[float]
    min_bottleneck: Optional[float]
    min_components: Optional[int]
    best_bandwidth_cut: Optional[Tuple[Edge, ...]]


def _check_size(num_edges: int) -> None:
    if num_edges > _MAX_EDGES:
        raise ValueError(
            f"brute force limited to {_MAX_EDGES} edges, got {num_edges}"
        )


def enumerate_tree_optima(tree: Tree, bound: float) -> BruteForceOptimum:
    """Exhaustive optimum for all three objectives on a tree."""
    _check_size(tree.num_edges)
    edges = list(tree.edges())
    best_bw = None
    best_bw_cut: Optional[Tuple[Edge, ...]] = None
    best_bn = None
    best_k = None
    feasible = False
    for r in range(len(edges) + 1):
        for subset in combinations(edges, r):
            cut: Set[Edge] = set(subset)
            if any(w > bound for w in tree.component_weights(cut)):
                continue
            feasible = True
            bandwidth = sum(tree.edge_weight(u, v) for u, v in cut)
            bottleneck = max(
                (tree.edge_weight(u, v) for u, v in cut), default=0.0
            )
            components = len(cut) + 1
            if best_bw is None or bandwidth < best_bw:
                best_bw = bandwidth
                best_bw_cut = subset
            if best_bn is None or bottleneck < best_bn:
                best_bn = bottleneck
            if best_k is None or components < best_k:
                best_k = components
    return BruteForceOptimum(feasible, best_bw, best_bn, best_k, best_bw_cut)


def chain_min_bandwidth(chain: Chain, bound: float) -> Optional[float]:
    """Exhaustive minimum cut weight for a chain (None if infeasible;
    :class:`~repro.core.feasibility.OptimumOverflowError` if every
    feasible cut weighs ``inf``)."""
    _check_size(chain.num_edges)
    indices = list(range(chain.num_edges))
    best: Optional[float] = None
    for r in range(len(indices) + 1):
        for subset in combinations(indices, r):
            if not chain.is_feasible_cut(subset, bound):
                continue
            weight = chain.cut_weight(subset)
            if best is None or weight < best:
                best = weight
    return best if best is None else finite_optimum(best, bound)


def chain_min_components(chain: Chain, bound: float) -> Optional[int]:
    """Exhaustive minimum component count for a chain."""
    _check_size(chain.num_edges)
    indices = list(range(chain.num_edges))
    for r in range(len(indices) + 1):
        for subset in combinations(indices, r):
            if chain.is_feasible_cut(subset, bound):
                return r + 1
    return None


def chain_min_bottleneck(chain: Chain, bound: float) -> Optional[float]:
    """Exhaustive minimum heaviest-cut-edge value for a chain."""
    _check_size(chain.num_edges)
    indices = list(range(chain.num_edges))
    best: Optional[float] = None
    for r in range(len(indices) + 1):
        for subset in combinations(indices, r):
            if not chain.is_feasible_cut(subset, bound):
                continue
            bottleneck = max((chain.edge_weight(i) for i in subset), default=0.0)
            if best is None or bottleneck < best:
                best = bottleneck
    return best


def all_feasible_chain_cuts(
    chain: Chain, bound: float
) -> List[Tuple[int, ...]]:
    """Every feasible cut of a chain (tests of hitting-set equivalence)."""
    _check_size(chain.num_edges)
    indices = list(range(chain.num_edges))
    feasible = []
    for r in range(len(indices) + 1):
        for subset in combinations(indices, r):
            if chain.is_feasible_cut(subset, bound):
                feasible.append(subset)
    return feasible
