"""Star-graph bandwidth minimization via 0-1 knapsack — Theorem 1.

Theorem 1 of the paper proves the load-bounded bandwidth-minimization
problem NP-complete already on star graphs, by reduction to 0-1
knapsack: keep leaf ``i`` with the centre iff item ``i`` goes into the
knapsack — leaf weights are item weights (capacity = the load bound),
edge weights are item profits (cut weight = total profit minus the
profit kept).

This module implements

- :func:`knapsack_01` — an exact pseudo-polynomial DP (integer weights);
- :func:`star_bandwidth_min` — the exact star solver built on it;
- the two directions of the Theorem-1 reduction, so the tests can
  exercise the equivalence exactly as the proof states it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.core.feasibility import validate_bound
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree


@dataclass(frozen=True)
class KnapsackSolution:
    """Chosen item indices and their total profit/weight."""

    items: Tuple[int, ...]
    profit: float
    weight: float


def knapsack_01(
    weights: Sequence[float], profits: Sequence[float], capacity: float
) -> KnapsackSolution:
    """Exact 0-1 knapsack via DP over integer weights.

    Weights and the capacity must be integral (``ValueError`` otherwise);
    profits may be arbitrary non-negative reals.
    """
    if len(weights) != len(profits):
        raise ValueError("weights and profits must align")
    int_weights: List[int] = []
    for w in weights:
        if w != int(w) or w < 0:
            raise ValueError(f"knapsack DP needs non-negative integer weights, got {w}")
        int_weights.append(int(w))
    if capacity != int(capacity) or capacity < 0:
        raise ValueError(f"capacity must be a non-negative integer, got {capacity}")
    cap = int(capacity)

    NEG = float("-inf")
    best: List[float] = [0.0] + [NEG] * cap
    choice: List[List[bool]] = []
    for idx, (w, p) in enumerate(zip(int_weights, profits)):
        taken = [False] * (cap + 1)
        if w <= cap:
            for c in range(cap, w - 1, -1):
                candidate = best[c - w] + p
                if best[c - w] > NEG and candidate > best[c]:
                    best[c] = candidate
                    taken[c] = True
        choice.append(taken)

    best_cap = max(range(cap + 1), key=lambda c: best[c])
    items: List[int] = []
    c = best_cap
    for idx in range(len(int_weights) - 1, -1, -1):
        if choice[idx][c]:
            items.append(idx)
            c -= int_weights[idx]
    items.reverse()
    total_w = float(sum(int_weights[i] for i in items))
    total_p = float(sum(profits[i] for i in items))
    return KnapsackSolution(tuple(items), total_p, total_w)


def _star_parts(star: Tree) -> Tuple[int, List[int]]:
    """Return (centre, leaves) of a star; ValueError if not a star."""
    if not star.is_star():
        raise ValueError("graph is not a star")
    if star.num_vertices == 1:
        return 0, []
    center = max(range(star.num_vertices), key=star.degree)
    leaves = [v for v in range(star.num_vertices) if v != center]
    return center, leaves


def star_bandwidth_min(star: Tree, bound: float) -> Tuple[Set[Edge], float]:
    """Exact minimum-bandwidth load-bounded cut of a star graph.

    Requires integer leaf weights (the knapsack DP's condition).  Leaves
    *kept* with the centre are the knapsack items; capacity is the bound
    minus the centre weight.  Returns ``(cut_edges, cut_weight)``.
    """
    validate_bound(star.vertex_weights, bound)
    center, leaves = _star_parts(star)
    capacity = bound - star.vertex_weight(center)
    weights = [star.vertex_weight(v) for v in leaves]
    profits = [star.edge_weight(center, v) for v in leaves]
    solution = knapsack_01(weights, profits, float(int(capacity)))
    kept = {leaves[i] for i in solution.items}
    cut = {
        (center, v) if center < v else (v, center)
        for v in leaves
        if v not in kept
    }
    cut_weight = sum(profits) - solution.profit
    return cut, cut_weight


# ----------------------------------------------------------------------
# The Theorem-1 reduction, in both directions
# ----------------------------------------------------------------------
def knapsack_to_star(
    weights: Sequence[float], profits: Sequence[float]
) -> Tree:
    """Construct the Theorem-1 star: centre of weight 0, leaf ``i`` of
    weight ``w_i``, edge ``(centre, i)`` of weight ``p_i``."""
    return Tree.star(0.0, list(weights), list(profits))


def cut_to_knapsack_items(star: Tree, cut: Set[Edge]) -> Set[int]:
    """The knapsack interpretation of a star cut: items kept = leaves
    whose edge is *not* cut (the set ``I`` of the proof)."""
    center, leaves = _star_parts(star)
    cut_canonical = {(min(u, v), max(u, v)) for u, v in cut}
    return {
        i
        for i, v in enumerate(leaves)
        if ((min(center, v), max(center, v)) not in cut_canonical)
    }


def knapsack_items_to_cut(star: Tree, items: Set[int]) -> Set[Edge]:
    """The reverse direction: cut exactly the edges of leaves not chosen."""
    center, leaves = _star_parts(star)
    return {
        (min(center, v), max(center, v))
        for i, v in enumerate(leaves)
        if i not in items
    }
