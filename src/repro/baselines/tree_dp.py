"""Exact pseudo-polynomial DP oracle for processor minimization on trees.

State: for each vertex ``v`` (processing the rooted tree bottom-up),
``dp[v]`` maps *the weight of the component currently containing v* to
the minimum number of cut edges inside v's subtree achieving it.  A
child edge is either kept (component weights add; must stay within the
bound) or cut (child contributes its own best count plus one).

Distinct reachable component weights can grow combinatorially, so this
oracle is intended for the small/integer-weight instances the property
tests generate; it refuses anything that would explode.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.feasibility import validate_bound
from repro.graphs.tree import Tree

_MAX_STATES = 200_000


def min_cuts_exact(tree: Tree, bound: float, root: int = 0) -> int:
    """Exact minimum number of cut edges for a load-bounded tree partition."""
    validate_bound(tree.vertex_weights, bound)
    order, parent = tree.post_order(root)
    children: List[List[int]] = [[] for _ in range(tree.num_vertices)]
    for v in order:
        if parent[v] >= 0:
            children[parent[v]].append(v)

    dp: List[Dict[float, int]] = [dict() for _ in range(tree.num_vertices)]
    total_states = 0
    for v in order:
        states: Dict[float, int] = {tree.vertex_weight(v): 0}
        for c in children[v]:
            child_states = dp[c]
            cut_cost = min(child_states.values()) + 1
            merged: Dict[float, int] = {}
            for weight, cuts in states.items():
                # Option 1: cut the edge (v, c).
                candidate = cuts + cut_cost
                if weight not in merged or candidate < merged[weight]:
                    merged[weight] = candidate
                # Option 2: keep the edge; component weights add.
                for child_weight, child_cuts in child_states.items():
                    combined = weight + child_weight
                    if combined > bound:
                        continue
                    candidate = cuts + child_cuts
                    if combined not in merged or candidate < merged[combined]:
                        merged[combined] = candidate
            states = merged
            dp[c] = {}  # release
            total_states += len(states)
            if total_states > _MAX_STATES:
                raise ValueError(
                    "instance too large for the exact tree DP oracle"
                )
        dp[v] = states
    return min(dp[root].values())


def min_components_exact(tree: Tree, bound: float) -> int:
    """Exact minimum number of components (= min cuts + 1)."""
    return min_cuts_exact(tree, bound) + 1
