"""Processor minimization for tree task graphs — Algorithm 2.2.

Given a tree with vertex weights and a bound ``K``, find an edge cut of
*minimum cardinality* such that every component of ``T - S`` weighs at
most ``K``.  On a tree, removing one edge adds exactly one component, so
minimizing the number of components (processors) equals minimizing
``|S|`` (Section 2.2).

The paper's recursive routine repeatedly picks an internal node ``v``
adjacent to at most one internal node (a *pre-leaf*), sums ``v`` with
its adjacent leaves, merges them if the sum fits in ``K``, and otherwise
prunes the heaviest leaves until it fits.  This module implements the
canonical deterministic instantiation of that nondeterministic choice:
root the tree and process vertices in post-order — when ``v`` is
reached, all its children have been reduced to leaves and its parent is
still internal, so ``v`` is exactly a pre-leaf of the remaining tree.
``O(sum_v d(v) log d(v)) = O(n log n)``.

The greedy is the weighted Kundu–Misra tree-partitioning rule; the test
suite cross-checks its optimality against an exact DP oracle
(:mod:`repro.baselines.tree_dp`) and brute force.
"""

from __future__ import annotations

import math
from typing import Set

from repro.core.bottleneck import TreeCutResult, _certified
from repro.core.feasibility import total_overflow, validate_bound
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree


def processor_min(tree: Tree, bound: float, root: int = 0) -> TreeCutResult:
    """Minimum-cardinality load-bounded cut of a tree — Algorithm 2.2.

    Returns a :class:`~repro.core.bottleneck.TreeCutResult`; its
    ``bottleneck`` field reports the heaviest cut edge (informational —
    this objective does not minimize it).
    """
    validate_bound(tree.vertex_weights, bound)
    residual = list(tree.vertex_weights)  # weight of v's merged cluster
    cut: Set[Edge] = set()

    for v, children in tree.post_order_children(root):
        if not children:
            continue  # original leaf: nothing to process
        # Step 3: W <- weight of v plus all adjacent (reduced) leaves.
        total = residual[v] + sum(map(residual.__getitem__, children))
        if total <= bound:
            # Step 4: merge every leaf into v.
            residual[v] = total
            continue
        if total == math.inf:
            raise total_overflow(bound)
        # Step 5: prune the heaviest leaves until the cluster fits.
        # Deterministic tie-break: heavier first, then smaller vertex id.
        by_weight = sorted(children, key=lambda c: (-residual[c], c))
        for c in by_weight:
            if total <= bound:
                break
            total -= residual[c]
            cut.add((v, c) if v < c else (c, v))
        residual[v] = total

    bottleneck = max((tree.edge_weight(u, w) for u, w in cut), default=0.0)
    return _certified(TreeCutResult(tree, cut, bottleneck), bound)


def min_processors(tree: Tree, bound: float) -> int:
    """Just the minimum number of processors (components)."""
    return processor_min(tree, bound).num_components


def processors_lower_bound(tree: Tree, bound: float) -> int:
    """The trivial packing bound ``ceil(total_weight / K)`` — used as a
    sanity floor in tests and reports."""
    return max(1, math.ceil(tree.total_vertex_weight() / bound - 1e-12))
