"""Bottleneck minimization for tree task graphs — Algorithm 2.1.

Given a tree ``T`` with vertex weights and edge weights and a bound
``K``, find an edge cut ``S`` such that no component of ``T - S`` weighs
more than ``K`` and the *heaviest* edge of ``S`` is as light as possible
(Section 2.1).  The paper's greedy adds edges to ``S`` in increasing
weight order and stops at the first feasible prefix; its correctness
proof shows any feasible prefix of the sorted order whose last edge is
no heavier than an optimal solution's heaviest edge works.

Two implementations with identical output:

- :func:`bottleneck_min_naive` — the paper's loop verbatim: after each
  added edge, re-check all component weights (``O(n)`` union-find pass
  over the pre-sorted edges), ``O(n^2)`` total.
- :func:`bottleneck_min` — observes that ``T - S_i`` (removing the ``i``
  lightest edges) equals the forest built from the ``n-1-i`` *heaviest*
  edges, so a single union-find sweep adding edges heaviest-first finds
  the break-even point in ``O(n log n)`` (sorting dominates).

Both walk the one order :meth:`Tree.edges_by_weight` sorts (weight, then
canonical edge) and judge a component by the one sum
:meth:`Tree.component_weights` forms: the uncut edges merged
heaviest-first in a union-find, which is exactly the sweep
:func:`bottleneck_min` runs incrementally.  Float rounding can therefore
never split them: their cut sets and bottleneck values are identical,
on tenth weights too, which the test suite asserts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Set

from repro.core.feasibility import validate_bound
from repro.graphs.partition import Cut, Partition
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree, _UnionFind


@dataclass
class TreeCutResult:
    """A cut on a tree: edges, bottleneck value and induced partition."""

    __slots__ = ("tree", "cut_edges", "bottleneck")

    tree: Tree
    cut_edges: Set[Edge]
    bottleneck: float

    @property
    def num_components(self) -> int:
        return len(self.cut_edges) + 1

    def as_cut(self) -> Cut:
        return Cut(self.tree, self.cut_edges)

    def partition(self) -> Partition:
        return self.as_cut().partition()

    def is_feasible(self, bound: float) -> bool:
        return all(w <= bound for w in self.tree.component_weights(self.cut_edges))


def bottleneck_min_naive(tree: Tree, bound: float) -> TreeCutResult:
    """Algorithm 2.1 exactly as printed: grow ``S`` one sorted edge at a
    time, re-checking feasibility after each addition.  ``O(n^2)``."""
    validate_bound(tree.vertex_weights, bound)
    cut: Set[Edge] = set()
    if all(w <= bound for w in tree.component_weights(cut)):
        return _certified(TreeCutResult(tree, cut, 0.0), bound)
    for edge in tree.parent_edges(tree.edges_by_weight()):
        cut.add(edge)
        if all(w <= bound for w in tree.component_weights(cut)):
            return _certified(
                TreeCutResult(tree, set(cut), tree.edge_weight(*edge)), bound
            )
    raise AssertionError("unreachable: cutting all edges is always feasible")


def _certified(result: TreeCutResult, bound: float) -> TreeCutResult:
    """Self-certify a tree cut when ``REPRO_VERIFY=1`` (no-op otherwise).

    The verify layer sits above core, so it is imported lazily and only
    when the environment opts in.
    """
    if "REPRO_VERIFY" in os.environ:  # repro-lint: disable=REPRO023 opt-in verification gate; raises on failure, never alters outputs
        from repro.verify.runtime import maybe_verify_tree_result

        maybe_verify_tree_result(result.tree, result, bound)
    return result


def bottleneck_min(tree: Tree, bound: float) -> TreeCutResult:
    """Optimized Algorithm 2.1: identical output, one union-find sweep.

    ``T - S_i`` (the ``i`` lightest edges removed) is the forest spanned
    by the ``n-1-i`` heaviest edges.  Component weights only grow as
    heavier-first edges are added, so the feasible prefix boundary is
    found by adding edges heaviest-first until a merge would exceed the
    bound; the cut is everything not yet added.
    """
    max_weight = validate_bound(tree.vertex_weights, bound)
    ordered = tree.edges_by_weight()  # edges as child vertices
    parent = tree.bfs_order()[1]
    uf = _UnionFind(tree.vertex_weights)
    # Walk from the heaviest edge downwards; stop before the first merge
    # that creates an over-weight component.
    boundary = 0  # edges ordered[0:boundary] form the cut
    # REPRO017: the component-weight list and find() are loop-stable —
    # union() mutates the list in place, never rebinds the attribute.
    uf_weight = uf.weight
    uf_find = uf.find
    for idx in range(len(ordered) - 1, -1, -1):
        child = ordered[idx]
        if uf_weight[uf_find(child)] + uf_weight[uf_find(parent[child])] > bound:
            boundary = idx + 1
            break
        uf.union(child, parent[child])
    cut = set(tree.parent_edges(ordered[:boundary]))
    bottleneck = 0.0
    if boundary:
        last = ordered[boundary - 1]
        bottleneck = tree.edge_weight(last, parent[last])
    # max_weight <= bound guarantees feasibility even when every edge is cut.
    assert max_weight <= bound
    return _certified(TreeCutResult(tree, cut, bottleneck), bound)
