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
canonical edge) and judge a component by the one sum the uncut edges
merged heaviest-first form: :func:`bottleneck_min` runs that merge
(:func:`~repro.graphs.tree._sweep`) until the bound stops it, and
:meth:`Tree.component_weights` runs it to the end.  Float rounding can
therefore never split them: their cut sets and bottleneck values are
identical, on tenth weights too, which the test suite asserts.  The
sweep runs as one native call (``tree_sweep`` in ``_sweep.c``) where
that library builds, else in Python; the two agree bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, MutableSequence, Optional, Sequence, Set, Tuple

from repro.core.feasibility import validate_bound
from repro.graphs.partition import Cut, Partition
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree, _sweep


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


def _bottleneck_sweep(tree: Tree, bound: float, tops: bool = False) -> Tuple[
        List[int], int, Optional[Sequence[int]], Optional[MutableSequence[float]]]:
    """Algorithm 2.1's one union-find sweep, heaviest edge first.

    Returns ``(ordered, boundary, top, weight)``: the edges (child
    vertices) by weight, the cut ``ordered[:boundary]``, and with
    ``tops`` the components of ``T - cut``, each vertex's top and each
    top's sum (:func:`~repro.graphs.tree._sweep`).
    """
    validate_bound(tree.vertex_weights, bound)
    return _sweep(tree, bound, tops)


def bottleneck_min(tree: Tree, bound: float) -> TreeCutResult:
    """Optimized Algorithm 2.1: identical output, one union-find sweep
    (:func:`_bottleneck_sweep`)."""
    ordered, boundary, _, _ = _bottleneck_sweep(tree, bound)
    cut = set(tree.parent_edges(ordered[:boundary]))
    bottleneck = tree.parent_weights()[ordered[boundary - 1]] if boundary else 0.0
    return _certified(TreeCutResult(tree, cut, bottleneck), bound)
