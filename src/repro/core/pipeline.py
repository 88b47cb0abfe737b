"""The combined partitioning pipeline of Section 2.

The paper composes its algorithms: bottleneck minimization first
(Section 2.1) fixes the smallest achievable bottleneck but "may fragment
the task graph into unnecessarily many small components"; Section 2.2
then lumps each component into a super-node — the resulting graph is
still a tree whose edges are exactly the bottleneck cut — and runs
processor minimization on it, re-joining components wherever the bound
allows.  The final cut is a *subset* of the bottleneck cut, so the
optimal bottleneck value is preserved while the processor count becomes
minimal among refinements of that cut.

For chains, :func:`partition_chain` exposes all three objectives behind
one API (bottleneck / processors / bandwidth), since a chain is a tree
and the bandwidth objective additionally admits Algorithm 4.1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Set

from repro.core.bandwidth import ChainCutResult, bandwidth_min
from repro.core.bottleneck import TreeCutResult, _certified, bottleneck_min
from repro.core.processor_min import processor_min
from repro.graphs.chain import Chain
from repro.graphs.partition import Cut, Partition
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree


@dataclass
class TreePartitionPlan:
    """Result of the bottleneck → processor-minimization pipeline."""

    __slots__ = (
        "tree",
        "bound",
        "bottleneck_cut",
        "final_cut",
        "bottleneck",
        "num_processors",
    )

    tree: Tree
    bound: float
    bottleneck_cut: Set[Edge]
    final_cut: Set[Edge]
    bottleneck: float
    num_processors: int

    def partition(self) -> Partition:
        return Cut(self.tree, self.final_cut).partition()

    def summary(self) -> str:
        return (
            f"bound K={self.bound:g}: bottleneck={self.bottleneck:g} "
            f"(|S| {len(self.bottleneck_cut)} -> {len(self.final_cut)}), "
            f"{self.num_processors} processors"
        )


def partition_tree(tree: Tree, bound: float) -> TreePartitionPlan:
    """Bottleneck-optimal, processor-minimal load-bounded tree partition.

    Runs Algorithm 2.1, contracts each component into a super-node
    (Section 2.2's construction), runs Algorithm 2.2 on the super-node
    tree, and maps the surviving cuts back to original edges.
    """
    first_cut = set(bottleneck_min(tree, bound).cut_edges)
    if not first_cut:
        return TreePartitionPlan(tree, bound, first_cut, set(), 0.0, 1)
    super_tree, _, edge_origin = tree.contract(first_cut)
    # Super-tree edges carry their cut edges' weights, so the refined
    # bottleneck is already the final cut's heaviest original edge.
    refined = processor_min(super_tree, bound)
    final_cut = {edge_origin[e] for e in refined.cut_edges}
    _certified(TreeCutResult(tree, final_cut, refined.bottleneck), bound)
    return TreePartitionPlan(
        tree, bound, first_cut, final_cut, refined.bottleneck, len(final_cut) + 1
    )


def partition_chain(
    chain: Chain, bound: float, objective: str = "bandwidth"
) -> ChainCutResult:
    """Load-bounded chain partitioning under any of the paper's objectives.

    ``objective`` is one of:

    - ``"bandwidth"`` — Algorithm 4.1 (minimum total cut weight);
    - ``"bottleneck"`` — Algorithm 2.1 on the chain seen as a tree
      (minimum heaviest cut edge);
    - ``"processors"`` — Algorithm 2.2 (fewest components);
    - ``"bottleneck+processors"`` — the Section 2.2 pipeline;
    - ``"bottleneck+bandwidth"`` — lexicographic: optimal bottleneck,
      then minimum total weight (the Section 3 real-time combination).
    """
    if objective == "bandwidth":
        result = bandwidth_min(chain, bound)
    elif objective == "bottleneck+bandwidth":
        from repro.core.bicriteria import lexicographic_chain_partition

        result = lexicographic_chain_partition(chain, bound).cut
    else:
        tree = chain.to_tree()
        if objective == "bottleneck":
            tree_result: TreeCutResult = bottleneck_min(tree, bound)
            cut_edges = tree_result.cut_edges
        elif objective == "processors":
            cut_edges = processor_min(tree, bound).cut_edges
        elif objective == "bottleneck+processors":
            cut_edges = partition_tree(tree, bound).final_cut
        else:
            raise ValueError(f"unknown objective {objective!r}")
        indices = sorted(u for u, _v in cut_edges)
        result = ChainCutResult(chain, indices, chain.cut_weight(indices))
    if "REPRO_VERIFY" in os.environ:
        from repro.verify.runtime import maybe_verify_chain_result

        maybe_verify_chain_result(
            chain,
            result.cut_indices,
            bound,
            claimed_weight=result.weight,
            optimal_bandwidth=objective == "bandwidth",
        )
    return result
