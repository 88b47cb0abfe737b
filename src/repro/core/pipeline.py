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

:func:`partition_tree` reads the super-nodes from Algorithm 2.1's
union-find instead of building them; :meth:`Tree.contract_components`
plus :func:`~repro.core.processor_min.processor_min` is its test oracle.
Where the native library builds (:mod:`repro.engine.native`), the sweep
and the pruning are one ``_sweep.c`` call each (``tree_sweep``,
``tree_prune``), bit-identical to the Python loops they port, which run
otherwise.

For chains, :func:`partition_chain` exposes all three objectives behind
one API (bottleneck / processors / bandwidth), since a chain is a tree
and the bandwidth objective additionally admits Algorithm 4.1.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Dict, List, MutableSequence, Sequence, Set

from repro.core.bandwidth import ChainCutResult, bandwidth_min
from repro.core.bottleneck import TreeCutResult, _bottleneck_sweep, _certified, bottleneck_min
from repro.core.feasibility import total_overflow
from repro.core.processor_min import processor_min
from repro.engine import native
from repro.graphs.chain import Chain
from repro.graphs.partition import Cut, Partition
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree

#: Whether this interpreter's ``sum()`` of floats is compensated (CPython
#: 3.12 and later), which the native pruning then reproduces.
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


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

    Runs Algorithm 2.1, then Algorithm 2.2 on its components, each named
    by its top vertex (:func:`~repro.graphs.tree._sweep`).  A component
    weighs its union-find sum and hangs below the component of its top's
    parent; the cut edges above the pruned components are the final cut.
    """
    ordered, boundary, top, residual = _bottleneck_sweep(tree, bound, tops=True)
    assert top is not None and residual is not None
    first_cut = set(tree.parent_edges(ordered[:boundary]))
    pruned = _prune(tree, first_cut, top, residual, bound)
    final_cut = set(tree.parent_edges(pruned))
    bottleneck = max(map(tree.parent_weights().__getitem__, pruned), default=0.0)
    _certified(TreeCutResult(tree, final_cut, bottleneck), bound)
    return TreePartitionPlan(
        tree, bound, first_cut, final_cut, bottleneck, len(final_cut) + 1
    )


def _prune(tree: Tree, first_cut: Set[Edge], top: Sequence[int],
           residual: MutableSequence[float], bound: float) -> List[int]:
    """Algorithm 2.2 on the components of ``T - first_cut``, named and
    weighed by ``top`` and ``residual`` (the sweep's ``top`` and
    ``weight``): the cut edges (child vertices) above the pruned
    components, in pruning order.  Raises
    :class:`~repro.core.feasibility.OptimumOverflowError` when a
    component's total overflows to ``inf``.

    On the native sweep's ``array`` buffers this is one ``tree_prune``
    call; on the Python sweep's lists it is the loop below.
    """
    bfs, parent = tree.bfs_order()
    # A component's children are summed in the reverse iteration order of
    # the canonical cut set the contraction sees.  A float sum depends on
    # its order, so this order is load-bearing until a component weighs an
    # order-free sum (ROADMAP item 1); plain set(list) order differs.
    children = [v if parent[v] == u else u for u, v in {e for e in set(first_cut)}]
    if isinstance(top, array) and isinstance(residual, array):
        lib: Any = native.load_sweep()  # the sweep ran natively, so it loaded
        _, parent_buf, _, order_buf = tree._arrays()
        given = native.pack(children, "q")
        out = array("q", [0]) * len(given)
        count = lib.tree_prune(
            len(parent), parent_buf.buffer_info()[0], order_buf.buffer_info()[0],
            top.buffer_info()[0], residual.buffer_info()[0], len(given),
            given.buffer_info()[0], bound, _COMPENSATED_SUM, out.buffer_info()[0])
        if count == -1:
            raise MemoryError("native tree pruning could not allocate its groups")
        if count == -2:
            raise total_overflow(bound)
        return out[:count].tolist()
    kids: DefaultDict[int, List[int]] = defaultdict(list)  # top -> child tops
    for child in children:
        kids[top[parent[child]]].append(child)
    low: Dict[int, int] = {}  # top vertex -> lowest vertex, built on a tie
    pruned: List[int] = []
    # Reverse BFS order of the tops reduces the components children-first.
    for v in filter(kids.__contains__, reversed(bfs)):
        group = kids[v]
        total = residual[v] + sum(map(residual.__getitem__, reversed(group)))
        if total > bound:  # repro-mutate: equivalent=flip-compare -- at total == K the loop below prunes nothing
            if total == math.inf:
                raise total_overflow(bound)
            # Prune the heaviest first: the first k components by weight.
            by_weight = sorted(group, key=residual.__getitem__, reverse=True)
            k = 0
            for c in by_weight:
                if total <= bound:
                    break
                total -= residual[c]
                k += 1
            if k < len(by_weight) and residual[by_weight[k - 1]] == residual[by_weight[k]]:
                # A tie across the cut-off goes to the lower component
                # number, the order of the components' lowest vertices.
                low = low or {t: w for w, t in reversed(list(enumerate(top)))}
                by_weight.sort(key=lambda c: (-residual[c], low[c]))
            pruned.extend(by_weight[:k])
        residual[v] = total
    return pruned


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
