"""Bottom-up minimum-cardinality tree partitioning (Kundu–Misra style).

An independent implementation of the classic bottom-up greedy for
partitioning a tree into the fewest components of bounded weight:
process vertices leaves-up; whenever the accumulated cluster at a vertex
exceeds the bound, detach its heaviest child clusters until it fits.

The paper's Algorithm 2.2 is an unrooted reformulation of the same rule
(it credits an edge-integrity algorithm [1]); having two independently
coded versions lets the test suite check them against each other and
against the exact DP oracle.  This version differs superficially: it
accumulates *all* children before cutting, whereas Algorithm 2.2 works
centre-by-centre — the minimized objective (|S|) always agrees.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.bottleneck import TreeCutResult
from repro.core.feasibility import validate_bound
from repro.graphs.task_graph import Edge
from repro.graphs.tree import Tree


def processor_min_bottom_up(tree: Tree, bound: float, root: int = 0) -> TreeCutResult:
    """Minimum-cardinality load-bounded tree cut, bottom-up greedy."""
    validate_bound(tree.vertex_weights, bound)
    order, parent = tree.post_order(root)
    cluster = list(tree.vertex_weights)
    children: List[List[int]] = [[] for _ in range(tree.num_vertices)]
    for v in order:
        if parent[v] >= 0:
            children[parent[v]].append(v)

    cut: Set[Edge] = set()
    for v in order:
        total = cluster[v] + sum(cluster[c] for c in children[v])
        if total > bound:
            for c in sorted(children[v], key=lambda c: (-cluster[c], c)):
                if total <= bound:
                    break
                total -= cluster[c]
                cut.add((v, c) if v < c else (c, v))
        cluster[v] = total

    bottleneck = max((tree.edge_weight(u, w) for u, w in cut), default=0.0)
    return TreeCutResult(tree, cut, bottleneck)
