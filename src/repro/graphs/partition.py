"""Edge cuts and the partitions they induce.

The paper states all three optimization problems over an *edge cut*
``S subset-of E`` and the connected components of ``G - S``:

- *execution-time bound*: every component's vertex weight is at most K;
- *bottleneck*: ``max_{e in S} delta(e)`` (Section 2.1);
- *processor count*: number of components (Section 2.2);
- *bandwidth*: ``sum_{e in S} beta(e)`` (Section 2.3).

:class:`Cut` is a thin immutable wrapper over a set of canonical edges
bound to a graph; :class:`Partition` materializes the induced components
and exposes all the objectives.  Both work for general
:class:`~repro.graphs.task_graph.TaskGraph` instances and for
:class:`~repro.graphs.tree.Tree`; chain algorithms
use plain edge-index lists internally and convert at the API boundary
via :func:`cut_from_chain_indices`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple, Union

from repro.graphs.chain import Chain
from repro.graphs.task_graph import Edge, TaskGraph, canonical_edge
from repro.graphs.tree import Tree

#: A graph a cut can be taken on: a general task graph or a tree.
Graph = Union[TaskGraph, Tree]


class Cut:
    """An immutable edge cut ``S`` on a task graph."""

    __slots__ = ("_graph", "_edges")

    def __init__(self, graph: Graph, edges: Iterable[Edge]) -> None:
        self._graph = graph
        canonical = frozenset(canonical_edge(u, v) for u, v in edges)
        missing = [e for e in canonical if not graph.has_edge(*e)]
        if missing:
            raise ValueError(f"cut contains edges not in the graph: {sorted(missing)}")
        self._edges: FrozenSet[Edge] = canonical

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self._edges))

    def __contains__(self, edge: Edge) -> bool:
        return canonical_edge(*edge) in self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return self._edges == other._edges and self._graph is other._graph

    def __hash__(self) -> int:
        return hash(self._edges)

    # -- objectives ----------------------------------------------------
    def bottleneck(self) -> float:
        """``max_{e in S} delta(e)``; 0 for the empty cut."""
        if not self._edges:
            return 0.0
        return max(self._graph.edge_weight(u, v) for u, v in self._edges)

    def bandwidth(self) -> float:
        """``sum_{e in S} beta(e)`` — total communication crossing the cut."""
        return sum(self._graph.edge_weight(u, v) for u, v in self._edges)

    def partition(self) -> "Partition":
        return Partition(self._graph, self)

    def is_feasible(self, bound: float) -> bool:
        """Execution-time-bound check: all components of ``G - S`` weigh <= bound."""
        return all(
            w <= bound for w in self._graph.component_weights(set(self._edges))
        )

    def __repr__(self) -> str:
        return f"Cut(|S|={len(self._edges)}, bandwidth={self.bandwidth():g})"


class Partition:
    """The connected components induced by removing a cut from its graph."""

    __slots__ = ("_graph", "_cut", "_components", "_weights")

    def __init__(self, graph: Graph, cut: Cut) -> None:
        if cut.graph is not graph:
            raise ValueError("cut belongs to a different graph")
        self._graph = graph
        self._cut = cut
        removed = set(cut.edges)
        self._components: List[List[int]] = graph.connected_components(removed)
        self._weights: List[float] = graph.component_weights(removed)

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def cut(self) -> Cut:
        return self._cut

    @property
    def components(self) -> List[List[int]]:
        return self._components

    @property
    def component_weights(self) -> List[float]:
        return self._weights

    @property
    def num_processors(self) -> int:
        """Number of components = processors required (Section 2.2)."""
        return len(self._components)

    def max_component_weight(self) -> float:
        return max(self._weights)

    def bottleneck(self) -> float:
        return self._cut.bottleneck()

    def bandwidth(self) -> float:
        return self._cut.bandwidth()

    def satisfies_bound(self, bound: float) -> bool:
        return self.max_component_weight() <= bound

    def load_imbalance(self) -> float:
        """Ratio of max to mean component weight (1.0 = perfectly balanced)."""
        mean = sum(self._weights) / len(self._weights)
        return self.max_component_weight() / mean if mean else 1.0

    def component_of(self) -> List[int]:
        """``component_of[v]`` = index of the component containing vertex v."""
        owner = [0] * self._graph.num_vertices
        for idx, component in enumerate(self._components):
            for v in component:
                owner[v] = idx
        return owner

    def __repr__(self) -> str:
        return (
            f"Partition(k={self.num_processors}, "
            f"max_w={self.max_component_weight():g}, "
            f"bandwidth={self.bandwidth():g})"
        )


def cut_from_chain_indices(
    graph: TaskGraph, indices: Sequence[int]
) -> Cut:
    """Convert chain edge indices (edge ``i`` joins vertices ``i, i+1``)
    into a :class:`Cut` on the chain's task-graph form."""
    return Cut(graph, [(i, i + 1) for i in indices])


def chain_blocks_to_assignment(
    chain: Chain, cut_indices: Sequence[int]
) -> List[int]:
    """Map every chain task to the index of its block under the cut."""
    assignment = [0] * chain.num_tasks
    for block_idx, (lo, hi) in enumerate(chain.cut_components(cut_indices)):
        for v in range(lo, hi + 1):
            assignment[v] = block_idx
    return assignment


def blocks_as_ranges(blocks: Iterable[Tuple[int, int]]) -> str:
    """Human-readable rendering of chain blocks, e.g. ``[0..3 | 4..7]``."""
    return "[" + " | ".join(f"{lo}..{hi}" for lo, hi in blocks) + "]"
