"""General weighted task graphs.

A task graph ``G_task = (N, MD)`` (paper, Section 1) models a parallel
application: each vertex is a task carrying a processing requirement
``w(t_i)`` and each edge is a data dependency carrying a communication
volume ``w(m_i)``.  Vertices are integers ``0 .. n-1``; an edge is an
unordered pair stored in canonical ``(min, max)`` order.

The class is deliberately simple and allocation-light: adjacency is a
list of lists, weights are plain ``float`` lists/dicts.  All partitioning
algorithms in this repository run on millions-of-edge instances inside
benchmarks, so hot helpers (component sweeps, weight sums) avoid per-call
object churn.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of the undirected edge ``{u, v}``."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid task-graph edge")
    return (u, v) if u < v else (v, u)


def check_weights(weights: List[float], name: Callable[[int], str]) -> None:
    """Raise ``ValueError`` unless every weight is finite and ``>= 0``.

    ``min`` is blind to NaN, but NaN and ``+inf`` both poison a sum, so
    the C-speed test passes only valid lists; anything else takes the
    exact scan (which also accepts sums that merely overflowed).
    """
    if weights and not (min(weights) >= 0 and sum(weights) < inf):
        for i, w in enumerate(weights):
            if not 0 <= w < inf:  # negated so NaN is rejected too
                kind = "negative" if w < 0 else "non-finite"
                raise ValueError(f"{name(i)} has {kind} weight {w}")


def resolve_edge_weights(
    edge_list: List[Edge], edge_weights: Optional[object]
) -> List[float]:
    """One float per edge: ``edge_weights`` is ``None`` (all ``1.0``), a
    dict keyed by canonical edge, or a sequence aligned with ``edge_list``.
    ``+ 0.0`` stores a ``-0.0`` weight as ``0.0``, so no answer's sign
    depends on the order its weights are read in."""
    if edge_weights is None:
        return [1.0] * len(edge_list)
    if isinstance(edge_weights, dict):
        return [float(edge_weights[canonical_edge(*edge)]) + 0.0 for edge in edge_list]
    weights = [float(w) + 0.0 for w in edge_weights]
    if len(weights) != len(edge_list):
        raise ValueError(f"{len(weights)} edge weights given for {len(edge_list)} edges")
    return weights


class TaskGraph:
    """An undirected task graph with vertex and edge weights.

    Parameters
    ----------
    vertex_weights:
        Processing requirement ``w(t_i)`` for each task, indexed by vertex id.
        All weights must be non-negative.
    edges:
        Iterable of ``(u, v)`` pairs (any order; stored canonically).
    edge_weights:
        Communication volume ``w(m_i)`` per edge.  Either a mapping from
        canonical edge to weight, or a sequence aligned with ``edges``.
        Defaults to weight ``1.0`` on every edge.
    """

    __slots__ = ("_vertex_weights", "_edge_weights", "_adjacency")

    def __init__(
        self,
        vertex_weights: Sequence[float],
        edges: Iterable[Edge] = (),
        edge_weights: Optional[object] = None,
    ) -> None:
        self._vertex_weights: List[float] = [float(w) + 0.0 for w in vertex_weights]
        check_weights(self._vertex_weights, "vertex {}".format)
        n = len(self._vertex_weights)
        self._adjacency: List[List[int]] = [[] for _ in range(n)]
        self._edge_weights: Dict[Edge, float] = {}

        edge_list = [canonical_edge(u, v) for u, v in edges]
        weights = resolve_edge_weights(edge_list, edge_weights)
        for edge, weight in zip(edge_list, weights):
            self.add_edge(edge[0], edge[1], weight)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float = 1.0) -> Edge:
        """Insert edge ``{u, v}`` with the given weight and return its canonical form."""
        edge = canonical_edge(u, v)
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            raise ValueError(f"edge ({u}, {v}) references a vertex out of range")
        if edge in self._edge_weights:
            raise ValueError(f"duplicate edge {edge}")
        if not 0 <= weight < inf:  # negated so NaN is rejected too
            kind = "negative" if weight < 0 else "non-finite"
            raise ValueError(f"edge {edge} has {kind} weight {weight}")
        self._edge_weights[edge] = float(weight)
        self._adjacency[edge[0]].append(edge[1])
        self._adjacency[edge[1]].append(edge[0])
        return edge

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._vertex_weights)

    @property
    def num_edges(self) -> int:
        return len(self._edge_weights)

    @property
    def vertex_weights(self) -> List[float]:
        """The vertex-weight list (do not mutate)."""
        return self._vertex_weights

    def vertex_weight(self, v: int) -> float:
        return self._vertex_weights[v]

    def edge_weight(self, u: int, v: int) -> float:
        return self._edge_weights[canonical_edge(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._edge_weights

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical edges in insertion order."""
        return iter(self._edge_weights)

    def weighted_edges(self) -> Iterator[Tuple[Edge, float]]:
        return iter(self._edge_weights.items())

    def edge_weight_map(self) -> Dict[Edge, float]:
        """A copy of the edge-weight mapping."""
        return dict(self._edge_weights)

    def neighbors(self, v: int) -> List[int]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def total_vertex_weight(self) -> float:
        return sum(self._vertex_weights)

    def total_edge_weight(self) -> float:
        return sum(self._edge_weights.values())

    def max_vertex_weight(self) -> float:
        return max(self._vertex_weights) if self._vertex_weights else 0.0

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def connected_components(
        self, removed_edges: Optional[Set[Edge]] = None
    ) -> List[List[int]]:
        """Connected components of ``G - removed_edges`` as vertex lists.

        ``removed_edges`` must contain canonical edges.  Runs one BFS sweep
        in ``O(n + m)``.
        """
        removed = removed_edges or frozenset()
        seen = [False] * self.num_vertices
        components: List[List[int]] = []
        for start in range(self.num_vertices):
            if seen[start]:
                continue
            seen[start] = True
            component = [start]
            queue = deque((start,))
            while queue:
                u = queue.popleft()
                for v in self._adjacency[u]:
                    if seen[v]:
                        continue
                    edge = (u, v) if u < v else (v, u)
                    if edge in removed:
                        continue
                    seen[v] = True
                    component.append(v)
                    queue.append(v)
            components.append(component)
        return components

    def component_weights(
        self, removed_edges: Optional[Set[Edge]] = None
    ) -> List[float]:
        """Total vertex weight of each component of ``G - removed_edges``."""
        return [
            sum(self._vertex_weights[v] for v in component)
            for component in self.connected_components(removed_edges)
        ]

    def is_connected(self) -> bool:
        return self.num_vertices <= 1 or len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        return (
            self.num_vertices >= 1
            and self.num_edges == self.num_vertices - 1
            and self.is_connected()
        )

    def is_path(self) -> bool:
        """True when the graph is a simple path ``v_0 - v_1 - ... - v_{n-1}``
        in *some* vertex order."""
        if self.num_vertices == 0:
            return False
        if self.num_vertices == 1:
            return self.num_edges == 0
        if not self.is_tree():
            return False
        degrees = [self.degree(v) for v in range(self.num_vertices)]
        return max(degrees) <= 2 and degrees.count(1) == 2

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "TaskGraph":
        clone = TaskGraph(self._vertex_weights)
        for edge, weight in self._edge_weights.items():
            clone.add_edge(edge[0], edge[1], weight)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self._vertex_weights == other._vertex_weights
            and self._edge_weights == other._edge_weights
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are not hashable
        raise TypeError("TaskGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"TaskGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"W={self.total_vertex_weight():g})"
        )
