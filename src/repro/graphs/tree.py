"""Tree task graphs (Sections 2.1 and 2.2).

The one place that knows how a tree is rooted and how the components of
``T - S`` weigh.  Construction validates the tree in one BFS from vertex
0 and keeps its order and parents; ``add_edge`` is refused, so that view
never goes stale.  A component weighs the sum Algorithm 2.1 forms: the
uncut edges merged heaviest-first, in ``(weight, edge)`` order, in a
weighted union-find.  The contraction of Section 2.2 reads the same
sums, so a component Algorithm 2.1 judged ``<= K`` is never re-summed to
a rounding step above ``K``.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graphs.task_graph import Edge, TaskGraph, canonical_edge


class _UnionFind:
    """Weighted union-find tracking component vertex weights."""

    __slots__ = ("parent", "size", "weight")

    def __init__(self, vertex_weights: Sequence[float]) -> None:
        n = len(vertex_weights)
        self.parent = list(range(n))
        self.size = [1] * n
        self.weight = list(vertex_weights)

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:  # path compression
            self.parent[v], v = root, self.parent[v]
        return root

    def union(self, u: int, v: int) -> None:
        """Merge the components of u and v."""
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            raise AssertionError("tree edges never merge the same component")
        if self.size[ru] < self.size[rv]:  # repro-mutate: equivalent=flip-compare -- union-by-size tie direction is arbitrary; either root keeps the bound
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        self.weight[ru] += self.weight[rv]


def _bfs(adjacency: List[List[int]], root: int) -> Tuple[List[int], List[int]]:
    """``(order, parent)`` of a BFS from ``root``; an unreached vertex
    keeps parent ``-2``."""
    parent = [-2] * len(adjacency)
    parent[root] = -1
    order = [root]
    for u in order:  # the list grows as it is read: a FIFO queue
        for v in adjacency[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
    return order, parent


class Tree(TaskGraph):
    """A connected, acyclic task graph (``m = n - 1`` and connected).

    All read-only :class:`TaskGraph` operations remain available.
    """

    __slots__ = ("_rooting", "_by_weight")

    def __init__(
        self,
        vertex_weights: Sequence[float],
        edges: Iterable[Edge],
        edge_weights: Optional[object] = None,
    ) -> None:
        super().__init__(vertex_weights, edges, edge_weights)
        n, m = self.num_vertices, self.num_edges
        self._by_weight: Optional[List[Edge]] = None
        self._rooting = _bfs(self._adjacency, 0) if n else ([], [])  # repro-mutate: equivalent=drop-tuple-field -- an empty graph raises just below before the rooting is read
        if not n or m != n - 1 or len(self._rooting[0]) != n:
            raise ValueError(
                f"graph with n={n}, m={m} is not a tree (must be connected and acyclic)"
            )

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> Edge:
        """Refused: a tree that gains an edge gains a cycle."""
        raise ValueError(f"cannot add edge ({u}, {v}) to a tree: it would close a cycle")

    # ------------------------------------------------------------------
    # Rooted views
    # ------------------------------------------------------------------
    def bfs_order(self, root: int = 0) -> Tuple[List[int], List[int]]:
        """Return ``(order, parent)`` for a BFS from ``root``;
        ``parent[root] == -1``.  Root 0's is the one construction built
        (do not mutate it)."""
        return self._rooting if root == 0 else _bfs(self._adjacency, root)

    def post_order(self, root: int = 0) -> Tuple[List[int], List[int]]:
        """Return ``(post_order, parent)`` — children always before parents."""
        order, parent = self.bfs_order(root)
        return order[::-1], parent

    def post_order_children(self, root: int = 0) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(v, children)`` children-first, ``children`` in reverse
        BFS order.  A BFS lists each vertex's children as one run, the runs
        in their parents' order, so walking it backwards peels them off."""
        order, _parent = self.bfs_order(root)
        degree = self.degree
        end = len(order)
        for v in reversed(order):
            start = end - degree(v) + (v != root)
            yield v, order[end - 1 : start - 1 : -1]  # order[start:end], reversed
            end = start

    def subtree_weights(self, root: int = 0) -> List[float]:
        """``w[v]`` = total vertex weight of the subtree rooted at ``v``
        (with the tree rooted at ``root``)."""
        order, parent = self.post_order(root)
        weights = list(self.vertex_weights)
        for v in order:
            if parent[v] >= 0:
                weights[parent[v]] += weights[v]
        return weights

    # ------------------------------------------------------------------
    # Components of T - S (Algorithm 2.1's sums)
    # ------------------------------------------------------------------
    def edges_by_weight(self) -> List[Edge]:
        """Edges in Algorithm 2.1's order: increasing weight, ties broken
        by the canonical edge.  Sorted once (do not mutate)."""
        if self._by_weight is None:
            weight = self._edge_weights
            self._by_weight = sorted(weight, key=lambda e: (weight[e], e))
        return self._by_weight

    def _components(self, cut: Collection[Edge]) -> Tuple[List[int], List[float]]:
        """``(label, weights)`` of the components of ``T - cut`` (canonical
        edges), numbered by lowest vertex: ``label[v]`` is ``v``'s
        component and ``weights[i]`` its union-find sum."""
        uf = _UnionFind(self.vertex_weights)
        union = uf.union
        for edge in reversed(self.edges_by_weight()):
            if edge not in cut:
                union(*edge)
        find, root_weight = uf.find, uf.weight
        number = [-1] * self.num_vertices  # component number, per root
        label: List[int] = []
        weights: List[float] = []
        for v in range(self.num_vertices):
            root = find(v)
            if number[root] < 0:
                number[root] = len(weights)
                weights.append(root_weight[root])
            label.append(number[root])
        return label, weights

    def component_weights(
        self, removed_edges: Optional[Set[Edge]] = None
    ) -> List[float]:
        """Weight of each component of ``T - removed_edges``, ordered by
        lowest vertex, summed as Algorithm 2.1 sums it."""
        return self._components(removed_edges or ())[1]

    # ------------------------------------------------------------------
    # Leaf / internal structure (Algorithm 2.2 vocabulary)
    # ------------------------------------------------------------------
    def leaves(self) -> List[int]:
        """All vertices of degree <= 1 (a single-vertex tree has one leaf)."""
        if self.num_vertices == 1:
            return [0]
        return [v for v in range(self.num_vertices) if self.degree(v) == 1]

    def internal_vertices(self) -> List[int]:
        return [v for v in range(self.num_vertices) if self.degree(v) >= 2]

    def is_star(self) -> bool:
        """True when some vertex is adjacent to all others."""
        return any(
            self.degree(v) == self.num_vertices - 1
            for v in range(self.num_vertices)
        )

    # ------------------------------------------------------------------
    # Contraction (super-node construction of Section 2.2)
    # ------------------------------------------------------------------
    def contract_components(
        self, cut: Set[Edge]
    ) -> Tuple["Tree", List[List[int]], Dict[Edge, Edge]]:
        """Lump each component of ``T - cut`` into a super-node.

        Section 2.2: the super-node tree's edges are exactly the cut
        edges.  Returns ``(super_tree, components, edge_origin)``:
        ``components[i]`` lists the vertices of super-node ``i`` (numbered
        by lowest vertex), which weighs its union-find sum, and
        ``edge_origin`` maps each super-tree edge to its cut edge.
        """
        cut = {canonical_edge(*e) for e in cut}
        missing = [e for e in cut if not self.has_edge(*e)]
        if missing:
            raise ValueError(f"cut edges not present in tree: {sorted(missing)}")
        label, weights = self._components(cut)
        components: List[List[int]] = [[] for _ in weights]
        for v, c in enumerate(label):
            components[c].append(v)
        super_edges: List[Edge] = []
        super_edge_weights: List[float] = []
        edge_origin: Dict[Edge, Edge] = {}
        for u, v in cut:
            super_edge = canonical_edge(label[u], label[v])
            super_edges.append(super_edge)
            super_edge_weights.append(self.edge_weight(u, v))
            edge_origin[super_edge] = (u, v)
        return Tree(weights, super_edges, super_edge_weights), components, edge_origin

    @classmethod
    def from_task_graph(cls, graph: TaskGraph) -> "Tree":
        return cls(graph.vertex_weights, list(graph.edges()), graph.edge_weight_map())

    @classmethod
    def star(
        cls,
        center_weight: float,
        leaf_weights: Sequence[float],
        edge_weights: Sequence[float],
    ) -> "Tree":
        """A star with vertex 0 as centre and leaves ``1 .. r`` (Theorem 1)."""
        if len(leaf_weights) != len(edge_weights):
            raise ValueError("one edge weight per leaf required")
        weights = [center_weight] + [float(w) for w in leaf_weights]
        edges = [(0, i + 1) for i in range(len(leaf_weights))]
        return cls(weights, edges, list(edge_weights))

    def __repr__(self) -> str:
        return (
            f"Tree(n={self.num_vertices}, leaves={len(self.leaves())}, "
            f"W={self.total_vertex_weight():g})"
        )
