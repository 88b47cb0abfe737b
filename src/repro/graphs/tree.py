"""Tree task graphs (Sections 2.1 and 2.2).

The one place that knows how a tree is rooted and how the components of
``T - S`` weigh.  A :class:`Tree` is rooted at vertex 0 and held as flat
lists, the parent-array form of the tree-scheduling literature:
``_weights[v]``; ``_parent[v]``, the BFS parent (``-1`` at the root);
``_order``, the BFS order; ``_parent_weight[v]``, the weight of edge
``{v, parent[v]}``; and ``_edge_child``, the child of each input edge in
input order, the order :meth:`Tree.edges` keeps.  Each edge is addressed
by its child vertex here and in Algorithms 2.1/2.2; canonical ``(u, v)``
tuples appear only at the API boundary.  Construction validates in one
BFS, and a tree never changes afterwards.

A component weighs the sum Algorithm 2.1 forms: the uncut edges merged
heaviest-first, in ``(weight, edge)`` order, in a weighted union-find.
The contraction of Section 2.2 reads the same sums, so a component
Algorithm 2.1 judged ``<= K`` is never re-summed to a rounding step
above ``K``.

Child order is part of the answer: Algorithm 2.2 sums a vertex with its
children in reverse BFS order, and a float sum depends on its order.
The contraction lists each super-node's children in the iteration order
of the canonical cut set, the order its edges would be handed to the
constructor in, so it is bit for bit ``Tree(weights, super_edges, ...)``.
"""

from __future__ import annotations

from math import inf
from operator import eq
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graphs.task_graph import Edge, TaskGraph, canonical_edge, check_weights
from repro.graphs.task_graph import resolve_edge_weights


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


def _group(label: List[int], count: int) -> List[List[int]]:
    """The vertices of each of ``count`` labels, in increasing order."""
    groups: List[List[int]] = [[] for _ in range(count)]
    for v, c in enumerate(label):
        groups[c].append(v)
    return groups


class Tree:
    """A connected, acyclic task graph (``m = n - 1`` and connected).

    Built from :class:`TaskGraph`'s constructor arguments, with its
    read-only accessors.
    """

    __slots__ = ("_weights", "_parent", "_order", "_parent_weight", "_edge_child",
                 "_by_weight", "_adjacency")

    def __init__(
        self,
        vertex_weights: Sequence[float],
        edges: Iterable[Edge],
        edge_weights: Optional[object] = None,
    ) -> None:
        weights = [float(w) for w in vertex_weights]
        check_weights(weights, "vertex {}".format)
        edge_list = list(edges)
        edge_values = resolve_edge_weights(edge_list, edge_weights)
        check_weights(edge_values, lambda i: f"edge {canonical_edge(*edge_list[i])}")
        n, m = len(weights), len(edge_list)
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for u, v in edge_list:
            if u == v or not (0 <= u < n and 0 <= v < n):
                canonical_edge(u, v)  # raises on a self-loop
                raise ValueError(f"edge ({u}, {v}) references a vertex out of range")
            adjacency[u].append(v)
            adjacency[v].append(u)
        order, parent = _bfs(adjacency, 0) if n else ([], [])
        if not n or m != n - 1 or len(order) != n:
            raise ValueError(
                f"graph with n={n}, m={m} is not a tree (must be connected and acyclic)"
            )
        parent_weight = [0.0] * n
        edge_child = [v if parent[v] == u else u for u, v in edge_list]
        for child, w in zip(edge_child, edge_values):
            parent_weight[child] = w
        self._set_lists(weights, parent, order, parent_weight, edge_child)

    def _set_lists(self, weights: List[float], parent: List[int], order: List[int],
                   parent_weight: List[float], edge_child: List[int]) -> "Tree":
        """Install already validated lists (the module docstring's layout)."""
        self._weights, self._parent, self._order = weights, parent, order
        self._parent_weight, self._edge_child = parent_weight, edge_child
        self._by_weight: Optional[List[int]] = None
        self._adjacency: Optional[List[List[int]]] = None
        return self

    # ------------------------------------------------------------------
    # Accessors (read-only TaskGraph vocabulary)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._weights)

    @property
    def num_edges(self) -> int:
        return len(self._edge_child)

    @property
    def vertex_weights(self) -> List[float]:
        """The vertex-weight list (do not mutate)."""
        return self._weights

    def vertex_weight(self, v: int) -> float:
        return self._weights[v]

    def _children(self, edges: Iterable[Edge]) -> List[int]:
        """The child vertex of each edge ``(u, v)``, or ``0`` (the root,
        which is no edge's child) where ``{u, v}`` is no edge."""
        parent, n = self._parent, len(self._parent)
        return [
            (v if parent[v] == u else u if parent[u] == v else 0)
            if 0 <= u < n and 0 <= v < n else 0
            for u, v in edges
        ]

    def parent_edges(self, children: Iterable[int]) -> List[Edge]:
        """The canonical edge joining each child vertex to its parent."""
        parent = self._parent
        return [(parent[c], c) if parent[c] < c else (c, parent[c]) for c in children]  # repro-mutate: equivalent=flip-compare -- a vertex is never its own parent

    def edge_weight(self, u: int, v: int) -> float:
        (child,) = self._children(((u, v),))
        if not child:
            raise KeyError((u, v))
        return self._parent_weight[child]

    def has_edge(self, u: int, v: int) -> bool:
        return self._children(((u, v),)) != [0]

    def edges(self) -> Iterator[Edge]:
        """Canonical edges in input order."""
        return iter(self.parent_edges(self._edge_child))

    def weighted_edges(self) -> Iterator[Tuple[Edge, float]]:
        weight = self._parent_weight.__getitem__
        return zip(self.parent_edges(self._edge_child), map(weight, self._edge_child))

    def edge_weight_map(self) -> Dict[Edge, float]:
        return dict(self.weighted_edges())

    def _neighbors(self) -> List[List[int]]:
        """Adjacency lists in input-edge order, built on first use."""
        if self._adjacency is None:
            self._adjacency = [[] for _ in self._weights]
            for child in self._edge_child:
                self._adjacency[child].append(self._parent[child])
                self._adjacency[self._parent[child]].append(child)
        return self._adjacency

    def neighbors(self, v: int) -> List[int]:
        return self._neighbors()[v]

    def degree(self, v: int) -> int:
        return len(self._neighbors()[v])

    def total_vertex_weight(self) -> float:
        return sum(self._weights)

    def max_vertex_weight(self) -> float:
        return max(self._weights)

    def is_tree(self) -> bool:
        return True

    def is_path(self) -> bool:
        return all(len(adjacent) <= 2 for adjacent in self._neighbors())

    # ------------------------------------------------------------------
    # Rooted views
    # ------------------------------------------------------------------
    def bfs_order(self, root: int = 0) -> Tuple[List[int], List[int]]:
        """Return ``(order, parent)`` for a BFS from ``root``;
        ``parent[root] == -1``.  Root 0's are the tree's own lists (do
        not mutate them)."""
        return (self._order, self._parent) if root == 0 else _bfs(self._neighbors(), root)

    def post_order(self, root: int = 0) -> Tuple[List[int], List[int]]:
        """Return ``(post_order, parent)`` — children always before parents."""
        order, parent = self.bfs_order(root)
        return order[::-1], parent

    def post_order_children(self, root: int = 0) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(v, children)`` children-first, ``children`` in reverse
        BFS order."""
        order, parent = self.bfs_order(root)
        count = [0] * len(order)  # children per vertex
        for v in order[1:]:
            count[parent[v]] += 1
        # A BFS lists each vertex's children as one run, the runs in their
        # parents' order, so walking it backwards peels them off.
        end = len(order)
        for v in reversed(order):
            start = end - count[v]
            yield v, order[end - 1 : start - 1 : -1]  # order[start:end], reversed
            end = start

    def subtree_weights(self, root: int = 0) -> List[float]:
        """``w[v]`` = total vertex weight of the subtree rooted at ``v``
        (with the tree rooted at ``root``)."""
        order, parent = self.post_order(root)
        weights = list(self._weights)
        for v in order:
            if parent[v] >= 0:
                weights[parent[v]] += weights[v]
        return weights

    # ------------------------------------------------------------------
    # Components of T - S (Algorithm 2.1's sums)
    # ------------------------------------------------------------------
    def edges_by_weight(self) -> List[int]:
        """Edges, as child vertices, in Algorithm 2.1's order: increasing
        weight, ties broken by the canonical edge.  Sorted once (do not
        mutate)."""
        if self._by_weight is None:
            # Stable sorts on C-level keys, no key tuples: by weight, and
            # if weights tie, first by edge code ``lo * n + hi``.
            weight = self._parent_weight.__getitem__
            by_weight = sorted(self._edge_child, key=weight)
            ordered = list(map(weight, by_weight))
            if any(map(eq, ordered, ordered[1:])):
                n = len(self._parent)
                code = [c * n + p if c < p else p * n + c for c, p in enumerate(self._parent)]  # repro-mutate: equivalent=flip-compare -- a vertex is never its own parent
                by_weight = sorted(sorted(self._edge_child, key=code.__getitem__), key=weight)
            self._by_weight = by_weight
        return self._by_weight

    def _components(self, cut: Collection[int]) -> Tuple[List[int], List[float]]:
        """``(label, weights)`` of the components of ``T - cut`` (edges as
        child vertices), numbered by lowest vertex: ``label[v]`` is
        ``v``'s component and ``weights[i]`` its union-find sum."""
        uf = _UnionFind(self._weights)
        union, parent = uf.union, self._parent
        for child in reversed(self.edges_by_weight()):
            if child not in cut:
                union(child, parent[child])
        uf_parent, find, root_weight = uf.parent, uf.find, uf.weight
        number = [-1] * len(parent)  # component number, per root
        label: List[int] = []
        weights: List[float] = []
        for v in range(len(parent)):
            root = uf_parent[v]
            if uf_parent[root] != root:  # more than one step: find() compresses
                root = find(v)
            if number[root] < 0:
                number[root] = len(weights)
                weights.append(root_weight[root])
            label.append(number[root])
        return label, weights

    def _cut_children(self, removed_edges: Optional[Set[Edge]]) -> Set[int]:
        return set(self._children(removed_edges or ()))

    def connected_components(self, removed_edges: Optional[Set[Edge]] = None) -> List[List[int]]:
        """Vertex lists of the components of ``T - removed_edges``,
        numbered by lowest vertex, each in increasing vertex order."""
        label, weights = self._components(self._cut_children(removed_edges))
        return _group(label, len(weights))

    def component_weights(self, removed_edges: Optional[Set[Edge]] = None) -> List[float]:
        """Weight of each component of ``T - removed_edges``, ordered by
        lowest vertex, summed as Algorithm 2.1 sums it."""
        return self._components(self._cut_children(removed_edges))[1]

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
        super_tree, label, edge_origin = self.contract(cut)
        return super_tree, _group(label, super_tree.num_vertices), edge_origin

    def contract(
        self, cut: Set[Edge]
    ) -> Tuple["Tree", List[int], Dict[Edge, Edge]]:
        """:meth:`contract_components` without the per-super-node vertex
        lists: ``(super_tree, label, edge_origin)``, where ``label[v]`` is
        vertex ``v``'s super-node.

        The super tree's lists are written from the component labels: its
        root is super-node 0 (vertex 0's), and cut edge ``c`` (a child
        vertex) joins ``label[c]`` to its parent ``label[parent[c]]``.
        """
        # The canonical set's iteration order is the super tree's child
        # order; edges already canonical are kept, not rebuilt.
        cut = {e if e[0] < e[1] else canonical_edge(*e) for e in cut}
        children = self._children(cut)
        if 0 in children:
            missing = sorted(e for e, c in zip(cut, children) if not c)
            raise ValueError(f"cut edges not present in tree: {missing}")
        label, weights = self._components(set(children))
        if max(weights) == inf:  # sums of finite weights >= 0 are never NaN
            raise ValueError("a component of T - S weighs inf: its task weights overflow")
        old_parent, old_weight = self._parent, self._parent_weight
        parent = [-1] * len(weights)
        parent_weight = [0.0] * len(weights)
        edge_child = [label[c] for c in children]
        edge_origin: Dict[Edge, Edge] = {}
        for edge, child, below in zip(cut, children, edge_child):
            above = label[old_parent[child]]
            parent[below], parent_weight[below] = above, old_weight[child]
            edge_origin[(below, above) if below < above else (above, below)] = edge  # repro-mutate: equivalent=flip-compare -- a super-node is never its own parent
        # Children as linked lists (first child, next sibling; 0, the root,
        # ends a list), pushed front in reverse cut-set order so that each
        # keeps cut-set order.
        first, sibling = [0] * len(weights), [0] * len(weights)
        for below in reversed(edge_child):
            sibling[below], first[parent[below]] = first[parent[below]], below
        order = [0]
        for s in order:  # the list grows as it is read: a BFS
            child = first[s]
            while child:
                order.append(child)
                child = sibling[child]
        super_tree = Tree.__new__(Tree)._set_lists(
            weights, parent, order, parent_weight, edge_child)
        return super_tree, label, edge_origin

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self._weights == other._weights and self.edge_weight_map() == other.edge_weight_map()

    def __repr__(self) -> str:
        return (
            f"Tree(n={self.num_vertices}, leaves={len(self.leaves())}, "
            f"W={self.total_vertex_weight():g})"
        )
