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
heaviest-first, in ``(weight, edge)`` order, in one weighted union-find
(:func:`_merge`).  Section 2.2 reads the same sums, so a component
Algorithm 2.1 judged ``<= K`` is never re-summed to a rounding step
above ``K``.

Algorithm 2.1's sweep (:func:`_sweep`: the sort, the merge and the
component tops of :func:`_tops`) is one call to the native
``tree_sweep`` entry of ``_sweep.c`` where that library builds
(:mod:`repro.engine.native`, a stdlib-only module), on ``array`` copies
of the lists made once per tree (:meth:`Tree._arrays`); else the Python
here runs.  Both give the same order, cut, tops and sums, bit for bit.

Child order is part of the answer: Algorithm 2.2 sums a vertex with its
children in reverse BFS order, and a float sum depends on its order.
:meth:`Tree.contract_components` hands its super edges to the
constructor in the iteration order of the canonical cut set.
"""

from __future__ import annotations

from array import array
from itertools import compress
from math import inf
from operator import eq
from typing import (Collection, Dict, Iterable, Iterator, List, MutableSequence, Optional,
                    Sequence, Set, Tuple)

from repro.engine import native
from repro.graphs.task_graph import Edge, TaskGraph, canonical_edge, check_weights
from repro.graphs.task_graph import resolve_edge_weights


def _merge(weights: Sequence[float], parent: List[int], children: List[int],
           bound: float = inf) -> Tuple[int, List[int], List[float]]:
    """Merge the edges ``children`` (child vertices), last to first, in a
    weighted union-find by size; stop before a merge weighing over ``bound``.

    Returns ``(stop, root, sums)``: ``children[:stop]`` stay unmerged, and
    ``root[v]`` is ``v``'s union-find parent (``v`` at a root, whose
    ``sums`` entry is its component's weight).
    """
    root = list(range(len(weights)))
    size = [1] * len(weights)
    sums = list(weights)
    for idx in range(len(children) - 1, -1, -1):
        ru = child = children[idx]
        rv = parent[child]
        while root[ru] != ru:
            ru = root[ru]
        while root[rv] != rv:
            rv = root[rv]
        merged = sums[ru] + sums[rv]
        if merged > bound:
            return idx + 1, root, sums
        if size[ru] < size[rv]:  # repro-mutate: equivalent=flip-compare -- union-by-size tie direction is arbitrary; either root keeps the bound
            ru, rv = rv, ru
        root[rv] = ru
        size[ru] += size[rv]
        sums[ru] = merged
    return 0, root, sums


def _tops(parent: List[int], order: List[int], cut: Iterable[int], root: List[int],
          sums: List[float]) -> Tuple[List[int], List[float]]:
    """``(top, weight)`` of the components of ``T - cut`` (child vertices),
    given the BFS lists and :func:`_merge`'s union-find of the uncut edges:
    ``top[v]`` names ``v``'s component by its top vertex (0, or the child
    of the cut edge above it), and ``weight[t]`` is that component's sum.
    """
    top = parent[:]
    for child in cut:
        top[child] = child
    top[0] = 0
    for v in order:  # a parent's entry is final before its children's
        top[v] = top[top[v]]
    weight = [0.0] * len(parent)
    for r in compress(range(len(root)), map(eq, root, range(len(root)))):
        weight[top[r]] = sums[r]
    return top, weight


def _sweep(tree: Tree, bound: float, tops: bool) -> Tuple[
        List[int], int, Optional[Sequence[int]], Optional[MutableSequence[float]]]:
    """Algorithm 2.1's one union-find sweep at ``bound``, heaviest edge first.

    Returns ``(ordered, boundary, top, weight)``: the edges (child
    vertices) in :meth:`Tree.edges_by_weight` order, the cut
    ``ordered[:boundary]`` (:func:`_merge`'s stop) and, with ``tops``,
    :func:`_tops` of ``T - cut`` (else ``None, None``).  Runs the native
    ``tree_sweep`` where :func:`repro.engine.native.load_sweep` loads it,
    which sorts natively, caches its order as :meth:`Tree.edges_by_weight`
    if none is cached (the order is total, so any cached one is the same)
    and returns ``top``/``weight`` as ``array`` buffers; else the Python
    above.  Both routes agree bit for bit.
    """
    lib = native.load_sweep()
    if lib is None:
        ordered = tree.edges_by_weight()
        boundary, root, sums = _merge(tree._weights, tree._parent, ordered, bound)
        if not tops:
            return ordered, boundary, None, None
        top, weight = _tops(tree._parent, tree._order, ordered[:boundary], root, sums)
        return ordered, boundary, top, weight
    weights, parent, parent_weight, order = tree._arrays()
    n = len(parent)
    by_weight = array("q", [0]) * tree.num_edges
    top_buf = array("q", [0]) * n if tops else None
    weight_buf = array("d", [0.0]) * n if tops else None
    # The kernel writes by_weight, top_buf and weight_buf.
    boundary = lib.tree_sweep(
        n, weights.buffer_info()[0], parent.buffer_info()[0],
        parent_weight.buffer_info()[0], order.buffer_info()[0], bound,
        by_weight.buffer_info()[0],
        None if top_buf is None else top_buf.buffer_info()[0],
        None if weight_buf is None else weight_buf.buffer_info()[0])
    if boundary < 0:
        raise MemoryError("native tree sweep could not allocate its union-find")
    cached = tree._by_weight
    if cached is None:
        tree._by_weight = cached = by_weight.tolist()
    return cached, boundary, top_buf, weight_buf


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
                 "_by_weight", "_adjacency", "_buffers")

    def __init__(
        self,
        vertex_weights: Sequence[float],
        edges: Iterable[Edge],
        edge_weights: Optional[object] = None,
    ) -> None:
        weights = [float(w) + 0.0 for w in vertex_weights]  # -0.0 becomes 0.0
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
        self._buffers: Optional[Tuple[array, array, array, array]] = None
        return self

    def _arrays(self) -> Tuple[array, array, array, array]:
        """The weight, parent, parent-weight and BFS-order lists as
        float64/int64 ``array`` buffers for the native passes, built on
        first use (do not mutate)."""
        if self._buffers is None:
            self._buffers = (native.pack(self._weights, "d"), native.pack(self._parent, "q"),
                             native.pack(self._parent_weight, "d"),
                             native.pack(self._order, "q"))
        return self._buffers

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

    def parent_weights(self) -> List[float]:
        """Each vertex's parent-edge weight, 0.0 at the root (do not mutate)."""
        return self._parent_weight

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
        weight, ties broken by the canonical edge.  Sorted once, here or
        by the native sweep's first call (do not mutate)."""
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
        kept = [child for child in self.edges_by_weight() if child not in cut]
        _, root, sums = _merge(self._weights, self._parent, kept)
        top, weight = _tops(self._parent, self._order, cut, root, sums)
        number = [-1] * len(top)  # component number, per top vertex
        label: List[int] = []
        weights: List[float] = []
        for t in top:
            if number[t] < 0:
                number[t] = len(weights)
                weights.append(weight[t])
            label.append(number[t])
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
        ``edge_origin`` maps each super-tree edge to its cut edge.  The
        super edges go to the constructor in the canonical cut set's
        iteration order.  This is the test oracle of the solve path, which
        reads the same components without building a super tree.
        """
        cut = {e if e[0] < e[1] else canonical_edge(*e) for e in cut}
        children = self._children(cut)
        if 0 in children:
            missing = sorted(e for e, c in zip(cut, children) if not c)
            raise ValueError(f"cut edges not present in tree: {missing}")
        label, weights = self._components(set(children))  # Tree() rejects an inf sum
        super_edges = [canonical_edge(label[c], label[self._parent[c]]) for c in children]
        super_tree = Tree(weights, super_edges, [self._parent_weight[c] for c in children])
        return super_tree, _group(label, len(weights)), dict(zip(super_edges, cut))

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
