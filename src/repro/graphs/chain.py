"""Linear task graphs (chains).

Section 2.3 of the paper works on a path ``P = (V, E)`` with
``V = {v_1, ..., v_n}``, ``E = {e_i = (v_i, v_{i+1})}``, vertex weights
``alpha: V -> R+`` and edge weights ``beta: E -> R+``.  This module keeps
the same notation: ``alpha[i]`` is the weight of vertex ``i`` and
``beta[i]`` the weight of the edge between vertices ``i`` and ``i+1``
(0-based; the paper is 1-based).

A *cut* on a chain is naturally a set of edge indices.  The
:meth:`Chain.cut_components` helper converts a cut into the contiguous
blocks it induces, which is what the execution-time-bound condition is
stated over.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import accumulate
from math import inf
from typing import Iterable, List, Sequence, Tuple

from repro.graphs.task_graph import TaskGraph
from repro.graphs.tree import Tree


class Chain:
    """A linear task graph with ``n`` tasks and ``n - 1`` dependency edges.

    Parameters
    ----------
    alpha:
        Vertex weights, ``0 < alpha[i] < inf`` is the execution
        requirement of task ``i``.
    beta:
        Edge weights, ``0 <= beta[i] < inf`` is the communication volume
        between task ``i`` and task ``i + 1``.  Must have length ``len(alpha) - 1``
        (or 0 when the chain has a single task).
    """

    __slots__ = ("_alpha", "_beta", "_prefix", "_fingerprint")

    def __init__(self, alpha: Sequence[float], beta: Sequence[float]) -> None:
        if not alpha:
            raise ValueError("a chain needs at least one task")
        self._alpha: List[float] = [float(a) for a in alpha]
        self._beta: List[float] = [float(b) for b in beta]
        if len(self._beta) != len(self._alpha) - 1:
            raise ValueError(
                f"chain with {len(self._alpha)} tasks needs "
                f"{len(self._alpha) - 1} edge weights, got {len(self._beta)}"
            )
        # prefix[i] = alpha[0] + ... + alpha[i-1]; prefix[0] = 0.
        self._prefix: List[float] = [0.0]
        self._prefix.extend(accumulate(self._alpha))
        self._fingerprint: str = ""  # computed lazily
        # Weights need 0 < alpha < inf and 0 <= beta < inf.  min() is
        # blind to NaN, but NaN and +inf both poison a sum, so these
        # C-speed tests pass only valid lists; anything else takes the
        # exact per-weight check (which also accepts sums that merely
        # overflowed).
        beta = self._beta
        if not (min(self._alpha) > 0 and self._prefix[-1] < inf) or (
            beta and not (min(beta) >= 0 and sum(beta) < inf)
        ):
            self._check_weights()

    def _check_weights(self) -> None:
        """Raise ``ValueError`` naming the first weight outside its range.

        The tests are negated so NaN, which fails every comparison, is
        rejected along with zero, negative and infinite weights.
        """
        for i, a in enumerate(self._alpha):
            if not 0 < a < inf:
                kind = "non-positive" if a <= 0 else "non-finite"
                raise ValueError(f"task {i} has {kind} weight {a}")
        for i, b in enumerate(self._beta):
            if not 0 <= b < inf:
                kind = "negative" if b < 0 else "non-finite"
                raise ValueError(f"edge {i} has {kind} weight {b}")

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self._alpha)

    @property
    def num_edges(self) -> int:
        return len(self._beta)

    @property
    def alpha(self) -> List[float]:
        """Vertex weights (do not mutate)."""
        return self._alpha

    @property
    def beta(self) -> List[float]:
        """Edge weights (do not mutate)."""
        return self._beta

    def vertex_weight(self, i: int) -> float:
        return self._alpha[i]

    def edge_weight(self, i: int) -> float:
        return self._beta[i]

    def total_weight(self) -> float:
        return self._prefix[-1]

    def max_vertex_weight(self) -> float:
        return max(self._alpha)

    def segment_weight(self, lo: int, hi: int) -> float:
        """Total vertex weight of tasks ``lo .. hi`` inclusive, in O(1).

        A single-task segment returns its exact weight: the prefix
        difference can exceed ``alpha[lo]`` by cancellation noise, which
        would make a singleton block look infeasible under a bound equal
        to the maximum vertex weight.
        """
        if not (0 <= lo <= hi < self.num_tasks):
            raise IndexError(f"segment [{lo}, {hi}] out of range")
        if lo == hi:
            return self._alpha[lo]
        return self._prefix[hi + 1] - self._prefix[lo]

    def block_fits(self, lo: int, hi: int, bound: float) -> bool:
        """Whether tasks ``lo .. hi`` fit in one block under ``bound``.

        The one block-feasibility rule every chain solver shares:
        :meth:`segment_weight` ``<= bound``, so a single task always fits
        a bound the API accepts (``bound >= max alpha``).
        """
        return self.segment_weight(lo, hi) <= bound

    def _forbid_edges(self, forbidden: Iterable[int]) -> "Chain":
        """A copy whose ``forbidden`` edges weigh ``+inf``.

        Internal to solvers that must keep some edges uncut: an infinite
        weight removes an edge from every minimum-weight cut while
        keeping indices aligned.  Public inputs never carry ``inf``;
        ``__init__`` rejects it.
        """
        copy = Chain(self._alpha, self._beta)
        for i in forbidden:
            copy._beta[i] = inf
        return copy

    def prefix_weights(self) -> List[float]:
        """``prefix[i]`` = total weight of tasks ``0 .. i-1`` (len ``n + 1``)."""
        return self._prefix

    def cut_weight(self, cut: Iterable[int]) -> float:
        """Total edge weight of a cut given as edge indices (the *bandwidth*)."""
        return sum((self._beta[i] for i in cut), 0.0)

    def fingerprint(self) -> str:
        """Content hash of the chain (hex digest, cached after first call).

        Two chains with bit-identical ``alpha``/``beta`` share a
        fingerprint, even across processes — the key the engine's
        :class:`~repro.engine.cache.PlanCache` uses to share one
        compiled plan between queries on equal chains.
        """
        if not self._fingerprint:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(struct.pack("<q", len(self._alpha)))
            digest.update(struct.pack(f"<{len(self._alpha)}d", *self._alpha))
            if self._beta:
                digest.update(struct.pack(f"<{len(self._beta)}d", *self._beta))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Cuts and blocks
    # ------------------------------------------------------------------
    def cut_components(self, cut: Iterable[int]) -> List[Tuple[int, int]]:
        """Contiguous blocks ``(lo, hi)`` induced by cutting the given edges.

        A block ``(lo, hi)`` covers tasks ``lo .. hi`` inclusive.  Edge
        index ``i`` separates task ``i`` from task ``i + 1``.
        """
        boundaries = sorted(set(cut))
        for i in boundaries:
            if not (0 <= i < self.num_edges):
                raise IndexError(f"edge index {i} out of range")
        blocks: List[Tuple[int, int]] = []
        lo = 0
        for i in boundaries:
            blocks.append((lo, i))
            lo = i + 1
        blocks.append((lo, self.num_tasks - 1))
        return blocks

    def component_weights(self, cut: Iterable[int]) -> List[float]:
        """Vertex weight of every block induced by the cut."""
        return [self.segment_weight(lo, hi) for lo, hi in self.cut_components(cut)]

    def is_feasible_cut(self, cut: Iterable[int], bound: float) -> bool:
        """True when every block induced by ``cut`` weighs at most ``bound``."""
        return all(w <= bound for w in self.component_weights(cut))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_task_graph(self) -> TaskGraph:
        """The equivalent general :class:`TaskGraph` (vertices ``0..n-1``)."""
        edges = [(i, i + 1) for i in range(self.num_edges)]
        return TaskGraph(self._alpha, edges, self._beta)

    def to_tree(self) -> Tree:
        """The path :class:`Tree` ``0 - 1 - ... - n-1`` (edge ``i`` joins
        tasks ``i`` and ``i + 1``).  The chain has validated its floats,
        so the tree's lists are written directly: parent ``i - 1``, BFS
        order ``0 .. n-1`` and parent-edge weight ``beta[i - 1]``."""
        n = self.num_tasks
        return Tree.__new__(Tree)._set_lists(
            list(self._alpha), [-1, *range(n - 1)], list(range(n)), [0.0, *self._beta],
            list(range(1, n)))

    @classmethod
    def from_task_graph(cls, graph: TaskGraph) -> "Chain":
        """Build a chain from a path-shaped :class:`TaskGraph`.

        The task graph must be a simple path; its vertices are relabelled
        along the path starting from the lowest-id endpoint.
        """
        if not graph.is_path():
            raise ValueError("task graph is not a simple path")
        if graph.num_vertices == 1:
            return cls([graph.vertex_weight(0)], [])
        endpoints = [v for v in range(graph.num_vertices) if graph.degree(v) == 1]
        order = [min(endpoints)]
        prev = -1
        while len(order) < graph.num_vertices:
            current = order[-1]
            nxt = [v for v in graph.neighbors(current) if v != prev]
            prev = current
            order.append(nxt[0])
        alpha = [graph.vertex_weight(v) for v in order]
        beta = [
            graph.edge_weight(order[i], order[i + 1])
            for i in range(len(order) - 1)
        ]
        return cls(alpha, beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self._alpha == other._alpha and self._beta == other._beta

    def __repr__(self) -> str:
        return f"Chain(n={self.num_tasks}, W={self.total_weight():g})"
