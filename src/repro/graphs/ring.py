"""Circular (ring) task graphs.

Section 3 motivates systems that are "circular or linear in nature",
e.g. circular logic circuits; a ring is the natural task graph of such
systems before any linearization.  Vertices ``0 .. n-1`` sit on a
cycle; edge ``i`` joins task ``i`` and task ``(i+1) mod n`` (so there
are exactly ``n`` edges, unlike a chain's ``n-1``).

Cutting a set of ring edges leaves arcs; cutting nothing leaves the
whole ring as one (cyclic) component.  :class:`Ring` provides the arc
arithmetic and :meth:`Ring.open_at` builds the chain obtained by
removing one edge — the reduction both the exact partitioner
(:mod:`repro.core.ring`) and the supergraph linearizer rely on.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf
from typing import Iterable, List, Sequence, Tuple

from repro.graphs.chain import Chain
from repro.graphs.task_graph import TaskGraph


class Ring:
    """A circular task graph with ``n`` tasks and ``n`` edges."""

    __slots__ = ("_alpha", "_beta", "_prefix")

    def __init__(self, alpha: Sequence[float], beta: Sequence[float]) -> None:
        if len(alpha) < 3:
            raise ValueError("a ring needs at least three tasks")
        self._alpha: List[float] = [float(a) for a in alpha]
        self._beta: List[float] = [float(b) for b in beta]
        if len(self._beta) != len(self._alpha):
            raise ValueError(
                f"ring with {len(self._alpha)} tasks needs "
                f"{len(self._alpha)} edge weights, got {len(self._beta)}"
            )
        # Negated range tests so NaN is rejected too (as in Chain).
        for i, a in enumerate(self._alpha):
            if not 0 < a < inf:
                kind = "non-positive" if a <= 0 else "non-finite"
                raise ValueError(f"task {i} has {kind} weight {a}")
        for i, b in enumerate(self._beta):
            if not 0 <= b < inf:
                kind = "negative" if b < 0 else "non-finite"
                raise ValueError(f"edge {i} has {kind} weight {b}")
        self._prefix = [0.0]
        self._prefix.extend(accumulate(self._alpha))

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
        return self._alpha

    @property
    def beta(self) -> List[float]:
        return self._beta

    def total_weight(self) -> float:
        return self._prefix[-1]

    def max_vertex_weight(self) -> float:
        return max(self._alpha)

    def edge_weight(self, i: int) -> float:
        return self._beta[i % self.num_tasks]

    def arc_weight(self, start: int, length: int) -> float:
        """Weight of the arc of ``length`` tasks beginning at ``start``
        (clockwise, wrapping).  ``length`` may not exceed ``n``."""
        n = self.num_tasks
        if not 1 <= length <= n:
            raise ValueError(f"arc length {length} out of range")
        start %= n
        end = start + length
        if end <= n:
            return self._prefix[end] - self._prefix[start]
        return (self._prefix[n] - self._prefix[start]) + self._prefix[end - n]

    def cut_weight(self, cut: Iterable[int]) -> float:
        return sum(self._beta[i % self.num_tasks] for i in set(
            i % self.num_tasks for i in cut
        ))

    # ------------------------------------------------------------------
    # Cuts and arcs
    # ------------------------------------------------------------------
    def cut_components(self, cut: Iterable[int]) -> List[Tuple[int, int]]:
        """Arcs induced by cutting the given edges, as ``(start, length)``.

        Edge ``i`` separates task ``i`` from task ``i+1 (mod n)``.  An
        empty cut leaves the whole ring: ``[(0, n)]``.
        """
        n = self.num_tasks
        boundaries = sorted({i % n for i in cut})
        if not boundaries:
            return [(0, n)]
        arcs: List[Tuple[int, int]] = []
        for idx, b in enumerate(boundaries):
            nxt = boundaries[(idx + 1) % len(boundaries)]
            start = (b + 1) % n
            length = (nxt - b) % n
            if length == 0:
                length = n
            arcs.append((start, length))
        return arcs

    def component_weights(self, cut: Iterable[int]) -> List[float]:
        return [
            self.arc_weight(start, length)
            for start, length in self.cut_components(cut)
        ]

    def is_feasible_cut(self, cut: Iterable[int], bound: float) -> bool:
        return all(w <= bound for w in self.component_weights(cut))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def open_at(self, edge: int) -> Chain:
        """The chain obtained by deleting ring edge ``edge``.

        The chain's tasks are ring tasks ``edge+1, edge+2, ..., edge``
        (clockwise); its edge ``j`` is ring edge ``(edge + 1 + j) mod n``.
        """
        n = self.num_tasks
        edge %= n
        order = [(edge + 1 + k) % n for k in range(n)]
        alpha = [self._alpha[v] for v in order]
        beta = [self._beta[(edge + 1 + j) % n] for j in range(n - 1)]
        return Chain(alpha, beta)

    def chain_edge_to_ring_edge(self, opened_at: int, chain_edge: int) -> int:
        """Map an edge index of ``open_at(opened_at)`` back to the ring."""
        return (opened_at + 1 + chain_edge) % self.num_tasks

    def to_task_graph(self) -> TaskGraph:
        n = self.num_tasks
        edges = [(i, (i + 1) % n) for i in range(n)]
        return TaskGraph(self._alpha, edges, self._beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ring):
            return NotImplemented
        return self._alpha == other._alpha and self._beta == other._beta

    def __repr__(self) -> str:
        return f"Ring(n={self.num_tasks}, W={self.total_weight():g})"
