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

A chain is frozen once, at construction: each input sequence is unboxed
into a validated float64 buffer, and the prefix weights are computed
once.  With NumPy the buffers are read-only ndarrays that the engine's
kernels (:mod:`repro.engine.kernels`) read without a copy, and the
Python lists that the pure-Python reference reads (:attr:`Chain.alpha`,
:attr:`Chain.beta`, :meth:`Chain.prefix_weights`) are built from them on
first use, so every path sees the same floats.  Without NumPy the
buffers are those lists.
"""

from __future__ import annotations

import hashlib
import struct
from itertools import accumulate
from math import inf
from typing import Any, Iterable, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]

from repro.graphs.task_graph import TaskGraph
from repro.graphs.tree import Tree


def _float64(values: Any) -> "np.ndarray":
    """A fresh, writable 1-D float64 copy of ``values`` (one copy at most)."""
    if isinstance(values, np.ndarray):
        out = np.array(values, dtype=np.float64)
    elif isinstance(values, (list, tuple)):
        out = np.fromiter(values, dtype=np.float64, count=len(values))
    else:
        out = np.fromiter(values, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"chain weights must be one-dimensional, got shape {out.shape}")
    return out


def _check_weights(alpha: Sequence[float], beta: Sequence[float]) -> None:
    """Raise ``ValueError`` naming the first weight outside its range.

    The tests are negated so NaN, which fails every comparison, is
    rejected along with zero, negative and infinite weights.
    """
    for i, a in enumerate(alpha):
        if not 0 < a < inf:
            kind = "non-positive" if a <= 0 else "non-finite"
            raise ValueError(f"task {i} has {kind} weight {a}")
    for i, b in enumerate(beta):
        if not 0 <= b < inf:
            kind = "negative" if b < 0 else "non-finite"
            raise ValueError(f"edge {i} has {kind} weight {b}")


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
        (or 0 when the chain has a single task).  A ``-0.0`` weight is
        stored as ``0.0``.

    Either may be any iterable of numbers, an ndarray included; the chain
    keeps its own copy, so a caller cannot change a validated chain.
    """

    __slots__ = ("_buffers", "_alpha", "_beta", "_prefix", "_alpha_max",
                 "_fingerprint")

    def __init__(self, alpha: Iterable[float], beta: Iterable[float]) -> None:
        if np is None:
            a: Any = [float(x) for x in alpha]
            b: Any = [float(x) + 0.0 for x in beta]  # + 0.0 turns -0.0 into 0.0
        else:
            a, b = _float64(alpha), _float64(beta)
        n = len(a)
        if not n:
            raise ValueError("a chain needs at least one task")
        if len(b) != n - 1:
            raise ValueError(
                f"chain with {n} tasks needs {n - 1} edge weights, got {len(b)}"
            )
        # Weights need 0 < alpha < inf and 0 <= beta < inf.  Only valid
        # weights pass these whole-buffer tests (NaN poisons a NumPy
        # min/max and a sum; min() over a list is blind to it, so there
        # the sum decides); anything else takes the exact per-weight check.
        if np is None:
            prefix: Any = [0.0]
            prefix.extend(accumulate(a))
            alpha_max = max(a)
            valid = min(a) > 0 and prefix[-1] < inf and (
                not b or (min(b) >= 0 and sum(b) < inf))
        else:
            # cumsum adds left to right, as accumulate() does, so both
            # give the same floats; an overflowed prefix is inf, as in
            # Python, and warns in neither.
            prefix = np.empty(n + 1, dtype=np.float64)
            prefix[0] = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                np.cumsum(a, out=prefix[1:])
            alpha_max = float(a.max())
            beta_min = b.min() if n > 1 else inf
            valid = a.min() > 0 and alpha_max < inf and (
                n == 1 or (beta_min >= 0 and b.max() < inf))
            if beta_min == 0:  # -0.0 + 0.0 is 0.0; no zero, no pass
                np.add(b, 0.0, out=b)
        if not valid:
            _check_weights(a, b)
        self._install(a, b, prefix, alpha_max)

    def _install(self, alpha: Any, beta: Any, prefix: Any, alpha_max: float) -> "Chain":
        """Freeze validated buffers into this chain and return it."""
        buffers = (alpha, beta, prefix)
        if np is None:
            lists: Tuple[Optional[List[float]], ...] = buffers
        else:
            for buf in buffers:
                buf.flags.writeable = False
            lists = (None, None, None)  # built from the buffers on first use
        self._alpha, self._beta, self._prefix = lists
        self._buffers: Tuple[Any, Any, Any] = buffers
        self._alpha_max = alpha_max
        self._fingerprint = ""  # computed lazily
        return self

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self._buffers[0])

    @property
    def num_edges(self) -> int:
        return len(self._buffers[1])

    def buffers(self) -> Tuple[Any, Any, Any]:
        """The frozen ``(alpha, beta, prefix)`` buffers: read-only float64
        ndarrays with NumPy, else the lists :attr:`alpha`, :attr:`beta`
        and :meth:`prefix_weights` return.  Do not mutate."""
        return self._buffers

    @property
    def alpha(self) -> List[float]:
        """Vertex weights (do not mutate)."""
        if self._alpha is None:
            self._alpha = self._buffers[0].tolist()
        return self._alpha

    @property
    def beta(self) -> List[float]:
        """Edge weights (do not mutate)."""
        if self._beta is None:
            self._beta = self._buffers[1].tolist()
        return self._beta

    def vertex_weight(self, i: int) -> float:
        return self.alpha[i]

    def edge_weight(self, i: int) -> float:
        return self.beta[i]

    def total_weight(self) -> float:
        return float(self._buffers[2][-1])

    def max_vertex_weight(self) -> float:
        return self._alpha_max

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
            return self.alpha[lo]
        prefix = self.prefix_weights()
        return prefix[hi + 1] - prefix[lo]

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
        ``__init__`` rejects it.  The copy shares the frozen task buffers.
        """
        alpha, beta, prefix = self._buffers
        beta = list(beta) if np is None else beta.copy()
        for i in forbidden:
            beta[i] = inf
        return Chain.__new__(Chain)._install(alpha, beta, prefix, self._alpha_max)

    def prefix_weights(self) -> List[float]:
        """``prefix[i]`` = total weight of tasks ``0 .. i-1`` (len ``n + 1``)."""
        if self._prefix is None:
            self._prefix = self._buffers[2].tolist()
        return self._prefix

    def cut_weight(self, cut: Iterable[int]) -> float:
        """Total edge weight of a cut given as edge indices (the *bandwidth*)."""
        beta = self.beta
        return sum((beta[i] for i in cut), 0.0)

    def fingerprint(self) -> str:
        """Content hash of the chain (hex digest, cached after first call).

        Two chains with bit-identical ``alpha``/``beta`` share a
        fingerprint, even across processes — the key the engine's
        :class:`~repro.engine.cache.PlanCache` uses to share one
        compiled plan between queries on equal chains.  The digest is
        BLAKE2b over the task count and the little-endian float64 bytes
        of ``alpha`` and then ``beta``; ndarray buffers are hashed in
        place.
        """
        if not self._fingerprint:
            alpha, beta, _ = self._buffers
            digest = hashlib.blake2b(digest_size=16)
            digest.update(struct.pack("<q", len(alpha)))
            if np is None:
                digest.update(struct.pack(f"<{len(alpha)}d", *alpha))
                digest.update(struct.pack(f"<{len(beta)}d", *beta))
            else:
                digest.update(alpha.astype("<f8", copy=False))
                digest.update(beta.astype("<f8", copy=False))
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
        return TaskGraph(self.alpha, edges, self.beta)

    def to_tree(self) -> Tree:
        """The path :class:`Tree` ``0 - 1 - ... - n-1`` (edge ``i`` joins
        tasks ``i`` and ``i + 1``).  The chain has validated its floats,
        so the tree's lists are written directly: parent ``i - 1``, BFS
        order ``0 .. n-1`` and parent-edge weight ``beta[i - 1]``."""
        n = self.num_tasks
        return Tree.__new__(Tree)._set_lists(
            list(self.alpha), [-1, *range(n - 1)], list(range(n)), [0.0, *self.beta],
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

    def __reduce__(self) -> Tuple[Any, Tuple[List[float], List[float]]]:
        """Pickle and copy through the constructor, so a copy is validated
        and frozen again rather than carrying writable buffers under the
        original's cached fingerprint."""
        return Chain, (self.alpha, self.beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __repr__(self) -> str:
        return f"Chain(n={self.num_tasks}, W={self.total_weight():g})"
