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

A chain is frozen once, at construction: each input sequence is packed
into a float64 ``array("d")`` with one cached :class:`struct.Struct`,
and one pass validates the weights, writes the prefix weights, finds the
largest task weight and stores ``-0.0`` as ``0.0``.  The pass is the
native ``chain_freeze`` entry of ``_sweep.c`` where that library builds
(:mod:`repro.engine.native`, a stdlib-only module), else the stdlib
loops below; both give the same bytes.  :meth:`Chain.buffers` exposes
the three buffers as read-only memoryviews that the engine's kernels
(:mod:`repro.engine.kernels`) and the fingerprint read in place, and
the Python lists that the pure-Python reference reads
(:attr:`Chain.alpha`, :attr:`Chain.beta`, :meth:`Chain.prefix_weights`)
are built from them on first use, so every path sees the same floats.
Nothing here imports NumPy.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from functools import lru_cache
from itertools import accumulate
from math import inf
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.engine import native
from repro.graphs.task_graph import TaskGraph
from repro.graphs.tree import Tree

#: The fingerprint's task-count prefix.
_COUNT = struct.Struct("<q")


@lru_cache(maxsize=64)
def _packer(n: int) -> struct.Struct:
    """The packer of ``n`` native float64s (a chain's sizes repeat)."""
    return struct.Struct(f"={n}d")


def _float64(values: Any) -> array:
    """A fresh float64 ``array("d")`` of ``values``: any one-dimensional
    iterable of numbers (an ndarray or memoryview included)."""
    if getattr(values, "ndim", 1) != 1:
        raise ValueError(
            f"chain weights must be one-dimensional, got shape {values.shape}")
    if hasattr(values, "tolist"):
        values = values.tolist()  # an ndarray or memoryview: Python floats
    elif not isinstance(values, (list, tuple)):
        values = list(values)
    try:
        return array("d", _packer(len(values)).pack(*values))
    except struct.error:
        pass  # a value struct does not read as a float: convert one by one
    try:
        return array("d", [float(x) for x in values])
    except TypeError as exc:
        raise ValueError(
            f"chain weights must be a one-dimensional sequence of numbers: {exc}"
        ) from None


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


def _freeze(alpha: array, beta: array) -> Tuple[array, float, Tuple[Any, Any, Any]]:
    """Validate ``alpha``/``beta``, store each ``-0.0`` in ``beta`` as
    ``0.0`` and return ``(prefix, max alpha, lists)``.

    ``lists`` holds the ``alpha``/``beta``/prefix lists when the stdlib
    loops built them, else ``None`` each.
    """
    n = len(alpha)
    lib = native.load_sweep()
    if lib is not None:
        prefix = array("d", [0.0]) * (n + 1)
        alpha_max = lib.chain_freeze(
            n, alpha.buffer_info()[0], beta.buffer_info()[0], prefix.buffer_info()[0])
        if alpha_max < 0:
            _check_weights(alpha, beta)  # raises: the pass found a bad weight
        return prefix, alpha_max, (None, None, None)
    a = alpha.tolist()
    b = [x + 0.0 for x in beta.tolist()]  # + 0.0 turns -0.0 into 0.0
    prefix_list = [0.0]
    prefix_list.extend(accumulate(a))
    # Only valid weights pass this whole-list test: min() is blind to a
    # NaN, so the sums decide there; anything else takes the exact
    # per-weight check.
    if not (min(a) > 0 and prefix_list[-1] < inf
            and (not b or (min(b) >= 0 and sum(b) < inf))):
        _check_weights(a, b)
    beta[:] = array("d", b)
    return array("d", prefix_list), max(a), (a, b, prefix_list)


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

    Either may be any one-dimensional iterable of numbers, an ndarray
    included; the chain keeps its own copy, so a caller cannot change a
    validated chain.  Anything else raises ``ValueError``.
    """

    __slots__ = ("_buffers", "_alpha", "_beta", "_prefix", "_alpha_max",
                 "_fingerprint")

    def __init__(self, alpha: Iterable[float], beta: Iterable[float]) -> None:
        a, b = _float64(alpha), _float64(beta)
        n = len(a)
        if not n:
            raise ValueError("a chain needs at least one task")
        if len(b) != n - 1:
            raise ValueError(
                f"chain with {n} tasks needs {n - 1} edge weights, got {len(b)}"
            )
        prefix, alpha_max, lists = _freeze(a, b)
        self._install(a, b, prefix, alpha_max, lists)

    def _install(
        self,
        alpha: array,
        beta: array,
        prefix: array,
        alpha_max: float,
        lists: Tuple[Optional[List[float]], ...] = (None, None, None),
    ) -> "Chain":
        """Freeze validated buffers into this chain and return it."""
        self._alpha, self._beta, self._prefix = lists
        self._buffers: Tuple[memoryview, memoryview, memoryview] = (
            memoryview(alpha).toreadonly(),
            memoryview(beta).toreadonly(),
            memoryview(prefix).toreadonly(),
        )
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

    def buffers(self) -> Tuple[memoryview, memoryview, memoryview]:
        """The frozen ``(alpha, beta, prefix)`` buffers: read-only
        memoryviews of native float64 (format ``"d"``), lengths ``n``,
        ``n - 1`` and ``n + 1``.  ``np.frombuffer`` reads them without a
        copy."""
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
        return self._buffers[2][-1]

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
        alpha, beta, prefix = (view.obj for view in self._buffers)
        beta = array("d", beta)
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
        of ``alpha`` and then ``beta``, hashed in place on a
        little-endian host.
        """
        if not self._fingerprint:
            alpha, beta, _ = self._buffers
            digest = hashlib.blake2b(digest_size=16)
            digest.update(_COUNT.pack(len(alpha)))
            for view in (alpha, beta):
                if sys.byteorder != "little":
                    view = array("d", view)
                    view.byteswap()
                digest.update(view)
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
