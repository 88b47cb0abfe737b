"""Task-graph substrate: weighted graphs, chains, trees, partitions.

This package provides the data structures that every algorithm in
:mod:`repro.core` and :mod:`repro.baselines` operates on:

- :class:`~repro.graphs.task_graph.TaskGraph` — a general undirected,
  vertex- and edge-weighted task graph (tasks = vertices, data
  dependencies = edges), as defined in Section 1 of the paper.
- :class:`~repro.graphs.chain.Chain` — a linear task graph
  ``v_1 - v_2 - ... - v_n`` with vertex weights ``alpha`` and edge
  weights ``beta`` (Section 2.3).
- :class:`~repro.graphs.tree.Tree` — a tree task graph (Sections 2.1,
  2.2).
- :class:`~repro.graphs.partition.Cut` /
  :class:`~repro.graphs.partition.Partition` — an edge cut ``S`` and
  the induced connected components of ``G - S``, together with the
  three objectives the paper optimizes (bottleneck, component count,
  bandwidth).
- :mod:`~repro.graphs.generators` — seeded random instance generators
  used by the Figure-2 experiments.
- :mod:`~repro.graphs.supergraph` — linear *supergraph* approximation
  of a general task graph (Section 3, distributed simulation study).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - names for type checkers only
    from repro.graphs.chain import Chain
    from repro.graphs.partition import Cut, Partition
    from repro.graphs.ring import Ring
    from repro.graphs.task_graph import Edge, TaskGraph
    from repro.graphs.tree import Tree

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.graphs.chain": ("Chain",),
    "repro.graphs.partition": ("Cut", "Partition"),
    "repro.graphs.ring": ("Ring",),
    "repro.graphs.task_graph": ("Edge", "TaskGraph"),
    "repro.graphs.tree": ("Tree",),
})

__all__ = [
    "Chain",
    "Cut",
    "Edge",
    "Partition",
    "Ring",
    "TaskGraph",
    "Tree",
]
