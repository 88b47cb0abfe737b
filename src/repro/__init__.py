"""repro — reproduction of Ray & Jiang (ICDCS 1994).

*Improved Algorithms for Partitioning Tree and Linear Task Graphs on
Shared Memory Architecture.*

The package implements the paper's three partitioning algorithms
(:mod:`repro.core`), every baseline it compares against
(:mod:`repro.baselines`), the task-graph substrate
(:mod:`repro.graphs`), a shared-memory machine simulator
(:mod:`repro.machine`), the two application studies of Section 3
(:mod:`repro.realtime`, :mod:`repro.desim`) and the experiment drivers
that regenerate the paper's Figure 2 and complexity claims
(:mod:`repro.analysis`).

Quickstart::

    from repro import Chain, bandwidth_min

    chain = Chain(alpha=[4, 3, 5, 2, 6], beta=[7, 1, 9, 2])
    result = bandwidth_min(chain, bound=9.0)
    print(result.cut_indices, result.weight)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - names for type checkers only
    from repro.core import (
        InfeasibleBoundError,
        bandwidth_min,
        bottleneck_min,
        partition_chain,
        partition_tree,
        processor_min,
    )
    from repro.engine import PartitionEngine, PartitionQuery
    from repro.graphs import Chain, Cut, Partition, TaskGraph, Tree

# Each name loads its subpackage on first access: ``import repro`` alone
# imports no subpackage (and no NumPy).
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core": ("InfeasibleBoundError", "bandwidth_min", "bottleneck_min",
                   "partition_chain", "partition_tree", "processor_min"),
    "repro.engine": ("PartitionEngine", "PartitionQuery"),
    "repro.graphs": ("Chain", "Cut", "Partition", "TaskGraph", "Tree"),
})

__version__ = "1.0.0"

__all__ = [
    "Chain",
    "Cut",
    "InfeasibleBoundError",
    "Partition",
    "PartitionEngine",
    "PartitionQuery",
    "TaskGraph",
    "Tree",
    "bandwidth_min",
    "bottleneck_min",
    "partition_chain",
    "partition_tree",
    "processor_min",
    "__version__",
]
