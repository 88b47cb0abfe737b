"""The paper's algorithms: Sections 2.1, 2.2 and 2.3 / Appendix A.

Public entry points:

- :func:`~repro.core.bottleneck.bottleneck_min` /
  :func:`~repro.core.bottleneck.bottleneck_min_naive` — Algorithm 2.1.
- :func:`~repro.core.processor_min.processor_min` — Algorithm 2.2.
- :func:`~repro.core.bandwidth.bandwidth_min` — Algorithm 4.1, the
  ``O(n + p log q)`` bandwidth minimizer for chains.
- :func:`~repro.core.recurrence.bandwidth_min_naive` — the naive
  ``O(sum |P_i|)`` recurrence from Section 2.3.
- :func:`~repro.core.pipeline.partition_tree` /
  :func:`~repro.core.pipeline.partition_chain` — the combined pipeline.
"""

from repro.core.bandwidth import ChainCutResult, bandwidth_min, bandwidth_stats
from repro.core.bicriteria import (
    LexicographicResult,
    lexicographic_chain_partition,
)
from repro.core.bottleneck import (
    TreeCutResult,
    bottleneck_min,
    bottleneck_min_naive,
)
from repro.core.inverse import (
    ChainBudgetPlan,
    chain_pareto_frontier,
    min_bound_for_tree,
    partition_chain_for_processors,
    tree_pareto_frontier,
)
from repro.core.feasibility import (
    InfeasibleBoundError,
    OptimumOverflowError,
    PartitioningError,
    validate_bound,
)
from repro.core.pipeline import TreePartitionPlan, partition_chain, partition_tree
from repro.core.prime_subpaths import (
    PrimeStructure,
    PrimeSubpath,
    ReducedEdge,
    compute_prime_structure,
    find_prime_subpaths,
    reduce_edges,
)
from repro.core.processor_min import min_processors, processor_min
from repro.core.recurrence import bandwidth_min_naive
from repro.core.ring import RingCutResult, ring_bandwidth_min
from repro.core.temp_s import SolutionNode, TempSQueue

__all__ = [
    "ChainBudgetPlan",
    "ChainCutResult",
    "chain_pareto_frontier",
    "compute_prime_structure",
    "LexicographicResult",
    "lexicographic_chain_partition",
    "RingCutResult",
    "min_bound_for_tree",
    "partition_chain_for_processors",
    "ring_bandwidth_min",
    "tree_pareto_frontier",
    "InfeasibleBoundError",
    "OptimumOverflowError",
    "PartitioningError",
    "PrimeStructure",
    "PrimeSubpath",
    "ReducedEdge",
    "SolutionNode",
    "TempSQueue",
    "TreeCutResult",
    "TreePartitionPlan",
    "bandwidth_min",
    "bandwidth_min_naive",
    "bandwidth_stats",
    "bottleneck_min",
    "bottleneck_min_naive",
    "find_prime_subpaths",
    "min_processors",
    "partition_chain",
    "partition_tree",
    "processor_min",
    "reduce_edges",
    "validate_bound",
]
