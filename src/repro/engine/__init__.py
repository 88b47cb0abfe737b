"""The batched partitioning engine — the production front door.

Layers on top of :mod:`repro.core`:

- :mod:`repro.engine.kernels` — NumPy fast-path kernels for the chain
  pipeline (prefix weights, prime subpaths via ``searchsorted``,
  membership intervals, the non-redundant-edge reduction), bit-identical
  to the pure-Python reference;
- :mod:`repro.engine.plan` — :class:`CompiledChainPlan`, the one
  per-chain object: freeze one chain's preprocessing, keep the
  stability-interval memo of built structures, and answer single bounds
  or whole vectors of bounds in batched sweeps
  (``compile_chain``/``solve_bounds``);
- :mod:`repro.engine.cache` — :class:`PlanCache`, the engine's one
  cache: compiled plans keyed by content fingerprint;
- :mod:`repro.engine.batch` — :class:`PartitionEngine` with
  ``solve``/``solve_many``/``solve_sweep`` (batches grouped by chain,
  each group answered the same way in-process or in a process-pool
  worker, results in input order) backing the ``repro batch`` CLI
  subcommand.
"""

# The kernels (and NumPy) load first: NumPy imported from deeper in the
# batch -> cache -> plan chain starts up about 10 ms slower.
from repro.engine.kernels import HAVE_NUMPY
from repro.engine.batch import (
    OBJECTIVES,
    BatchStats,
    PartitionEngine,
    PartitionQuery,
    QueryResult,
)
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.plan import CompiledChainPlan, compile_chain

__all__ = [
    "BatchStats",
    "CacheStats",
    "CompiledChainPlan",
    "HAVE_NUMPY",
    "OBJECTIVES",
    "PartitionEngine",
    "PartitionQuery",
    "PlanCache",
    "QueryResult",
    "compile_chain",
]
