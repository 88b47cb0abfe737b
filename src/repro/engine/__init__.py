"""The batched partitioning engine — the production front door.

Layers on top of :mod:`repro.core`:

- :mod:`repro.engine.kernels` — the chain pipeline's fast path: one
  native ``structure_sweep`` call per query (``_sweep.c``, built by
  :mod:`repro.engine.native`), with NumPy primitives (prime subpaths via
  ``searchsorted``, membership intervals, the non-redundant-edge
  reduction) as the fallback, bit-identical to the pure-Python
  reference;
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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - names for type checkers only
    from repro.engine.batch import (
        OBJECTIVES,
        BatchStats,
        PartitionEngine,
        PartitionQuery,
        QueryResult,
    )
    from repro.engine.cache import CacheStats, PlanCache
    from repro.engine.kernels import HAVE_NUMPY
    from repro.engine.plan import CompiledChainPlan, compile_chain

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.batch": ("OBJECTIVES", "BatchStats", "PartitionEngine", "PartitionQuery",
                           "QueryResult"),
    "repro.engine.cache": ("CacheStats", "PlanCache"),
    "repro.engine.kernels": ("HAVE_NUMPY",),
    "repro.engine.plan": ("CompiledChainPlan", "compile_chain"),
})

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
