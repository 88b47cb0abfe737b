"""The engine's one per-chain cache: compiled plans by chain fingerprint.

Production traffic rarely asks one isolated question about a chain: the
inverse solvers probe many bounds during a search, the Figure-2 sweeps
walk a whole grid of ``K`` values, and batch workloads repeat popular
``(chain, K)`` pairs.  :class:`PlanCache` keeps one
:class:`~repro.engine.plan.CompiledChainPlan` per chain:

- chains are identified by content fingerprint
  (:meth:`repro.graphs.chain.Chain.fingerprint`), so equal chains —
  even deserialized copies in different worker processes — share a
  plan;
- per chain, the plan converts the float64 prefix/beta arrays once and
  keeps the stability-interval memo of built structures: a structure
  built at bound ``K`` serves every ``K'`` in ``[K, min_prime_weight)``
  exactly, so sorted-``K`` sweeps and repeated bounds reuse it.

The cache is *exact*: a served result is always element-for-element
identical to a fresh pure-Python computation (property-tested).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.engine.plan import CacheStats, CompiledChainPlan, compile_chain
from repro.graphs.chain import Chain
from repro.observability.live import NULL_HUB
from repro.verify.markers import concurrent_entry, shared_state

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability import MetricsRegistry, Tracer
    from repro.observability.spans import HubLike

__all__ = ["CacheStats", "PlanCache"]


@shared_state(lock="_lock")
class PlanCache:
    """LRU of :class:`~repro.engine.plan.CompiledChainPlan` by fingerprint.

    Repeated queries over the same chain — successive ``solve`` and
    ``solve_sweep`` calls, fingerprint-grouped ``solve_many`` batches,
    the Pareto-frontier probe loop — reuse one plan, so its frozen
    arrays *and* its memo of built structures amortize across calls.
    Sharing is exact: equal fingerprints mean equal chain content, and
    a plan's answers are pure functions of that content.

    :attr:`stats` counts plan lookups (``interval_hits`` stays zero);
    each plan's own ``stats`` counts its structure-memo lookups.  When
    :meth:`get` is given a live ``hub``, plan compiles (misses) and
    evictions publish ``cache`` events on it — the feed the
    ``repro top`` cache gauge watches.

    Thread-safe under one reentrant ``_lock`` (``@shared_state``); each
    plan guards its own memo with its own lock.
    """

    __slots__ = ("max_plans", "stats", "_plans", "_lock")

    def __init__(self, max_plans: int = 16) -> None:
        self.max_plans = max(1, int(max_plans))
        self.stats = CacheStats()
        self._plans: "OrderedDict[str, CompiledChainPlan]" = OrderedDict()
        self._lock = threading.RLock()

    def _publish_cache_event(self, action: str, hub: "HubLike") -> None:
        """Publish one ``cache`` event (callers guard on ``hub.enabled``)."""
        if hub.enabled:
            stats = self.stats
            hub.publish(
                {
                    "kind": "event",
                    "event": "cache",
                    "action": action,
                    "hits": stats.hits,
                    "interval_hits": stats.interval_hits,
                    "misses": stats.misses,
                    "evictions": stats.evictions,
                    "hit_rate": stats.hit_rate,
                }
            )

    @concurrent_entry
    def get(
        self,
        chain: Chain,
        *,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        hub: Optional["HubLike"] = None,
    ) -> CompiledChainPlan:
        """The cached plan for ``chain``, compiling one on first sight.

        A cache hit rebinds the plan's ``tracer``/``metrics``/``hub`` to
        the caller's so telemetry always lands in the live registry.
        """
        if hub is None:
            hub = NULL_HUB
        key = chain.fingerprint()
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = compile_chain(
                    chain, tracer=tracer, metrics=metrics, hub=hub
                )
                self._plans[key] = plan
                self.stats.misses += 1
                evicted = len(self._plans) > self.max_plans
                if evicted:
                    self._plans.popitem(last=False)
                    self.stats.evictions += 1
                if hub.enabled:
                    self._publish_cache_event("miss", hub)
                    if evicted:
                        self._publish_cache_event("evict", hub)
            else:
                self._plans.move_to_end(key)
                plan.tracer = tracer
                plan.metrics = metrics
                plan.hub = hub
                self.stats.hits += 1
            return plan

    @concurrent_entry
    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def occupancy(self) -> float:
        """Fill fraction ``len / max_plans`` in ``[0, 1]`` — the
        plan-cache gauge ``repro top`` renders."""
        return len(self._plans) / self.max_plans
