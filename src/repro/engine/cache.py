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
from typing import TYPE_CHECKING, Optional, Tuple

from repro.engine.plan import CacheStats, CompiledChainPlan, compile_chain
from repro.graphs.chain import Chain

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability.live import HubLike, TelemetrySubscriber

__all__ = ["CacheStats", "PlanCache"]


class PlanCache:
    """LRU of :class:`~repro.engine.plan.CompiledChainPlan` by fingerprint.

    Repeated queries over the same chain — successive ``solve`` and
    ``solve_sweep`` calls, fingerprint-grouped ``solve_many`` batches,
    the Pareto-frontier probe loop — reuse one plan, so its frozen
    arrays *and* its memo of built structures amortize across calls.
    Sharing is exact: equal fingerprints mean equal chain content, and
    a plan's answers are pure functions of that content.

    :attr:`stats` counts plan lookups (``interval_hits`` stays zero);
    each plan's own ``stats`` counts its structure-memo lookups.  A
    compile (miss) and an eviction each make one ``cache`` event
    carrying the cache's running totals, handed to the ``metrics`` given
    to :meth:`get` (anything with an ``emit``: a registry, or the
    engine's reporter) and published on its ``hub`` when live.

    Thread-safe under one reentrant ``_lock``; each
    plan guards its own memo with its own lock.
    """

    __slots__ = ("max_plans", "stats", "_plans", "_lock")

    def __init__(self, max_plans: int = 16) -> None:
        self.max_plans = max(1, int(max_plans))
        self.stats = CacheStats()
        self._plans: "OrderedDict[str, CompiledChainPlan]" = OrderedDict()
        self._lock = threading.RLock()

    def _report(
        self,
        action: str,
        metrics: Optional["TelemetrySubscriber"],
        hub: Optional["HubLike"],
    ) -> None:
        """Hand one ``cache`` event to ``metrics`` and publish it on a
        live ``hub``."""
        stats = self.stats
        event = {
            "kind": "event",
            "event": "cache",
            "action": action,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "hit_rate": stats.hit_rate,
            "plans": len(self._plans),
            "occupancy": self.occupancy,
        }
        if metrics is not None:
            metrics.emit(event)
        if hub is not None and hub.enabled:
            hub.publish(event)

    def get(
        self,
        chain: Chain,
        *,
        metrics: Optional["TelemetrySubscriber"] = None,
        hub: Optional["HubLike"] = None,
    ) -> CompiledChainPlan:
        """The cached plan for ``chain``, compiling one on first sight."""
        return self.lookup(chain, metrics=metrics, hub=hub)[0]

    def lookup(
        self,
        chain: Chain,
        *,
        metrics: Optional["TelemetrySubscriber"] = None,
        hub: Optional["HubLike"] = None,
    ) -> Tuple[CompiledChainPlan, bool]:
        """Like :meth:`get`, and also whether this lookup hit."""
        key = chain.fingerprint()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.hits += 1
                return plan, True
            plan = compile_chain(chain)
            self._plans[key] = plan
            self.stats.misses += 1
            evicted = len(self._plans) > self.max_plans
            if evicted:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
            self._report("miss", metrics, hub)
            if evicted:
                self._report("evict", metrics, hub)
            return plan, False

    def __contains__(self, chain: Chain) -> bool:
        """Whether ``chain``'s plan is cached (no LRU or stats effect)."""
        with self._lock:
            return chain.fingerprint() in self._plans

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
