"""The declared concurrency surface: shared-state classes and entry points.

These two tables are the *declaration* half of the concurrency-safety
contract, keyed by qualified name.  :data:`SHARED_STATE` lists the
classes that are shared mutable state and names the lock attribute
guarding each; :data:`CONCURRENT_ENTRIES` lists the functions and
methods that may be called from several threads at once.  The
*enforcement* half lives in :mod:`repro.verify.concurrency` (static
rule REPRO013, which reads the entries for the file it checks) and the
8-thread race tests in
``tests/*/test_threads_and_faults.py`` (one per shared object).

The product code carries no marker and imports nothing from here: a
class or method is declared by adding its qualified name below.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

#: Shared mutable state: qualified class name -> its lock attribute.
SHARED_STATE: Dict[str, str] = {
    "repro.engine.cache.PlanCache": "_lock",
    "repro.engine.plan.CompiledChainPlan": "_lock",
    "repro.observability.live.StreamingJsonlSink": "_lock",
    "repro.observability.live.TelemetryHub": "_lock",
    "repro.observability.metrics.Counter": "_lock",
    "repro.observability.metrics.Gauge": "_lock",
    "repro.observability.metrics.Histogram": "_lock",
    "repro.observability.metrics.MetricsRegistry": "_lock",
    "repro.observability.profiler.ProfileSampler": "_lock",
}

#: Functions and methods callable from several threads at once, by
#: qualified name.
CONCURRENT_ENTRIES: FrozenSet[str] = frozenset(
    {
        "repro.engine.cache.PlanCache.__contains__",
        "repro.engine.cache.PlanCache.clear",
        "repro.engine.cache.PlanCache.get",
        "repro.engine.cache.PlanCache.lookup",
        "repro.engine.plan.CompiledChainPlan.solve_bounds",
        "repro.observability.live.StreamingJsonlSink.close",
        "repro.observability.live.StreamingJsonlSink.emit",
        "repro.observability.live.TelemetryHub.close",
        "repro.observability.live.TelemetryHub.publish",
        "repro.observability.live.TelemetryHub.subscribe",
        "repro.observability.metrics.Counter.inc",
        "repro.observability.metrics.Gauge.set",
        "repro.observability.metrics.Histogram.observe",
        "repro.observability.metrics.MetricsRegistry.counter",
        "repro.observability.metrics.MetricsRegistry.emit",
        "repro.observability.metrics.MetricsRegistry.gauge",
        "repro.observability.metrics.MetricsRegistry.histogram",
        "repro.observability.metrics.MetricsRegistry.records",
        "repro.observability.profiler.ProfileSampler.sample_once",
        "repro.observability.profiler.ProfileSampler.start",
        "repro.observability.profiler.ProfileSampler.stop",
    }
)
