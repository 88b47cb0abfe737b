"""Counters, gauges and histograms for engine-level telemetry.

Spans (:mod:`repro.observability.spans`) answer "where did this one run
spend its time"; a :class:`MetricsRegistry` answers the fleet questions
— cache hit-rate, plan reuse, batch queue depth, per-query latency
percentiles.  The engine reports each fact once, as an event dict, and
:meth:`MetricsRegistry.emit` is the one place events become
instruments: the engine folds its own events through it, and a trace
reader folds a streamed file through it to get the same numbers.
Histogram state is a pure function of the observed multiset (see
:class:`Histogram`), so any order of the same observations produces a
bit-identical summary.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: One telemetry record: a plain dict with a ``"kind"`` discriminator
#: (``"event"`` or ``"span"``; see :mod:`repro.observability.export`).
Event = Dict[str, Any]


def nearest_rank(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list; 0 when empty.

    The single percentile definition shared by :class:`Histogram` and
    the ``repro top`` dashboard, so live windowed numbers and post-hoc
    trace summaries agree exactly on the same data.
    """
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Counter:
    """A named monotone counter.

    ``inc`` locks: ``self.value += amount`` is read-modify-write, and
    the GIL does not make it atomic — two threads can interleave the
    load and the store and lose an update (``test_metrics_registry``
    in ``tests/observability/test_threads_and_faults.py`` counts every
    update from 8 threads).  ``lock`` is the lock to guard it with; a
    :class:`MetricsRegistry` passes its own, and a bare counter gets a
    fresh one.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, value: float = 0, lock: Any = None) -> None:
        self.name = name
        self.value = value
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A named last-write-wins value (queue depth, pool width, ...);
    ``lock`` as for :class:`Counter`."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, value: float = 0.0, lock: Any = None) -> None:
        self.name = name
        self.value = value
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value:g})"


#: Observations kept verbatim before a histogram spills to log buckets.
#: Every workload the repo's reports historically measured stays below
#: this, so their summaries remain exact and bit-stable.
EXACT_LIMIT = 512

#: Log-bucket growth factor: 8 buckets per power of two (~9% relative
#: bucket width, so bucketed percentiles carry <= ~4.5% relative error).
BUCKETS_PER_OCTAVE = 8
_GAMMA = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE)
_LN_GAMMA = math.log(_GAMMA)


def _bucket_index(value: float) -> int:
    """Index ``i`` with ``gamma**i <= value < gamma**(i+1)`` (value > 0).

    Computed via ``log`` then corrected with exact power comparisons, so
    the mapping is deterministic and boundary-safe despite float logs.
    """
    i = int(math.floor(math.log(value) / _LN_GAMMA))
    while _GAMMA ** i > value:
        i -= 1
    while _GAMMA ** (i + 1) <= value:
        i += 1
    return i


def _bucket_mid(index: int) -> float:
    """The representative (midpoint) value of bucket ``index``."""
    lo = _GAMMA ** index
    return (lo + lo * _GAMMA) / 2.0


class Histogram:
    """A named distribution: exact while small, log-bucketed at scale.

    Observations are kept verbatim up to :data:`EXACT_LIMIT` — exact
    (nearest-rank) percentiles, exact sums, bit-stable summaries, just
    like the original unbounded implementation.  Past the limit the
    histogram *spills*: values move into logarithmic buckets
    (:data:`BUCKETS_PER_OCTAVE` per power of two) and memory becomes
    O(buckets) no matter how many observations stream in — the property
    an always-on telemetry hub needs.

    **Determinism.**  The internal state is a pure function of the
    observed *multiset*: bucket counts add, min/max take extrema, exact
    sums use :func:`math.fsum` (order-independent correctly-rounded
    summation), and the exact→bucketed transition happens exactly when
    the total count crosses the limit.  Observing the same values in
    any order therefore yields bit-identical :meth:`summary` output
    (property-tested).

    Percentile calls memoize the sorted view and invalidate it on
    :meth:`observe`, so a p50+p99 report loop is sorted once, not once
    per percentile.

    **Thread safety.**  Observation, summary and the memoized
    percentile/CDF paths all serialize on one reentrant ``_lock``: the
    count/min/max/values update in ``observe`` and the exact→bucketed
    spill are multi-field transitions that must never be observed
    half-done.  ``lock`` must be reentrant when given (:meth:`sum`
    reads the CDF under it); a :class:`MetricsRegistry` passes its own.
    """

    __slots__ = (
        "name",
        "_values",
        "_ordered",
        "_pos",
        "_neg",
        "_zero",
        "_count",
        "_min",
        "_max",
        "_cdf",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        values: Optional[List[float]] = None,
        lock: Any = None,
    ) -> None:
        self.name = name
        #: Verbatim observations while exact; ``None`` once spilled.
        self._values: Optional[List[float]] = []
        #: Memoized ascending sort of ``_values`` (exact mode).
        self._ordered: Optional[List[float]] = None
        #: Spilled state: bucket-index -> count for positive/negative
        #: magnitudes, plus an exact-zero count.
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        #: Memoized bucketed CDF: ascending (value, count) pairs.
        self._cdf: Optional[List[Tuple[float, int]]] = None
        self._lock = lock if lock is not None else threading.RLock()
        if values:
            for value in values:
                self.observe(value)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._values is not None:
                self._values.append(value)
                self._ordered = None
                if self._count > EXACT_LIMIT:
                    self._spill()
            else:
                self._bucket_one(value)
                self._cdf = None

    def _bucket_one(self, value: float) -> None:
        # REPRO017-adjacent: one _bucket_index dispatch per observation,
        # not two — observe() runs this under the lock on the hot path.
        if value > 0.0:
            key = _bucket_index(value)
            self._pos[key] = self._pos.get(key, 0) + 1
        elif value < 0.0:
            key = _bucket_index(-value)
            self._neg[key] = self._neg.get(key, 0) + 1
        else:
            self._zero += 1

    def _spill(self) -> None:
        """Move verbatim values into buckets (count crossed the limit)."""
        values = self._values
        assert values is not None
        self._values = None
        self._ordered = None
        self._cdf = None
        for value in values:
            self._bucket_one(value)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """True while every observation is retained verbatim."""
        return self._values is not None

    @property
    def values(self) -> List[float]:
        """Verbatim observations, insertion-ordered (exact mode only).

        Raises :class:`ValueError` once the histogram has spilled to
        buckets — at that point individual observations no longer exist.
        """
        if self._values is None:
            raise ValueError(
                f"histogram {self.name!r} spilled to buckets at "
                f"{EXACT_LIMIT} observations; raw values are gone"
            )
        return self._values

    @property
    def count(self) -> int:
        return self._count

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def sum(self) -> float:
        """Exact (fsum) while exact; bucket-midpoint estimate after.

        Both forms are independent of observation order:
        :func:`math.fsum` is correctly rounded, and the bucketed form
        folds ``midpoint * count`` in bucket-index order.
        """
        with self._lock:
            if self._values is not None:
                return math.fsum(self._values)
            return math.fsum(
                value * count for value, count in self._bucket_cdf()
            )

    @property
    def mean(self) -> float:
        return self.sum / self._count if self._count else 0.0

    # ------------------------------------------------------------------
    # Percentiles
    # ------------------------------------------------------------------
    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; 0 when empty.

        Exact in exact mode.  In bucketed mode the returned value is the
        selected bucket's midpoint clamped into ``[min, max]`` — within
        half a bucket width (~4.5%) of the true order statistic.
        """
        with self._lock:
            if not self._count:
                return 0.0
            if self._values is not None:
                if self._ordered is None:
                    self._ordered = sorted(self._values)
                return nearest_rank(self._ordered, pct)
            cdf = self._bucket_cdf()
            rank = max(1, math.ceil(pct / 100.0 * self._count))
            seen = 0
            for value, count in cdf:
                seen += count
                if seen >= rank:
                    return value
            return self._max  # pragma: no cover - rank <= count always hits

    def _bucket_cdf(self) -> List[Tuple[float, int]]:
        """Ascending (representative value, count) pairs, memoized.

        Representatives are bucket midpoints clamped into the observed
        ``[min, max]`` so extremes never exceed real observations.
        """
        with self._lock:
            if self._cdf is None:
                pairs: List[Tuple[float, int]] = []
                for index in sorted(self._neg, reverse=True):
                    pairs.append((-_bucket_mid(index), self._neg[index]))
                if self._zero:
                    pairs.append((0.0, self._zero))
                for index in sorted(self._pos):
                    pairs.append((_bucket_mid(index), self._pos[index]))
                lo, hi = self._min, self._max
                self._cdf = [
                    (min(max(value, lo), hi), count) for value, count in pairs
                ]
            return self._cdf

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "bucketed"
        return f"Histogram({self.name}, n={self.count}, {mode}, mean={self.mean:g})"


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Instrument names are dotted paths by convention
    (``engine.plan.cache.hits``, ``engine.query_latency_s``); the registry
    itself imposes only uniqueness per kind.

    Get-or-create and snapshot paths hold ``_lock``, so two
    threads asking for the same name always receive the *same*
    instrument, and ``records`` never iterates a dict mid-insert.  Every
    instrument the registry mints is guarded by that same reentrant
    lock, so there is no lock order to get wrong, and :meth:`emit` folds
    a whole event under one acquisition, updating the values directly,
    however many instruments the event touches.
    """

    __slots__ = ("counters", "gauges", "histograms", "_lock", "_plan_folds")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.RLock()
        #: The instruments every ``plan`` event updates, resolved by the
        #: first one (the cache hit/miss pair is looked up per event, so
        #: each of the two appears only once something is counted in it).
        self._plan_folds: Optional[
            Tuple[Counter, Counter, Counter, Counter, Histogram]
        ] = None

    def counter(self, name: str) -> Counter:
        with self._lock:
            return self._counter(name)

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            return self._gauge(name)

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            return self._histogram(name)

    # Get-or-create with ``_lock`` already held.
    def _counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter(name, lock=self._lock)
        return inst

    def _gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge(name, lock=self._lock)
        return inst

    def _histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram(name, lock=self._lock)
        return inst

    # ------------------------------------------------------------------
    # Event folding
    # ------------------------------------------------------------------
    def emit(self, event: Mapping[str, Any]) -> None:
        """Fold one telemetry event into instruments.

        The only code that turns events into instruments (see the table
        in ``docs/observability.md``).  ``solve`` events feed the
        latency and optimality-gap histograms (a batch result carries
        its ``index``; a single ``engine.solve`` does not), ``plan``
        events the plan counters and the summed plan-cache hits and
        misses, ``cache`` events the parent cache's gauges and
        evictions, and ``batch`` events the batch totals.  Other events
        are ignored.  Being a subscriber's ``emit``, it lets a registry
        sit on a :class:`~repro.observability.live.TelemetryHub`.
        """
        kind = event.get("event")
        with self._lock:
            if kind == "solve":
                duration = event["duration_s"]
                if "index" in event:
                    self._histogram("engine.batch.query_latency_s").observe(
                        duration
                    )
                else:
                    self._counter("engine.queries").value += 1
                    self._histogram("engine.query_latency_s").observe(duration)
                if "optimality_gap" in event:
                    self._histogram("solve.optimality_gap").observe(
                        event["optimality_gap"]
                    )
            elif kind == "plan":
                folds = self._plan_folds
                if folds is None:
                    folds = self._plan_folds = (
                        self._counter("engine.plan.sweeps"),
                        self._counter("engine.plan.queries"),
                        self._counter("engine.plan.structures.built"),
                        self._counter("engine.plan.structures.reused"),
                        self._histogram("engine.plan.sweep_batch_size"),
                    )
                sweeps, queries, built, reused, batch_size = folds
                hit = event["cache"] == "hit"
                self._counter(
                    "engine.plan.cache.hits" if hit else "engine.plan.cache.misses"
                ).value += 1
                sweeps.value += 1
                queries.value += event["queries"]
                built.value += event["structures_built"]
                reused.value += event["structures_reused"]
                batch_size.observe(event["queries"])
            elif kind == "cache":
                if event["action"] == "evict":
                    self._counter("engine.plan.cache.evictions").value += 1
                self._gauge("engine.plan.cache.plans").value = event["plans"]
                self._gauge("engine.plan.cache.occupancy").value = event[
                    "occupancy"
                ]
            elif kind == "batch":
                counter = self._counter
                counter("engine.batch.batches").value += 1
                counter("engine.batch.queries").value += event["queries"]
                counter("engine.batch.failures").value += event["failures"]
                self._gauge("engine.batch.workers").value = event["workers"]
                self._gauge("engine.batch.queue_depth").value = event["queries"]
                self._histogram("engine.batch.wall_s").observe(event["wall_s"])

    def close(self) -> None:
        """Subscriber protocol: nothing to release."""

    def records(self) -> List[Dict[str, Any]]:
        """JSON-ready metric records (one per instrument), sorted by name."""
        out: List[Dict[str, Any]] = []
        with self._lock:
            for name in sorted(self.counters):
                out.append(
                    {"kind": "metric", "type": "counter", "name": name,
                     "value": self.counters[name].value}
                )
            for name in sorted(self.gauges):
                out.append(
                    {"kind": "metric", "type": "gauge", "name": name,
                     "value": self.gauges[name].value}
                )
            for name in sorted(self.histograms):
                out.append(
                    {"kind": "metric", "type": "histogram", "name": name,
                     "summary": self.histograms[name].summary()}
                )
        return out

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )
