"""The batched, cache-aware, optionally parallel partitioning front door.

:class:`PartitionEngine` is the API production callers are expected to
use: single queries go through :meth:`PartitionEngine.solve` (a compiled
plan from the engine's one cache), and independent query streams go
through :meth:`PartitionEngine.solve_many`, which fans them across a
``concurrent.futures`` process pool in chunks while guaranteeing results
come back **in input order** regardless of pool scheduling.

Queries are plain data (:class:`PartitionQuery`) so they pickle cheaply
to workers and serialize losslessly to JSONL — the wire format of the
``repro batch`` CLI subcommand.  Failures are *per query*: an infeasible
bound yields a :class:`QueryResult` with ``error`` set instead of
poisoning the whole batch.

The engine reports each telemetry fact once, as one event dict: a
``solve`` event per query, a ``plan`` event per plan call, ``cache``
events for plan compiles and evictions, and a ``batch`` event per
batch.  Its one reporter folds every event into the engine's
:class:`~repro.observability.metrics.MetricsRegistry` (through
:meth:`~repro.observability.metrics.MetricsRegistry.emit`) and, with a
live hub, publishes the same dict.  Telemetry is *not* dropped at the
process boundary: every result comes back with a small ``telemetry``
dict (wall-clock, cache-stats delta, the worker's ``plan`` event and —
when the engine's tracer is enabled — the worker's serialized span
records); the parent reports the shipped events as if they were its
own, and :meth:`PartitionEngine.solve_many` also folds the results, in
query order, into a :class:`BatchStats` left on
``engine.last_batch_stats``.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bandwidth import ChainCutResult, bandwidth_min
from repro.core.feasibility import PartitioningError
from repro.core.pipeline import partition_chain
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.kernels import HAVE_NUMPY
from repro.engine.plan import PlanStats
from repro.graphs.chain import Chain
from repro.graphs.metrics import chain_bandwidth_lower_bound, optimality_gap
from repro.instrumentation.counters import OpCounter
from repro.observability.live import NULL_HUB, Event, HubLike
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.spans import NULL_TRACER, Tracer

#: Where a plan call sends its ``plan`` event: the engine's reporter, or
#: a list a pool worker ships back with the result.
Report = Callable[[Event], None]

#: Objectives accepted by the engine — the same vocabulary as
#: :func:`repro.core.pipeline.partition_chain`.
OBJECTIVES = (
    "bandwidth",
    "bottleneck",
    "processors",
    "bottleneck+processors",
    "bottleneck+bandwidth",
)


@dataclass(frozen=True)
class PartitionQuery:  # repro-lint: disable=REPRO002 (field defaults block slots on py39)
    """One independent partitioning question: a chain, a bound, an objective.

    ``tag`` is an opaque caller label carried through to the result
    (request ids, sweep coordinates, ...).
    """

    alpha: Tuple[float, ...]
    beta: Tuple[float, ...]
    bound: float
    objective: str = "bandwidth"
    tag: Optional[str] = None

    @classmethod
    def from_chain(
        cls,
        chain: Chain,
        bound: float,
        objective: str = "bandwidth",
        tag: Optional[str] = None,
    ) -> "PartitionQuery":
        return cls(tuple(chain.alpha), tuple(chain.beta), bound, objective, tag)

    def chain(self) -> Chain:
        return Chain(list(self.alpha), list(self.beta))

    @classmethod
    def from_json(cls, line: str) -> "PartitionQuery":
        """Parse one JSONL record, rejecting non-finite numbers at the wire.

        ``NaN``/``Infinity`` tokens and overflowing literals such as
        ``1e999`` both parse to non-finite floats; neither names a valid
        weight or bound, so either raises ``ValueError`` here.
        """
        record = json.loads(line)
        alpha = tuple(float(a) for a in record["alpha"])
        beta = tuple(float(b) for b in record.get("beta", []))
        bound = float(record["bound"])
        values = (*alpha, *beta, bound)
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(
                f"non-finite number {bad} is not a valid weight or bound"
            )
        return cls(
            alpha,
            beta,
            bound,
            record.get("objective", "bandwidth"),
            record.get("tag"),
        )


@dataclass
class QueryResult:  # repro-lint: disable=REPRO002 (field defaults block slots on py39)
    """The answer to one query, positionally matched to its input.

    ``index`` is the query's position in the submitted batch —
    ``solve_many`` guarantees ``results[i].index == i``.
    """

    index: int
    tag: Optional[str]
    objective: str
    bound: float
    cut_indices: List[int] = field(default_factory=list)
    weight: float = 0.0
    num_components: int = 1
    error: Optional[str] = None
    #: Per-query measurement shipped back from the solving process:
    #: ``duration_s``, a ``cache`` hit/miss delta, the query's ``plan``
    #: event when it made a plan call, and (traced runs only)
    #: ``spans``.  Excluded from :meth:`to_json` — the JSONL wire
    #: format carries answers; telemetry is reported by the engine and
    #: exported through trace files instead.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> str:
        record: Dict = {
            "index": self.index,
            "tag": self.tag,
            "objective": self.objective,
            "bound": self.bound,
        }
        if self.ok:
            record.update(
                cut=self.cut_indices,
                weight=self.weight,
                components=self.num_components,
            )
        else:
            record["error"] = self.error
        return json.dumps(record)


class BatchStats:
    """Deterministically merged telemetry from one ``solve_many`` call.

    Workers serialize their measurements with each result; the engine
    folds them back in query order, so two runs of the same batch yield
    identical aggregates (latency histograms aside, which depend on
    wall-clock but merge in the same order).
    """

    __slots__ = (
        "queries",
        "failures",
        "cache",
        "counter",
        "latency",
        "gap",
        "trace_records",
        "wall_s",
        "workers",
    )

    def __init__(self, workers: int = 0) -> None:
        self.queries = 0
        self.failures = 0
        #: Summed per-query cache deltas (worker-side caches included).
        self.cache = CacheStats()
        #: Op-counts summed out of every worker span (search steps, ...).
        self.counter = OpCounter()
        #: Per-query wall-clock, measured in the solving process.
        self.latency = Histogram("batch.query_latency_s")
        #: Per-query optimality gap vs the combinatorial lower bound —
        #: populated only under ``REPRO_VERIFY`` (see
        #: :func:`repro.graphs.metrics.chain_bandwidth_lower_bound`).
        self.gap = Histogram("solve.optimality_gap")
        #: Worker span records in query order, each tagged ``query_index``.
        self.trace_records: List[Dict[str, Any]] = []
        self.wall_s = 0.0
        self.workers = workers

    def absorb(self, result: "QueryResult") -> None:
        """Fold one result's telemetry in (call in index order)."""
        self.queries += 1
        if not result.ok:
            self.failures += 1
        telemetry = result.telemetry
        if not telemetry:
            return
        self.latency.observe(telemetry.get("duration_s", 0.0))
        if "optimality_gap" in telemetry:
            self.gap.observe(telemetry["optimality_gap"])
        delta = telemetry.get("cache")
        if delta:
            self.cache.hits += delta.get("hits", 0)
            self.cache.interval_hits += delta.get("interval_hits", 0)
            self.cache.misses += delta.get("misses", 0)
            self.cache.evictions += delta.get("evictions", 0)
        for record in telemetry.get("spans", ()):
            tagged = dict(record)
            tagged["query_index"] = result.index
            self.trace_records.append(tagged)
            for name, value in record.get("counts", {}).items():
                self.counter.add(name, value)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "failures": self.failures,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "cache": {
                "hits": self.cache.hits,
                "interval_hits": self.cache.interval_hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
            },
            "counts": self.counter.as_dict(),
            "latency": self.latency.summary(),
            "optimality_gap": (
                self.gap.summary() if self.gap.count else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"BatchStats(queries={self.queries}, failures={self.failures}, "
            f"cache_hit_rate={self.cache.hit_rate:.2f})"
        )


class PartitionEngine:
    """Cache-aware partitioning engine with a batched front door.

    Bandwidth queries on the NumPy backend are answered by compiled
    plans held in one :class:`~repro.engine.cache.PlanCache`, reachable
    as both :attr:`cache` and :attr:`plans`.  The ``"python"`` backend
    calls the pure-Python reference directly, uncached.

    Parameters
    ----------
    backend:
        ``"numpy"`` (default when NumPy is importable) or ``"python"``.
    max_workers:
        Default process-pool width for :meth:`solve_many`; ``0``/``1``
        solves serially in-process (still cached).  ``None`` lets the
        pool pick ``os.cpu_count()``.
    tracer:
        A :class:`repro.observability.Tracer`.  Disabled by default —
        single-query solves then take exactly the untraced fast path.
        When enabled, ``solve`` records nested spans and per-query
        latency metrics, and ``solve_many`` workers trace each query
        and ship the span records back.
    metrics:
        A :class:`repro.observability.MetricsRegistry` to share, or
        ``None`` to own a private one.  Every event the engine reports
        is folded into it as it happens.
    hub:
        A :class:`repro.observability.TelemetryHub` for live telemetry,
        or ``None`` for the zero-overhead :data:`NULL_HUB`.  With a
        live hub every reported event is also published: a ``solve``
        event *as each query completes* (batch paths stream results
        incrementally, not at batch end), its ``plan`` and ``cache``
        events, and a closing ``batch`` event — the feed behind
        ``repro batch --stream`` and ``repro top``.  Without a hub or
        tracer, a single :meth:`solve` reports only its ``plan`` event,
        and only to the registry.
    """

    __slots__ = (
        "backend",
        "cache",
        "max_workers",
        "tracer",
        "metrics",
        "hub",
        "last_batch_stats",
    )

    def __init__(
        self,
        backend: Optional[str] = None,
        max_workers: Optional[int] = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        hub: Optional[HubLike] = None,
    ) -> None:
        if backend is None:
            backend = "numpy" if HAVE_NUMPY else "python"
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.hub = hub if hub is not None else NULL_HUB
        self.cache = PlanCache()
        self.max_workers = max_workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.last_batch_stats: Optional[BatchStats] = None

    @property
    def plans(self) -> PlanCache:
        """The engine's one plan cache (the same object as :attr:`cache`)."""
        return self.cache

    def _report(self, event: Event) -> None:
        """Report one fact: fold it into :attr:`metrics` and publish it on
        a live hub."""
        self.metrics.emit(event)
        if self.hub.enabled:
            self.hub.publish(event)

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def solve(
        self,
        chain: Chain,
        bound: float,
        objective: str = "bandwidth",
        *,
        search: str = "binary",
    ) -> ChainCutResult:
        """Solve one query through the fast path.

        ``"bandwidth"`` (Algorithm 4.1) with ``search="binary"`` on the
        NumPy backend is a one-bound ``solve_bounds`` on the chain's
        cached plan; the ``"python"`` backend and the other ``search``
        strategies call :func:`repro.core.bandwidth.bandwidth_min`
        directly.  The other objectives delegate to
        :func:`repro.core.pipeline.partition_chain` (tree algorithms,
        uncached).
        """
        if not self.tracer.enabled and not self.hub.enabled:
            return self._solve(chain, bound, objective, search, None, self._report)
        t0 = time.perf_counter()
        with self.tracer.span(
            "engine_solve", objective=objective, n=chain.num_tasks, bound=bound
        ):
            result = self._solve(
                chain, bound, objective, search,
                self.tracer if self.tracer.enabled else None, self._report,
            )
        event: Event = {
            "kind": "event",
            "event": "solve",
            "objective": objective,
            "n": chain.num_tasks,
            "bound": bound,
            "weight": result.weight,
            "ok": True,
            "duration_s": time.perf_counter() - t0,
        }
        if "REPRO_VERIFY" in os.environ and objective == "bandwidth":
            # Verification runs already pay for a pure-Python re-solve;
            # the combinatorial lower bound is noise next to that, and
            # turns every verified solve into a quality sample.
            event["optimality_gap"] = optimality_gap(
                result.weight, chain_bandwidth_lower_bound(chain, bound)
            )
        self._report(event)
        return result

    def _solve(
        self,
        chain: Chain,
        bound: float,
        objective: str,
        search: str,
        tracer: Optional[Tracer],
        report: Report,
    ) -> ChainCutResult:
        """One query, spans recorded on ``tracer`` when given and the
        plan call's event sent to ``report``."""
        if objective != "bandwidth":
            if objective not in OBJECTIVES:
                raise ValueError(
                    f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
                )
            return partition_chain(chain, bound, objective)
        if self.backend != "numpy" or search != "binary":
            return bandwidth_min(chain, bound, search=search, tracer=tracer)
        weights, cuts = self._plan_solve(chain, [bound], True, tracer, report)
        return ChainCutResult(chain, cuts[0], float(weights[0]))

    def _plan_solve(
        self,
        chain: Chain,
        bounds: Sequence[float],
        return_cuts: bool,
        tracer: Optional[Tracer],
        report: Report,
    ) -> Any:
        """One plan call: the chain's plan from :attr:`cache`, one
        ``solve_bounds``, and one ``plan`` event sent to ``report``.

        The event is the call's exact ``stats`` delta (a per-call
        :class:`~repro.engine.plan.PlanStats` tally) plus whether the
        plan-cache lookup hit.  With a ``tracer``, a compiling lookup
        runs in a ``plan_compile`` span and the sweep in a
        ``plan_solve_bounds`` span carrying the same delta; its
        ``outcome`` is ``miss`` if the call built a structure, else
        ``interval_hit`` if any bound was served off its build bound,
        else ``hit``.
        """
        cache, metrics, hub = self.cache, self.metrics, self.hub
        if tracer is not None and chain not in cache:
            with tracer.span("plan_compile", n=chain.num_tasks):
                plan, hit = cache.lookup(chain, metrics=metrics, hub=hub)
        else:
            plan, hit = cache.lookup(chain, metrics=metrics, hub=hub)
        call = PlanStats()
        if tracer is None:
            out = plan.solve_bounds(bounds, return_cuts=return_cuts, tally=call)
        else:
            with tracer.span("plan_solve_bounds", n=chain.num_tasks) as span:
                out = plan.solve_bounds(
                    bounds, return_cuts=return_cuts, tally=call
                )
        built = call.misses
        event: Event = {
            "kind": "event",
            "event": "plan",
            "n": chain.num_tasks,
            "queries": call.queries,
            "cache": "hit" if hit else "miss",
            "structures_built": built,
            "structures_reused": call.reused,
            "outcome": (
                "miss" if built
                else ("interval_hit" if call.interval_hits else "hit")
            ),
        }
        if tracer is not None:
            for key in ("queries", "structures_built", "structures_reused",
                        "outcome"):
                span.set(key, event[key])
            span.add("cache_hits", call.hits)
            span.add("cache_interval_hits", call.interval_hits)
            span.add("cache_misses", built)
        report(event)
        return out

    # ------------------------------------------------------------------
    # Multi-query sweeps (compiled plans)
    # ------------------------------------------------------------------
    def solve_sweep(
        self,
        chain: Chain,
        bounds: Sequence[float],
        *,
        return_cuts: bool = False,
    ) -> Any:
        """Optimal bandwidth for every bound in ``bounds``, one batched pass.

        Routes through a :class:`~repro.engine.plan.CompiledChainPlan`
        cached by chain fingerprint in :attr:`cache`, so repeated sweeps
        and solves over the same chain share frozen arrays and built
        structures.
        Returns the per-bound weights (a float64 array on the NumPy
        backend, a list on the Python fallback), or ``(weights, cuts)``
        with ``return_cuts=True``.  Answers are bit-identical to
        per-call :meth:`solve`; under ``REPRO_VERIFY=1`` every element
        is certified against the pure-Python solver.

        On ``backend="python"`` (or when NumPy is missing) the sweep
        degrades to per-call reference solves — same answers, no
        compiled fast path.
        """
        if self.backend != "numpy" or not HAVE_NUMPY:
            results = [self.solve(chain, float(b)) for b in bounds]
            weights = [r.weight for r in results]
            if return_cuts:
                return weights, [list(r.cut_indices) for r in results]
            return weights
        tracer = self.tracer if self.tracer.enabled else None
        return self._plan_solve(chain, bounds, return_cuts, tracer, self._report)

    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def snapshot_metrics(self) -> MetricsRegistry:
        """The engine's registry, ready to export.

        Every instrument is folded from a reported event as it happens,
        so the registry is always current and holds exactly what a
        stream of the same run folds to.
        """
        return self.metrics

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def solve_many(
        self,
        queries: Sequence[PartitionQuery],
        *,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
    ) -> List[QueryResult]:
        """Solve independent queries, returning results in input order.

        Queries are grouped by chain content (the fingerprint
        equivalence) before dispatch.  Serially, bandwidth groups with
        two or more feasible bounds route through the compiled-plan
        cache (:meth:`solve_sweep`) — one batched pass per group instead
        of one call per query.  With a process pool, grouping keeps
        same-chain queries in the same ``executor.map`` chunk so workers
        stop re-deriving structures their neighbors already built;
        results are re-sorted to input order afterwards.
        """
        if max_workers is None:
            max_workers = self.max_workers
        queries = list(queries)
        trace = self.tracer.enabled
        payloads = [
            (i, q.alpha, q.beta, q.bound, q.objective, q.tag, self.backend,
             trace)
            for i, q in enumerate(queries)
        ]
        t0 = time.perf_counter()
        if max_workers in (0, 1) or len(queries) <= 1:
            workers = 0
            results = self._solve_serial(payloads)
        else:
            if max_workers is not None and max_workers < 0:
                raise ValueError("max_workers must be >= 0")
            workers = max_workers or os.cpu_count() or 1
            # Fingerprint grouping: same-chain (and near-same-bound)
            # queries land in the same chunk, hence the same worker's
            # plan cache.
            grouped = sorted(payloads, key=lambda p: (p[1], p[2], p[3]))
            if chunksize is None:
                chunksize = max(1, len(payloads) // (4 * workers))
            # Consume the pool lazily: each result streams to the live
            # hub the moment its chunk lands, not at batch end.  The
            # deterministic aggregate still folds in query-index order
            # below — live events are telemetry, not a contract.
            results = []
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                for result in pool.map(
                    _solve_payload, grouped, chunksize=chunksize
                ):
                    self._publish_result(result)
                    results.append(result)
            results.sort(key=lambda r: r.index)
        self._aggregate_batch(results, workers, time.perf_counter() - t0)
        return results

    def _solve_serial(self, payloads: List[tuple]) -> List[QueryResult]:
        """The serial batch path: plan-route bandwidth groups, per-call
        everything else.

        Bandwidth queries are grouped by chain content; groups with at
        least two feasible finite bounds go through :meth:`solve_sweep`
        (identical answers, shared structural work).  Infeasible or
        non-finite bounds keep per-call error semantics, and any
        group-level failure falls back to per-call solves so errors stay
        per query.  Tracing disables plan routing — per-query spans are
        the contract there.
        """
        if self.backend != "numpy" or not HAVE_NUMPY or self.tracer.enabled:
            answers = []
            for p in payloads:
                answer = _solve_payload(p, self)
                self._publish_result(answer)
                answers.append(answer)
            return answers
        groups: Dict[Tuple[tuple, tuple], List[tuple]] = {}
        for p in payloads:
            if p[4] == "bandwidth":
                groups.setdefault((p[1], p[2]), []).append(p)
        results: List[Optional[QueryResult]] = [None] * len(payloads)
        for (alpha, beta), members in groups.items():
            alpha_max = max(alpha) if alpha else 0.0
            eligible = [
                p
                for p in members
                if math.isfinite(p[3]) and 0.0 < p[3] and alpha_max <= p[3]
            ]
            if len(eligible) < 2:
                continue
            chain = Chain(list(alpha), list(beta))
            t0 = time.perf_counter()
            try:
                weights, cuts = self.solve_sweep(
                    chain, [p[3] for p in eligible], return_cuts=True
                )
            except (PartitioningError, ValueError):
                # e.g. a verification failure: re-run per call so the
                # error lands on the offending query only.
                for p in eligible:
                    results[p[0]] = _solve_payload(p, self)
                    self._publish_result(results[p[0]])
                continue
            share = (time.perf_counter() - t0) / len(eligible)
            verify = "REPRO_VERIFY" in os.environ
            for p, weight, cut in zip(eligible, weights, cuts):
                answer = QueryResult(
                    p[0], p[5], p[4], p[3], list(cut), float(weight),
                    len(cut) + 1,
                )
                answer.telemetry = {
                    "duration_s": share,
                    "plan_group": len(eligible),
                }
                if verify:
                    answer.telemetry["optimality_gap"] = optimality_gap(
                        float(weight),
                        chain_bandwidth_lower_bound(chain, p[3]),
                    )
                results[p[0]] = answer
                self._publish_result(answer)
        out: List[QueryResult] = []
        for p, result in zip(payloads, results):
            if result is None:
                result = _solve_payload(p, self)
                self._publish_result(result)
            out.append(result)
        return out

    def _publish_result(self, result: QueryResult) -> None:
        """Report one finished query: the ``plan`` event it shipped,
        then its ``solve`` event."""
        telemetry = result.telemetry or {}
        plan = telemetry.get("plan")
        if plan is not None:
            self._report(plan)
        event: Event = {
            "kind": "event",
            "event": "solve",
            "index": result.index,
            "tag": result.tag,
            "objective": result.objective,
            "bound": result.bound,
            "ok": result.ok,
            "weight": result.weight,
            "error": result.error,
            "duration_s": telemetry.get("duration_s", 0.0),
        }
        if "optimality_gap" in telemetry:
            event["optimality_gap"] = telemetry["optimality_gap"]
        self._report(event)

    def _aggregate_batch(
        self, results: List[QueryResult], workers: int, wall_s: float
    ) -> None:
        """Fold the results into ``last_batch_stats`` and report the
        closing ``batch`` event.  Results are folded in query order, so
        the aggregate is deterministic."""
        batch = BatchStats(workers=workers)
        batch.wall_s = wall_s
        for result in results:
            batch.absorb(result)
        self.last_batch_stats = batch
        self._report(
            {
                "kind": "event",
                "event": "batch",
                "queries": batch.queries,
                "failures": batch.failures,
                "workers": workers,
                "wall_s": wall_s,
                "cache_hit_rate": batch.cache.hit_rate,
                "plan_occupancy": self.cache.occupancy,
                "latency": batch.latency.summary(),
            }
        )

    def solve_jsonl(
        self,
        lines: Iterable[str],
        *,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
    ) -> List[QueryResult]:
        """Parse JSONL query records and solve them as one batch.

        Raises :class:`ValueError` naming the offending line on a
        malformed record; solver-level failures (e.g. infeasible
        bounds) are still captured per-result, not raised.
        """
        queries = []
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                queries.append(PartitionQuery.from_json(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"invalid query record on line {lineno}: {exc!s}"
                ) from exc
        return self.solve_many(
            queries, max_workers=max_workers, chunksize=chunksize
        )


# Per-process engine for pool workers: built on first use so the cache
# persists across the chunks a worker processes.
_WORKER_ENGINE: Optional[PartitionEngine] = None


def _worker_engine(backend: str) -> PartitionEngine:
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None or _WORKER_ENGINE.backend != backend:
        # Intentional per-process cache: each worker owns its engine so
        # compiled plans persist across the chunks it processes, and
        # nothing here must ever flow back to the parent.
        _WORKER_ENGINE = PartitionEngine(backend=backend, max_workers=0)  # repro-lint: disable=REPRO006 (per-process cache)
    return _WORKER_ENGINE


def _solve_payload(
    payload: tuple, engine: Optional[PartitionEngine] = None
) -> QueryResult:
    """Solve one pickled query; never raises (errors land in the result).

    Always measures wall-clock and the cache-stats delta (a handful of
    int reads — noise next to pickling) and keeps the query's ``plan``
    event in ``telemetry["plan"]`` instead of reporting it, so the
    parent engine reports it with the result, in or out of process.
    When the batch was submitted with tracing on, also runs the query
    under a fresh per-query tracer and serializes its spans into
    ``telemetry["spans"]``, which is how worker-process spans cross
    back to the parent engine.
    """
    index, alpha, beta, bound, objective, tag, backend, trace = payload
    if engine is None:
        engine = _worker_engine(backend)
    stats = engine.cache.stats
    before = (stats.hits, stats.interval_hits, stats.misses, stats.evictions)
    tracer = Tracer() if trace else None
    shipped: List[Event] = []
    t0 = time.perf_counter()
    gap: Optional[float] = None
    try:
        chain = Chain(list(alpha), list(beta))
        result = engine._solve(
            chain, bound, objective, "binary", tracer, shipped.append
        )
        answer = QueryResult(
            index,
            tag,
            objective,
            bound,
            list(result.cut_indices),
            result.weight,
            result.num_components,
        )
        if "REPRO_VERIFY" in os.environ and objective == "bandwidth":
            gap = optimality_gap(
                result.weight, chain_bandwidth_lower_bound(chain, bound)
            )
    except (PartitioningError, ValueError) as exc:  # repro-lint: disable=REPRO024 error is captured into the QueryResult payload and published downstream
        answer = QueryResult(index, tag, objective, bound, error=str(exc))
    duration = time.perf_counter() - t0
    stats = engine.cache.stats  # clear() swaps the object; re-read
    telemetry: Dict[str, Any] = {
        "duration_s": duration,
        "cache": {
            "hits": stats.hits - before[0],
            "interval_hits": stats.interval_hits - before[1],
            "misses": stats.misses - before[2],
            "evictions": stats.evictions - before[3],
        },
    }
    if shipped:
        telemetry["plan"] = shipped[0]
    if gap is not None:
        telemetry["optimality_gap"] = gap
    if tracer is not None:
        telemetry["spans"] = tracer.records()
    answer.telemetry = telemetry
    return answer
