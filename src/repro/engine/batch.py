"""The batched, cache-aware, optionally parallel partitioning front door.

:class:`PartitionEngine` is the API production callers are expected to
use: single queries go through :meth:`PartitionEngine.solve` (a compiled
plan from the engine's one cache), and independent query streams go
through :meth:`PartitionEngine.solve_many`.  A batch is grouped by chain
once, at one identity lookup per query and one content hash per
distinct ``(alpha, beta)`` tuple pair, and each chain group is answered
by one function,
:meth:`PartitionEngine._solve_group` — in this process, or as one task
of a ``concurrent.futures`` process pool — so serial and pooled batches
do the same work.  Results come back **in input order** either way.

Queries are plain data (:class:`PartitionQuery`) and a pool task is a
chain's weights plus its query rows, so tasks pickle cheaply and queries
serialize losslessly to JSONL — the wire format of the ``repro batch``
CLI subcommand.  Failures are *per query*: an infeasible bound yields a
:class:`QueryResult` with ``error`` set instead of poisoning the whole
batch.

The engine reports each telemetry fact once, as one event dict: a
``solve`` event per query, a ``plan`` event per plan call, ``cache``
events for plan compiles and evictions, and a ``batch`` event per
batch.  Its one reporter, :meth:`PartitionEngine.emit`, folds every
event into the engine's
:class:`~repro.observability.metrics.MetricsRegistry` (through
:meth:`~repro.observability.metrics.MetricsRegistry.emit`) and, with a
live hub, publishes the same dict.  While a chain group is solved its
events are held back and handed to the batch with the group's results,
in or out of process; the batch then reports them as its own and folds
them into the :class:`BatchStats` left on ``engine.last_batch_stats``.
A traced batch takes the same route: each group records its spans on a
tracer of its own, and their ``span`` records travel back and are
reported with the group's events.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.bandwidth import ChainCutResult
from repro.core.bottleneck import bottleneck_min
from repro.core.feasibility import PartitioningError, finite_optimum
from repro.core.pipeline import partition_chain
from repro.engine.cache import PlanCache
from repro.engine.kernels import (
    KernelUnavailableError,
    structure_sweep,
    validate_bound_array,
)
from repro.engine.plan import PlanStats
from repro.graphs.chain import Chain
from repro.observability.metrics import Event, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.observability.live import TelemetryHub
    from repro.observability.spans import Tracer

#: One query of a chain group: ``(index, bound, objective, tag)``.
Member = Tuple[int, float, str, Optional[str]]

#: One chain group as a pool task — plain data: the chain's weights,
#: its queries, and whether to trace the group.
GroupTask = Tuple[Tuple[float, ...], Tuple[float, ...], List[Member], bool]

#: Objectives accepted by the engine — the same vocabulary as
#: :func:`repro.core.pipeline.partition_chain`.
OBJECTIVES = (
    "bandwidth",
    "bottleneck",
    "processors",
    "bottleneck+processors",
    "bottleneck+bandwidth",
)


#: The JSON number types; ``bool`` is excluded by exact type checks.
_NUMBER_TYPES = frozenset((int, float))


def _numbers(items: Any, name: str) -> Tuple[float, ...]:
    """``items`` as floats, if it is a JSON array of numbers."""
    if type(items) is not list or not set(map(type, items)) <= _NUMBER_TYPES:
        raise ValueError(f"{name!r} must be a JSON array of numbers")
    return tuple(map(float, items))


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
        return Chain(self.alpha, self.beta)

    @classmethod
    def from_json(cls, line: str) -> "PartitionQuery":
        """Parse one JSONL record, rejecting what names no weight or bound.

        ``alpha`` and ``beta`` must be JSON arrays of numbers and
        ``bound`` a number: strings, booleans and objects are not read
        as numbers.  ``objective`` must be a string (an unknown one is
        the query's own error) and ``tag`` a string or null.
        ``NaN``/``Infinity`` tokens, literals such as ``1e999`` or a
        400-digit integer that overflow a float, and nesting too deep to
        decode all raise ``ValueError`` here.
        """
        try:
            record = json.loads(line)
            alpha = _numbers(record["alpha"], "alpha")
            beta = _numbers(record.get("beta", []), "beta")
            bound = record["bound"]
            if type(bound) not in _NUMBER_TYPES:
                raise ValueError(f"'bound' must be a JSON number, got {bound!r}")
            bound = float(bound)
            objective = record.get("objective", "bandwidth")
            if type(objective) is not str:
                raise ValueError(f"'objective' must be a JSON string, got {objective!r}")
            tag = record.get("tag")
            if tag is not None and type(tag) is not str:
                raise ValueError(f"'tag' must be a JSON string or null, got {tag!r}")
        except (OverflowError, RecursionError) as exc:
            raise ValueError(str(exc)) from exc
        values = (*alpha, *beta, bound)
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(
                f"non-finite number {bad} is not a valid weight or bound"
            )
        return cls(alpha, beta, bound, objective, tag)


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
    #: Per-query measurement from the solving process: ``duration_s``.
    #: Excluded from :meth:`to_json` — the JSONL wire format carries
    #: answers; telemetry is reported by the engine instead.
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


def _solve_event(
    n: int,
    bound: float,
    objective: str,
    answer: Union[ChainCutResult, str],
    duration_s: float,
    verify: bool,
    index: Optional[int] = None,
    tag: Optional[str] = None,
) -> Event:
    """The ``solve`` event for one answered query (an error message
    string for a failed one).  A batch query also carries its ``index``,
    ``tag`` and ``error``; a single :meth:`PartitionEngine.solve` does
    not.  ``verify`` is whether ``REPRO_VERIFY`` is set, read by the
    caller once per query or chain group rather than once per event."""
    ok = not isinstance(answer, str)
    event: Event = {
        "kind": "event",
        "event": "solve",
        "objective": objective,
        "n": n,
        "bound": bound,
        "ok": ok,
        "weight": answer.weight if ok else 0.0,
        "duration_s": duration_s,
    }
    if index is not None:
        event["index"] = index
        event["tag"] = tag
        event["error"] = None if ok else answer
    if verify and ok and objective == "bandwidth":
        # Verification runs already pay for a pure-Python re-solve; the
        # combinatorial lower bound is noise next to that, and turns
        # every verified solve into a quality sample.
        from repro.graphs.metrics import chain_bandwidth_lower_bound, optimality_gap

        event["optimality_gap"] = optimality_gap(
            answer.weight, chain_bandwidth_lower_bound(answer.chain, bound)
        )
    return event


class BatchStats:
    """One ``solve_many`` call's totals.

    :attr:`metrics` is the fold of the batch's own ``solve``, ``plan``
    and ``cache`` events through
    :meth:`~repro.observability.metrics.MetricsRegistry.emit`, so the
    latency, optimality-gap and plan-cache numbers here are the ones
    the engine's registry and a ``--stream`` file hold.  Serial and
    pooled runs report the same events, so their aggregates agree
    (latencies aside, which are wall-clock).
    """

    __slots__ = ("queries", "failures", "workers", "wall_s", "metrics")

    def __init__(self, workers: int = 0) -> None:
        self.queries = 0
        self.failures = 0
        self.workers = workers
        self.wall_s = 0.0
        self.metrics = MetricsRegistry()

    @property
    def cache_hit_rate(self) -> float:
        """Plan-cache hits over plan-cache lookups in this batch."""
        counter = self.metrics.counter
        hits = counter("engine.plan.cache.hits").value
        lookups = hits + counter("engine.plan.cache.misses").value
        return hits / lookups if lookups else 0.0

    def __repr__(self) -> str:
        return (
            f"BatchStats(queries={self.queries}, failures={self.failures}, "
            f"cache_hit_rate={self.cache_hit_rate:.2f})"
        )


class _Held(threading.local):
    """Per thread: the events of the chain group being solved, held for
    the batch that asked for it, and the group's tracer when the batch
    is traced (both ``None`` outside a group)."""

    __slots__ = ()
    events: Optional[List[Event]] = None
    tracer: Optional[Tracer] = None


class PartitionEngine:
    """Cache-aware partitioning engine with a batched front door.

    Bandwidth queries are answered by compiled plans held in one
    :class:`~repro.engine.cache.PlanCache`, reachable as both
    :attr:`cache` and :attr:`plans`.

    Parameters
    ----------
    max_workers:
        Default process-pool width for :meth:`solve_many`; ``0``/``1``
        solves serially in-process (still cached).  ``None`` lets the
        pool pick ``os.cpu_count()``.
    tracer:
        A :class:`repro.observability.Tracer`, or ``None`` (the
        default) — single-query solves then take exactly the untraced
        fast path.  With a tracer, ``solve`` records nested spans in it
        and reports per-query latency, and ``solve_many`` records each
        chain group's spans on a tracer of its own and reports their
        ``span`` records with the group's events (subscribe a
        :class:`~repro.observability.RingBufferSubscriber` to keep them).
    metrics:
        A :class:`repro.observability.MetricsRegistry` to share, or
        ``None`` to own a private one.  Every event the engine reports
        is folded into it as it happens.
    hub:
        A :class:`repro.observability.TelemetryHub` for live telemetry,
        or ``None`` (the default) for none.  With a hub every reported
        event is also published: a batch's ``solve`` events *as each
        chain group completes* (not at batch end), their ``plan`` and
        ``cache`` events, and a closing
        ``batch`` event — the feed behind ``repro batch --stream`` and
        ``repro top``.  Without a hub or tracer, a single :meth:`solve`
        reports only its ``plan`` event (plus a ``cache`` event when it
        compiles), and only to the registry.
    """

    __slots__ = (
        "cache",
        "max_workers",
        "tracer",
        "metrics",
        "hub",
        "last_batch_stats",
        "_held",
    )

    def __init__(
        self,
        max_workers: Optional[int] = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        hub: Optional[TelemetryHub] = None,
    ) -> None:
        self.hub = hub
        self.cache = PlanCache()
        self.max_workers = max_workers
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.last_batch_stats: Optional[BatchStats] = None
        self._held = _Held()

    @property
    def plans(self) -> PlanCache:
        """The engine's one plan cache (the same object as :attr:`cache`)."""
        return self.cache

    def emit(self, event: Event) -> None:
        """Report one fact: fold it into :attr:`metrics` and publish it on
        a live hub — or, while this thread solves a chain group, hold it
        for the batch that asked for the group."""
        held = self._held.events
        if held is not None:
            held.append(event)
            return
        self.metrics.emit(event)
        if self.hub is not None:
            self.hub.publish(event)

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def solve(
        self,
        chain: Chain,
        bound: float,
        objective: str = "bandwidth",
    ) -> ChainCutResult:
        """Solve one query through the fast path.

        ``"bandwidth"`` (Algorithm 4.1) is a one-bound ``solve_bounds``
        on the chain's cached plan.  ``"bottleneck+bandwidth"`` runs
        Algorithm 2.1 on the native tree sweep and then one native (or
        NumPy) structure build on the chain with its edges heavier than
        ``B*`` forbidden (:meth:`_lexicographic`, uncached).  The other
        objectives delegate to :func:`repro.core.pipeline.partition_chain`
        (tree algorithms on the path tree, uncached).
        """
        tracer = self.tracer
        if tracer is None and self.hub is None:
            return self._solve(chain, bound, objective, None)
        verify = "REPRO_VERIFY" in os.environ
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span(
                "engine_solve", objective=objective, n=chain.num_tasks, bound=bound
            ):
                result = self._solve(chain, bound, objective, tracer)
        else:
            result = self._solve(chain, bound, objective, None)
        self.emit(
            _solve_event(
                chain.num_tasks, bound, objective, result,
                time.perf_counter() - t0, verify,
            )
        )
        return result

    def _solve(
        self,
        chain: Chain,
        bound: float,
        objective: str,
        tracer: Optional[Tracer],
    ) -> ChainCutResult:
        """One query, spans recorded on ``tracer`` when given: a plan
        call for ``bandwidth``, :meth:`_lexicographic` for
        ``bottleneck+bandwidth``, :func:`partition_chain` otherwise."""
        if objective != "bandwidth":
            if objective == "bottleneck+bandwidth":
                return self._lexicographic(chain, bound)
            if objective not in OBJECTIVES:
                raise ValueError(
                    f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
                )
            return partition_chain(chain, bound, objective)
        weights, cuts = self._plan_solve(chain, [bound], True, tracer)
        return ChainCutResult(chain, cuts[0], float(weights[0]))

    @staticmethod
    def _lexicographic(chain: Chain, bound: float) -> ChainCutResult:
        """``bottleneck+bandwidth`` as
        :func:`repro.core.bicriteria.lexicographic_chain_partition`
        computes it, bit for bit: Algorithm 2.1 finds ``B*``, then one
        :func:`~repro.engine.kernels.structure_sweep` runs Algorithm 4.1
        on the chain whose edges heavier than ``B*`` weigh ``+inf``.

        Uncached: the restricted chain shares no plan with ``chain``.
        Where no kernel can run (neither the native library nor NumPy),
        the reference answers.
        """
        validate_bound_array(chain.max_vertex_weight(), bound)
        if chain.total_weight() <= bound:
            result = ChainCutResult(chain, [], 0.0)
        else:
            b_star = bottleneck_min(chain.to_tree(), bound).bottleneck
            restricted = chain._forbid_edges(
                i for i, b in enumerate(chain.beta) if b > b_star
            )
            _, beta, prefix = restricted.buffers()
            try:
                cut, weight, _, _, _ = structure_sweep(prefix, beta, bound, True)
            except KernelUnavailableError:
                return partition_chain(chain, bound, "bottleneck+bandwidth")
            finite_optimum(weight, bound)
            result = ChainCutResult(chain, cut, chain.cut_weight(cut))
        if "REPRO_VERIFY" in os.environ:
            from repro.verify.runtime import maybe_verify_chain_result

            maybe_verify_chain_result(
                chain, result.cut_indices, bound, claimed_weight=result.weight
            )
        return result

    def _plan_solve(
        self,
        chain: Chain,
        bounds: Sequence[float],
        return_cuts: bool,
        tracer: Optional[Tracer],
    ) -> Any:
        """One plan call: the chain's plan from :attr:`cache`, one
        ``solve_bounds``, and one ``plan`` event.

        The event is the call's exact ``stats`` delta (a per-call
        :class:`~repro.engine.plan.PlanStats` tally) plus whether the
        plan-cache lookup hit; a compiling lookup also reports its
        ``cache`` event through :meth:`emit`.  With a ``tracer``, a
        compiling lookup runs in a ``plan_compile`` span and the sweep
        in a ``plan_solve_bounds`` span carrying the same delta; its
        ``outcome`` is ``miss`` if the call built a structure, else
        ``interval_hit`` if any bound was served off its build bound,
        else ``hit``.
        """
        cache = self.cache
        if tracer is not None and chain not in cache:
            with tracer.span("plan_compile", n=chain.num_tasks):
                plan, hit = cache.lookup(chain, metrics=self)
        else:
            plan, hit = cache.lookup(chain, metrics=self)
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
        self.emit(event)
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
        structures.  Returns the per-bound weights as an ``array("d")``,
        or ``(weights, cuts)`` with ``return_cuts=True``.  Answers are
        bit-identical to per-call :meth:`solve`; under ``REPRO_VERIFY=1``
        every element is certified against the pure-Python solver.
        Inside a traced batch's chain group, the spans go on the group's
        tracer.
        """
        tracer = self._held.tracer
        if tracer is None:
            tracer = self.tracer
        return self._plan_solve(chain, bounds, return_cuts, tracer)

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def solve_many(
        self,
        queries: Sequence[PartitionQuery],
        *,
        max_workers: Optional[int] = None,
    ) -> List[QueryResult]:
        """Solve independent queries, returning results in input order.

        Queries are grouped by chain (equal ``alpha`` and ``beta``)
        once, groups in order of first appearance and each group's
        queries in input order, and each group is answered by
        :meth:`_solve_group`: serially in this process, or with a
        process pool as one task per group.  Either way the parent
        reports each group's events as the group lands, in group order,
        and folds them into :attr:`last_batch_stats`.

        Grouping costs one lookup per query on the ids of its tuples
        and one content hash per distinct tuple pair, so equal copies
        still share a group but each copy is hashed once.  Callers that
        reuse one ``(alpha, beta)`` pair for all of a chain's queries
        have the chain hashed once; :meth:`PartitionQuery.from_chain`
        copies the weights on every call.
        """
        if max_workers is None:
            max_workers = self.max_workers
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        groups: Dict[Tuple[tuple, tuple], List[Member]] = {}
        # Keyed by the tuples' ids, each entry holding both tuples (so no
        # id is reused within the batch) and its content group's members.
        seen: Dict[Tuple[int, int], Tuple[tuple, tuple, List[Member]]] = {}
        for index, query in enumerate(queries):
            alpha, beta = query.alpha, query.beta
            entry = seen.get((id(alpha), id(beta)))
            if entry is None:
                members = groups.setdefault((alpha, beta), [])
                entry = seen[id(alpha), id(beta)] = (alpha, beta, members)
            entry[2].append((index, query.bound, query.objective, query.tag))
        count = sum(len(members) for members in groups.values())
        trace = self.tracer is not None
        tasks: List[GroupTask] = [
            (alpha, beta, members, trace)
            for (alpha, beta), members in groups.items()
        ]
        t0 = time.perf_counter()
        if max_workers in (0, 1) or len(tasks) <= 1:
            batch = BatchStats(workers=0)
            results = self._fold_groups(map(self._solve_group, tasks), count, batch)
        else:
            from concurrent.futures import ProcessPoolExecutor

            batch = BatchStats(workers=max_workers or os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=batch.workers) as pool:
                results = self._fold_groups(
                    pool.map(_solve_task, tasks), count, batch
                )
        batch.wall_s = time.perf_counter() - t0
        self._close_batch(batch, results)
        return results

    def _solve_group(self, task: GroupTask) -> Tuple[List[QueryResult], List[Event]]:
        """Answer one chain group: its results, in member order, and the
        events it reported, held back for the batch to report.

        Traced, the group runs inside a ``chain_group`` span (attributes
        ``n`` and the group's query ``indices``) on a tracer of its own,
        and the group's ``span`` records follow its events.
        """
        alpha, beta, members, trace = task
        held = self._held
        held.events = events = []
        try:
            if trace:
                from repro.observability.spans import Tracer

                held.tracer = tracer = Tracer()
                with tracer.span(
                    "chain_group", n=len(alpha), indices=[m[0] for m in members]
                ):
                    results = self._answer_group(alpha, beta, members, tracer)
                events.extend(tracer.records())
            else:
                results = self._answer_group(alpha, beta, members, None)
        finally:
            held.events = held.tracer = None
        return results, events

    def _answer_group(
        self,
        alpha: Tuple[float, ...],
        beta: Tuple[float, ...],
        members: List[Member],
        tracer: Optional[Tracer],
    ) -> List[QueryResult]:
        """The group's answers.  The :class:`Chain` is built once.  The
        group's bandwidth queries with finite feasible bounds go through
        one :meth:`solve_sweep` call; every other query — and every
        query of a group whose sweep failed (e.g. a verification
        failure) — goes through :meth:`_solve` on its own, its error
        captured on its own result.  Plan calls record their spans on
        ``tracer`` when given."""
        n = len(alpha)
        verify = "REPRO_VERIFY" in os.environ
        try:
            chain = Chain(alpha, beta)
        except (PartitioningError, ValueError) as exc:
            return [self._finish(n, m, str(exc), 0.0, verify) for m in members]
        swept: Dict[int, QueryResult] = {}
        alpha_max = chain.max_vertex_weight()
        eligible = [
            k
            for k, (_, bound, objective, _) in enumerate(members)
            if objective == "bandwidth"
            and math.isfinite(bound)
            and 0.0 < bound
            and alpha_max <= bound
        ]
        t0 = time.perf_counter()
        out = self._sweep(chain, [members[k][1] for k in eligible])
        if out is not None:
            share = (time.perf_counter() - t0) / len(eligible)
            for k, weight, cut in zip(eligible, *out):
                swept[k] = self._finish(
                    n, members[k], ChainCutResult(chain, cut, float(weight)),
                    share, verify,
                )
        results = []
        for k, member in enumerate(members):
            result = swept.get(k)
            if result is None:
                t0 = time.perf_counter()
                answer = self._attempt(chain, member, tracer)
                result = self._finish(
                    n, member, answer, time.perf_counter() - t0, verify
                )
            results.append(result)
        return results

    def _sweep(
        self, chain: Chain, bounds: List[float]
    ) -> Optional[Tuple[Any, List[List[int]]]]:
        """One :meth:`solve_sweep` over a group's eligible bounds, or
        ``None`` when there are none or the call failed (e.g. a
        verification failure) — each query is then answered on its own,
        so an error lands on the offending query only."""
        if not bounds:
            return None
        try:
            return self.solve_sweep(chain, bounds, return_cuts=True)
        except (PartitioningError, ValueError):
            return None

    def _attempt(
        self, chain: Chain, member: Member, tracer: Optional[Tracer]
    ) -> Union[ChainCutResult, str]:
        """One batch query through :meth:`_solve`; its error message in
        place of a raise."""
        try:
            return self._solve(chain, member[1], member[2], tracer)
        except (PartitioningError, ValueError) as exc:
            return str(exc)

    def _finish(
        self,
        n: int,
        member: Member,
        answer: Union[ChainCutResult, str],
        duration_s: float,
        verify: bool,
    ) -> QueryResult:
        """One answered query: report its ``solve`` event and return its
        result."""
        index, bound, objective, tag = member
        self.emit(
            _solve_event(
                n, bound, objective, answer, duration_s, verify, index, tag
            )
        )
        if isinstance(answer, str):
            result = QueryResult(index, tag, objective, bound, error=answer)
        else:
            result = QueryResult(
                index, tag, objective, bound, list(answer.cut_indices),
                answer.weight, answer.num_components,
            )
        result.telemetry = {"duration_s": duration_s}
        return result

    def _fold_groups(
        self,
        answered: Iterable[Tuple[List[QueryResult], List[Event]]],
        count: int,
        batch: BatchStats,
    ) -> List[QueryResult]:
        """Report each group's events as it lands (so a live hub sees a
        group the moment it is done) and fold them into ``batch``;
        return the results in input order."""
        results: List[Any] = [None] * count
        for group, events in answered:
            for event in events:
                self.emit(event)
                batch.metrics.emit(event)
            for result in group:
                results[result.index] = result
        return results

    def _close_batch(self, batch: BatchStats, results: List[QueryResult]) -> None:
        """Count the results into ``batch``, keep it as
        :attr:`last_batch_stats` and report the closing ``batch``
        event."""
        for result in results:
            batch.queries += 1
            if not result.ok:
                batch.failures += 1
        self.last_batch_stats = batch
        self.emit(
            {
                "kind": "event",
                "event": "batch",
                "queries": batch.queries,
                "failures": batch.failures,
                "workers": batch.workers,
                "wall_s": batch.wall_s,
                "cache_hit_rate": batch.cache_hit_rate,
                "plan_occupancy": self.cache.occupancy,
                "latency": batch.metrics.histogram(
                    "engine.batch.query_latency_s"
                ).summary(),
            }
        )

    def solve_jsonl(
        self,
        lines: Iterable[str],
        *,
        max_workers: Optional[int] = None,
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
        return self.solve_many(queries, max_workers=max_workers)


def _solve_task(task: GroupTask) -> Tuple[List[QueryResult], List[Event]]:
    """Pool entry point: one chain group on a fresh engine; its results
    and events travel back to the parent.

    A batch's groups are distinct chains, so no plan a worker compiles
    is asked for again; a fresh engine per group keeps each group's
    ``cache`` events free of the other groups a worker happened to run.
    """
    return PartitionEngine(max_workers=0)._solve_group(task)
