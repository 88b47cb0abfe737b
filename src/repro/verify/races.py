"""Dynamic race hammer: seeded multi-thread stress over shared state.

The static pass (:mod:`repro.verify.concurrency`) proves the *declared*
lock discipline is followed; this module checks the discipline actually
*works*.  A :class:`ConcurrencyHarness` drives the shared-state
objects through N threads of seeded random operations with the
interpreter's thread switch interval cranked down (so the scheduler
interleaves at bytecode granularity — the Träff–Wimmer stance from
PAPERS.md applied to scheduling: hunt for the adversarial interleaving
rather than hoping the default one is representative), then audits the
end state with exact invariants:

- **no lost updates** — every counter/stat equals the op count the
  threads performed;
- **no torn stats** — cache accounting identities
  (``lookups = hits + interval_hits + misses``,
  ``len = misses - evictions``) hold exactly;
- **no corrupted LRU order** — capacity bounds hold and every served
  result still passes the O(n) paper certificates
  (:func:`repro.verify.certificates.check_chain_partition`) and equals
  the serially-computed reference.

Schedules are deterministic per ``seed`` *at the op level* (each thread
draws from its own ``random.Random(seed, tid)`` stream); the OS still
chooses the interleaving, so the hammer explores a different schedule
each run while the workload itself stays reproducible.

Scenario functions (``hammer_*``) each return a summary dict of what
was verified; they raise :class:`RaceConditionError` on any violation.
:func:`hammer_all` runs six scenarios over the classes
:data:`repro.verify.markers.SHARED_STATE` declares: ``PlanCache`` and
``CompiledChainPlan`` (through a shared ``PartitionEngine.solve``),
``TelemetryHub``, ``MetricsRegistry`` (with its ``Counter``, ``Gauge``
and ``Histogram`` instruments), ``Histogram`` on its own and
``StreamingJsonlSink``.  No scenario drives ``ProfileSampler``: its
threaded ``stop()`` is covered by ``test_concurrent_stop_from_many_threads``
in ``tests/observability/test_profiler.py``.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import traceback
from typing import Any, Callable, Dict, List, Tuple


class RaceConditionError(AssertionError):
    """A hammer run violated a shared-state invariant."""


#: Op callback signature: ``(thread_id, op_index, rng) -> None``.
HammerOp = Callable[[int, int, random.Random], None]


class ConcurrencyHarness:
    """Run one op callback from N threads under an adversarial scheduler.

    Parameters
    ----------
    threads:
        Worker thread count (the acceptance runs use 8).
    ops_per_thread:
        Ops each thread performs.
    seed:
        Seeds each thread's private ``random.Random(seed, tid)`` stream,
        so the *workload* is bit-reproducible even though the OS-level
        interleaving is not.
    switch_interval:
        Value passed to :func:`sys.setswitchinterval` for the duration
        of the run (restored afterwards).  The tiny default forces
        thread switches every few bytecodes — races that hide for years
        under the 5 ms default surface in one hammer run.
    """

    __slots__ = ("threads", "ops_per_thread", "seed", "switch_interval")

    def __init__(
        self,
        threads: int = 8,
        ops_per_thread: int = 100,
        seed: int = 0,
        switch_interval: float = 1e-5,
    ) -> None:
        if threads < 2:
            raise ValueError(f"need >= 2 threads to race, got {threads}")
        if ops_per_thread <= 0:
            raise ValueError(f"ops_per_thread must be positive, got {ops_per_thread}")
        self.threads = threads
        self.ops_per_thread = ops_per_thread
        self.seed = seed
        self.switch_interval = switch_interval

    @property
    def total_ops(self) -> int:
        return self.threads * self.ops_per_thread

    def run(self, op: HammerOp) -> None:
        """Drive ``op`` from all threads; raise on any thread exception.

        All threads block on a barrier first so they enter the hammer
        loop together — staggered starts would serialize short runs.
        """
        barrier = threading.Barrier(self.threads)
        failures: List[Tuple[int, str]] = []

        def body(tid: int) -> None:
            rng = random.Random(self.seed * 1_000_003 + tid)
            try:
                barrier.wait()
                for i in range(self.ops_per_thread):
                    op(tid, i, rng)
            except BaseException:
                failures.append((tid, traceback.format_exc()))

        workers = [
            threading.Thread(target=body, args=(tid,), name=f"hammer-{tid}")
            for tid in range(self.threads)
        ]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(self.switch_interval)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(old_interval)
        if failures:
            detail = "\n".join(f"[thread {tid}]\n{tb}" for tid, tb in failures)
            raise RaceConditionError(
                f"{len(failures)} hammer thread(s) raised:\n{detail}"
            )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RaceConditionError(message)


def _make_chains(rng: random.Random, count: int, n: int) -> List[Any]:
    from repro.graphs.chain import Chain

    return [
        Chain(
            alpha=[rng.randint(1, 9) for _ in range(n)],
            beta=[rng.randint(1, 5) for _ in range(n - 1)],
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def hammer_engine_solve(
    harness: ConcurrencyHarness, *, chains: int = 4, tasks: int = 60
) -> Dict[str, Any]:
    """Hammer one shared ``PartitionEngine.solve`` and certify every answer.

    All threads drive one engine, hence one plan cache and the plans'
    stability-interval memos.  Invariants checked: each served result
    is element-identical to the serially-computed reference *and*
    passes the O(n) chain-partition certificate; the plan cache's
    ``stats.lookups`` and the plans' memo lookups each equal the exact
    op count (no lost stat updates); both LRU levels respect their
    capacity bounds, each memo's sorted start index matches its entries
    (no torn LRU bookkeeping), and no structure was built twice (no
    racing misses).

    A second phase reruns the hammer on an engine whose plan cache holds
    only half the pool, so plans are evicted while other threads are
    still solving through them; it checks the answers and the plan-LRU
    accounting.
    """
    from repro.core.bandwidth import bandwidth_min
    from repro.engine import PartitionEngine
    from repro.verify.certificates import check_chain_partition

    rng = random.Random(f"{harness.seed}-queries")
    pool = _make_chains(rng, chains, tasks)
    queries: List[Tuple[Any, float]] = []
    for chain in pool:
        alpha_max = int(chain.max_vertex_weight())
        for _ in range(6):
            queries.append((chain, float(rng.randint(alpha_max, 4 * alpha_max))))
    reference = [
        bandwidth_min(chain, bound, apply_reduction=True)
        for chain, bound in queries
    ]

    mistakes: List[str] = []

    def hammer(engine: Any) -> Any:
        """Run the hammer on ``engine``; check answers and plan-LRU stats."""

        def op(tid: int, i: int, op_rng: random.Random) -> None:
            q = op_rng.randrange(len(queries))
            chain, bound = queries[q]
            result = engine.solve(chain, bound)
            expected = reference[q]
            if (
                result.weight != expected.weight
                or list(result.cut_indices) != list(expected.cut_indices)
            ):
                mistakes.append(
                    f"query {q}: got weight {result.weight} cut "
                    f"{list(result.cut_indices)}, expected {expected.weight}"
                )
                return
            check_chain_partition(
                chain, result.cut_indices, bound, result.weight
            ).raise_if_failed()

        harness.run(op)
        _require(not mistakes, "served results diverged from reference:\n" + "\n".join(mistakes[:5]))
        cache = engine.cache
        stats = cache.stats
        _require(
            stats.lookups == harness.total_ops,
            f"lost stat updates: {stats.lookups} lookups != {harness.total_ops} ops",
        )
        _require(
            stats.misses - stats.evictions == len(cache) <= cache.max_plans,
            f"plan LRU accounting broken: len={len(cache)}, {stats!r}",
        )
        return cache

    # Phase 1: every chain keeps its plan (the default capacity exceeds
    # the pool), so all threads race on the same few memos.
    cache = hammer(PartitionEngine())
    stats = cache.stats
    plans = list(cache._plans.values())
    _require(len(plans) == len(pool), f"plans evicted: {stats!r}")
    memo_lookups = sum(plan.stats.lookups for plan in plans)
    _require(
        memo_lookups == harness.total_ops,
        f"lost memo stat updates: {memo_lookups} != {harness.total_ops} ops",
    )
    stored = 0
    for plan in plans:
        memo = plan.stats
        _require(
            len(plan) <= min(plan.max_structures, memo.misses),
            f"memo invented structures: {len(plan)} stored, {memo!r}",
        )
        _require(
            len(plan._starts) == len(plan),
            f"torn memo index: {len(plan._starts)} starts, {len(plan)} entries",
        )
        # Each miss memoizes a new start, so without evictions builds
        # equal entries; a duplicated build means two threads both
        # missed on one bound — the memo was not mutated under its lock.
        _require(
            memo.evictions > 0 or memo.misses == len(plan),
            f"duplicated structure builds: {len(plan)} stored, {memo!r}",
        )
        stored += len(plan)
    # Phase 2: half the pool fits, so plans are evicted mid-solve.
    evicting = PartitionEngine()
    evicting.cache.max_plans = max(2, chains // 2)
    evicted = hammer(evicting).stats
    return {
        "ops": harness.total_ops,
        "queries": len(queries),
        "stats": repr(stats),
        "stored_structures": stored,
        "evicting_stats": repr(evicted),
    }


def hammer_plan_cache(
    harness: ConcurrencyHarness, *, chains: int = 8, tasks: int = 40
) -> Dict[str, Any]:
    """Hammer ``PlanCache.get`` from all threads, then audit the LRU.

    Every returned plan must be compiled for the requested fingerprint
    (a torn get-or-create would hand a plan for chain A to a request
    for chain B); capacity and the ``len = misses - evictions`` identity
    must hold; and each surviving cached plan must still answer a solve
    identically to the pure reference.
    """
    from repro.core.bandwidth import bandwidth_min
    from repro.engine.cache import PlanCache

    rng = random.Random(f"{harness.seed}-plans")
    pool = _make_chains(rng, chains, tasks)
    fingerprints = [chain.fingerprint() for chain in pool]
    cache = PlanCache(max_plans=max(2, chains // 2))
    mismatches: List[str] = []

    def op(tid: int, i: int, op_rng: random.Random) -> None:
        c = op_rng.randrange(len(pool))
        plan = cache.get(pool[c])
        if plan.fingerprint != fingerprints[c]:
            mismatches.append(
                f"asked for chain {c}, got plan for {plan.fingerprint[:12]}"
            )

    harness.run(op)
    _require(not mismatches, "plan cache served wrong plans:\n" + "\n".join(mismatches[:5]))
    stats = cache.stats
    _require(
        stats.lookups == harness.total_ops,
        f"lost stat updates: {stats.lookups} lookups != {harness.total_ops} ops",
    )
    _require(len(cache) <= cache.max_plans, f"over capacity: {len(cache)}")
    _require(
        stats.misses - stats.evictions == len(cache),
        f"LRU accounting broken: len={len(cache)}, {stats!r}",
    )
    # Serial post-validation: surviving plans still answer correctly.
    validated = 0
    for chain in pool:
        key = chain.fingerprint()
        if key in cache._plans:
            plan = cache._plans[key]
            bound = float(2 * chain.max_vertex_weight())
            weight = float(plan.solve_bounds([bound])[0])
            expected = bandwidth_min(chain, bound, apply_reduction=True)
            _require(
                weight == expected.weight,
                f"cached plan diverged: {weight} != {expected.weight}",
            )
            validated += 1
    return {
        "ops": harness.total_ops,
        "stats": repr(stats),
        "plans_cached": len(cache),
        "plans_validated": validated,
    }


def hammer_telemetry_hub(harness: ConcurrencyHarness) -> Dict[str, Any]:
    """Publish from all threads; every event must arrive exactly once.

    A ring buffer sized for the whole run and a counting callback both
    subscribe; afterwards the received multiset must equal the sent
    multiset exactly — no drops (lost appends), no duplicates (torn
    subscriber-list mutation), and no subscriber errors.
    """
    from repro.observability.live import (
        CallbackSubscriber,
        RingBufferSubscriber,
        TelemetryHub,
    )

    total = harness.total_ops
    ring = RingBufferSubscriber(capacity=2 * total)
    # The counting callback is deliberately a bare read-modify-write:
    # the hub's lock serializes the fan-out, and this count equalling
    # the op total is the proof.
    seen_count = [0]

    def count(event: Dict[str, Any]) -> None:
        seen_count[0] = seen_count[0] + 1

    hub = TelemetryHub([ring, CallbackSubscriber(count)])

    def op(tid: int, i: int, op_rng: random.Random) -> None:
        hub.publish(
            {"kind": "event", "event": "race", "tid": tid, "seq": i}
        )

    harness.run(op)
    _require(not hub.errors, f"subscriber errors: {hub.errors}")
    events = [e for e in ring.events() if e.get("event") == "race"]
    _require(
        len(events) == total,
        f"fan-out lost events: ring has {len(events)}, published {total}",
    )
    _require(
        seen_count[0] == total,
        f"callback missed events: {seen_count[0]} != {total}",
    )
    pairs = {(e["tid"], e["seq"]) for e in events}
    _require(
        len(pairs) == total,
        f"duplicated/torn events: {total - len(pairs)} collisions",
    )
    stamped = sum(1 for e in events if "t" in e)
    _require(stamped == total, f"unstamped events: {total - stamped}")
    return {"ops": total, "events": len(events), "errors": len(hub.errors)}


def hammer_metrics_registry(harness: ConcurrencyHarness) -> Dict[str, Any]:
    """Increment/observe through one shared registry from all threads.

    Counters must equal the exact op totals (the classic lost-update
    check: ``value += 1`` without a lock measurably drops increments at
    this switch interval), gauges must hold a value some thread wrote,
    get-or-create must never mint duplicate instruments, and histogram
    count/sum must match the seeded observation multiset exactly.
    """
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    expected_obs: List[List[float]] = [
        [float(tid * harness.ops_per_thread + i) % 97 + 0.5 for i in range(harness.ops_per_thread)]
        for tid in range(harness.threads)
    ]

    def op(tid: int, i: int, op_rng: random.Random) -> None:
        registry.counter("race.ops").inc()
        registry.counter("race.weighted").inc(2.0)
        registry.gauge("race.last_tid").set(float(tid))
        registry.histogram("race.latency").observe(expected_obs[tid][i])

    harness.run(op)
    total = harness.total_ops
    _require(
        registry.counter("race.ops").value == total,
        f"lost counter updates: {registry.counter('race.ops').value} != {total}",
    )
    _require(
        registry.counter("race.weighted").value == 2.0 * total,
        f"lost weighted updates: {registry.counter('race.weighted').value}",
    )
    _require(
        0.0 <= registry.gauge("race.last_tid").value < harness.threads,
        f"gauge tore: {registry.gauge('race.last_tid').value}",
    )
    _require(
        len(registry.counters) == 2
        and len(registry.gauges) == 1
        and len(registry.histograms) == 1,
        "get-or-create minted duplicate instruments",
    )
    hist = registry.histogram("race.latency")
    _require(hist.count == total, f"lost observations: {hist.count} != {total}")
    flat = [v for row in expected_obs for v in row]
    _require(
        hist.min == min(flat) and hist.max == max(flat),
        f"extrema tore: [{hist.min}, {hist.max}]",
    )
    if hist.exact:
        _require(
            hist.sum == math.fsum(flat),
            f"torn histogram sum: {hist.sum} != {math.fsum(flat)}",
        )
    return {"ops": total, "histogram_count": hist.count, "exact": hist.exact}


def hammer_histogram(harness: ConcurrencyHarness) -> Dict[str, Any]:
    """Race one histogram across its exact→bucketed spill boundary.

    Threads observe while others read percentiles (racing the memoized
    sorted/CDF views).  Afterwards the count, extrema and total bucket
    mass must match the observation multiset exactly — a torn spill
    would double- or drop-count whole batches.
    """
    from repro.observability.metrics import EXACT_LIMIT, Histogram

    hist = Histogram("race.spill")
    # Size the run to cross the spill boundary mid-hammer.
    assert harness.total_ops > EXACT_LIMIT, "hammer must cross EXACT_LIMIT"

    def op(tid: int, i: int, op_rng: random.Random) -> None:
        hist.observe(float(tid + 1) * 10.0 + (i % 7))
        if i % 16 == 0:
            hist.percentile(95)  # race the memo against writers

    harness.run(op)
    total = harness.total_ops
    _require(hist.count == total, f"lost observations: {hist.count} != {total}")
    _require(not hist.exact, "histogram never spilled despite crossing limit")
    mass = hist._zero + sum(hist._pos.values()) + sum(hist._neg.values())
    _require(
        mass == total,
        f"torn spill: bucket mass {mass} != count {total}",
    )
    _require(hist.min == 10.0, f"min tore: {hist.min}")
    _require(
        hist.max == harness.threads * 10.0 + 6.0,
        f"max tore: {hist.max}",
    )
    return {"ops": total, "bucket_mass": mass, "p95": hist.percentile(95)}


def hammer_streaming_sink(
    harness: ConcurrencyHarness, path: str
) -> Dict[str, Any]:
    """Concurrent writers on one ``StreamingJsonlSink``; file must parse.

    Every line must be complete JSON (no mid-record interleaving), every
    ``(tid, seq)`` record must appear exactly once, ``lines_written``
    must match, and a ``resume=True`` reopen must append parseable
    records without a second header.
    """
    import json

    from repro.observability.live import StreamingJsonlSink

    sink = StreamingJsonlSink(path, meta={"source": "race-hammer"})
    padding = "x" * 64  # long enough that torn writes would split JSON

    def op(tid: int, i: int, op_rng: random.Random) -> None:
        sink.emit(
            {"kind": "event", "event": "race", "tid": tid, "seq": i,
             "pad": padding}
        )

    harness.run(op)
    sink.close()
    total = harness.total_ops
    _require(
        sink.lines_written == total + 1,  # + meta header
        f"lines_written tore: {sink.lines_written} != {total + 1}",
    )

    def parse_all() -> List[Dict[str, Any]]:
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise RaceConditionError(
                        f"line {lineno} is torn mid-record: {exc}"
                    ) from exc
        return records

    records = parse_all()
    _require(records[0].get("kind") == "meta", "missing meta header")
    pairs = {(r["tid"], r["seq"]) for r in records if r.get("event") == "race"}
    _require(
        len(pairs) == total,
        f"lost/duplicated records: {len(pairs)} != {total}",
    )

    # Resume and hammer again: still one header, everything parses.
    resumed = StreamingJsonlSink(path, resume=True)

    def op2(tid: int, i: int, op_rng: random.Random) -> None:
        resumed.emit({"kind": "event", "event": "race2", "tid": tid, "seq": i})

    harness.run(op2)
    resumed.close()
    records = parse_all()
    headers = sum(1 for r in records if r.get("kind") == "meta")
    _require(headers == 1, f"resume wrote {headers} headers")
    second = {(r["tid"], r["seq"]) for r in records if r.get("event") == "race2"}
    _require(
        len(second) == total,
        f"lost/duplicated resumed records: {len(second)} != {total}",
    )
    return {"ops": 2 * total, "lines": len(records), "headers": headers}


def hammer_all(
    harness: ConcurrencyHarness, *, sink_path: str
) -> Dict[str, Dict[str, Any]]:
    """Run every scenario; the one-call entry point used by tooling."""
    return {
        "engine_solve": hammer_engine_solve(harness),
        "plan_cache": hammer_plan_cache(harness),
        "telemetry_hub": hammer_telemetry_hub(harness),
        "metrics_registry": hammer_metrics_registry(harness),
        "histogram": hammer_histogram(harness),
        "streaming_sink": hammer_streaming_sink(harness, sink_path),
    }
