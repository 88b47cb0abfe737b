"""Engine fast paths vs the pure-Python seed implementation.

Claims reproduced / asserted:

- a 100-bound sweep over a 10k-task chain runs >= 3x faster through the
  warmed ``PartitionEngine`` (NumPy kernels + compiled-plan cache)
  than through the seed ``bandwidth_min`` loop, with identical results;
- the same sweep through a **compiled plan** (one ``compile_chain`` +
  one ``solve_bounds`` call) beats the seed loop >= 4x even cold, and a
  warmed plan answers the whole 100-bound vector >= 10x faster than the
  seed loop — the headline compile-once/query-many claim;
- a single cold query on the pure-Python reference is timed (the
  NumPy route's single query is the engine's, raced in the lock test);
- repeat-bound queries are served from the cache at far below the cost
  of recomputation;
- ``solve_many`` keeps its per-query results identical to the serial
  reference regardless of worker count;
- a warmed ``solve_many`` over a 24-bound grid on four 20k-task chains,
  whose queries share one tuple pair per chain, runs >= 4x faster than
  the same queries as per-query ``engine.solve`` calls (a fresh
  ``Chain`` each): grouping hashes each chain once, not once per query;
- ``bottleneck+bandwidth`` on a 10k-task chain runs >= 2.5x faster
  through ``PartitionEngine.solve`` (native tree sweep, then one
  structure build on the restricted chain) than through the reference
  ``lexicographic_chain_partition``, with identical answers;
- threading the observability ``tracer=`` parameter through the hot
  path costs < 5% when tracing is off (``tracer=None``), measured
  against the reference's untraced inner path;
- the live telemetry hub costs < 5% both off (``hub=None``) and
  enabled with no subscribers, measured against the direct
  plan-cache path;
- the shared-state locks of the plan cache and the plan memo cost
  < 5% on a single-threaded cold solve vs the same engine path with
  both locks swapped for no-ops, and the disabled telemetry paths
  (the ``hub is not None`` guard with no hub, locked ``Counter.inc``)
  stay allocation-free.

All tests also run (and still assert correctness) under
``--benchmark-disable``, so this file doubles as an engine smoke test.

Perf ratchet: with ``REPRO_BENCH_SNAPSHOT=<path>`` in the environment
the module writes a JSON snapshot of the measured speedups (and median
wall times, informational) on teardown.  The committed
``BENCH_engine.json`` is the baseline; ``repro ratchet`` fails CI when
a fresh snapshot's speedups regress by more than the tolerance.
"""

import json
import os
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from benchmarks.conftest import make_chain
from repro.core.bandwidth import bandwidth_min
from repro.core.bicriteria import lexicographic_chain_partition
from repro.engine import PartitionEngine, PartitionQuery, compile_chain
from repro.graphs.chain import Chain

N_TASKS = 10_000
NUM_BOUNDS = 100
SPEEDUP_FLOOR = 3.0
#: Warmed compiled-plan sweep vs the seed loop — the tentpole claim.
PLAN_SPEEDUP_FLOOR = 10.0
#: Cold compile + first ``solve_bounds`` vs the seed loop.  Margin ratio
#: mirrors the seed test's (floor 3.0 for a measured ~4.6x): worst
#: observed cold ratio on this box is ~6x.
PLAN_COLD_FLOOR = 4.0

#: Warmed ``solve_many`` over a shared-tuple bound grid vs per-query
#: ``engine.solve``.  Measured 8.6-13x on a 2-vCPU VM; grouping that
#: hashes every query's tuples reads 1.4-2.3x there.
BATCH_GRID_FLOOR = 4.0

#: Engine ``bottleneck+bandwidth`` vs the reference
#: ``lexicographic_chain_partition`` on a 10k-task chain.  Measured
#: 5.4-6.5x on a 2-vCPU VM.
LEXICOGRAPHIC_FLOOR = 2.5

#: Ratchet snapshot accumulated by the tests in this module; written on
#: module teardown when REPRO_BENCH_SNAPSHOT names a target file.
_SNAPSHOT: dict = {"version": 1, "benchmarks": {}}


def _snapshot_record(name, median_s, **ratios):
    entry = {"median_ns": int(median_s * 1e9)}
    entry.update({key: round(value, 2) for key, value in ratios.items()})
    _SNAPSHOT["benchmarks"][name] = entry


@pytest.fixture(scope="module", autouse=True)
def _write_snapshot():
    yield
    target = os.environ.get("REPRO_BENCH_SNAPSHOT")
    if target and _SNAPSHOT["benchmarks"]:
        Path(target).write_text(
            json.dumps(_SNAPSHOT, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def sweep_bounds(chain, num=NUM_BOUNDS):
    """Log-spaced bounds over ratios 1.2..300, ascending (cache-friendly
    order; the seed loop is order-insensitive so this favors nobody
    unfairly on the comparison)."""
    wmax = chain.max_vertex_weight()
    lo, hi = 1.2, 300.0
    return [wmax * lo * (hi / lo) ** (i / (num - 1)) for i in range(num)]


@pytest.fixture(scope="module")
def sweep_instance():
    chain, _ = make_chain(N_TASKS, 4.0)
    return chain, sweep_bounds(chain)


def test_sweep_100_bounds_speedup(sweep_instance, benchmark):
    """The ISSUE acceptance criterion: >= 3x on the 100-bound sweep."""
    chain, bounds = sweep_instance

    def seed_sweep():
        return [bandwidth_min(chain, b).weight for b in bounds]

    def engine_sweep(engine):
        return [engine.solve(chain, b).weight for b in bounds]

    engine = PartitionEngine()
    engine.solve(chain, bounds[0])  # warm NumPy + module imports
    engine.cache.clear()

    t0 = time.perf_counter()
    seed_weights = seed_sweep()
    seed_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    engine_weights = engine_sweep(engine)
    engine_s = time.perf_counter() - t0

    assert engine_weights == seed_weights
    speedup = seed_s / engine_s
    benchmark.extra_info["seed_s"] = round(seed_s, 3)
    benchmark.extra_info["engine_s"] = round(engine_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cache"] = engine.cache.stats
    assert speedup >= SPEEDUP_FLOOR, (
        f"engine sweep only {speedup:.2f}x faster "
        f"(seed {seed_s:.3f}s vs engine {engine_s:.3f}s)"
    )
    _snapshot_record("engine_sweep_100_bounds", engine_s, speedup=speedup)
    # Keep the benchmark column populated with the engine-side cost.
    benchmark(lambda: engine.solve(chain, bounds[-1]))


def test_compiled_plan_sweep_speedup(sweep_instance, benchmark):
    """The tentpole criterion: >= 10x through a warmed compiled plan.

    Cold = ``compile_chain`` + the first ``solve_bounds`` over all 100
    bounds (every stability interval built from scratch); warm = the
    same call again, served from the plan's structure memo.  Both are
    floored, both land in the ratchet snapshot, and the answers must be
    bit-identical to the seed loop's.
    """
    chain, bounds = sweep_instance

    engine = PartitionEngine()
    engine.solve(chain, bounds[0])  # warm NumPy + module imports

    t0 = time.perf_counter()
    seed_weights = [bandwidth_min(chain, b).weight for b in bounds]
    seed_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan = compile_chain(chain)
    cold_weights = plan.solve_bounds(bounds)
    cold_s = time.perf_counter() - t0

    warm_s = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        warm_weights = plan.solve_bounds(bounds)
        warm_s = min(warm_s, time.perf_counter() - t0)

    assert cold_weights.tolist() == seed_weights
    assert warm_weights.tolist() == seed_weights
    cold_speedup = seed_s / cold_s
    warm_speedup = seed_s / warm_s
    benchmark.extra_info["seed_s"] = round(seed_s, 3)
    benchmark.extra_info["plan_cold_s"] = round(cold_s, 3)
    benchmark.extra_info["plan_warm_s"] = round(warm_s, 6)
    benchmark.extra_info["cold_speedup"] = round(cold_speedup, 2)
    benchmark.extra_info["warm_speedup"] = round(warm_speedup, 2)
    assert warm_speedup >= PLAN_SPEEDUP_FLOOR, (
        f"warmed plan sweep only {warm_speedup:.2f}x faster "
        f"(seed {seed_s:.3f}s vs plan {warm_s:.6f}s)"
    )
    assert cold_speedup >= PLAN_COLD_FLOOR, (
        f"cold plan sweep only {cold_speedup:.2f}x faster "
        f"(seed {seed_s:.3f}s vs compile+sweep {cold_s:.3f}s)"
    )
    _snapshot_record(
        "plan_sweep_100_bounds_cold", cold_s, speedup=cold_speedup
    )
    _snapshot_record(
        "plan_sweep_100_bounds_warm", warm_s, speedup=warm_speedup
    )
    benchmark(lambda: plan.solve_bounds(bounds))


def test_single_query(benchmark):
    chain, bound = make_chain(N_TASKS, 4.0)
    reference = compile_chain(chain).solve_bounds([bound])[0]
    result = benchmark(bandwidth_min, chain, bound)
    assert result.weight == reference


def test_cached_repeat_bound(benchmark, sweep_instance):
    chain, bounds = sweep_instance
    engine = PartitionEngine()
    engine.solve(chain, bounds[0])  # prime the cache
    result = benchmark(engine.solve, chain, bounds[0])
    assert result.weight == bandwidth_min(chain, bounds[0]).weight
    assert engine.cache.stats.hits >= 1


def test_tracing_disabled_overhead(benchmark):
    """ISSUE acceptance criterion: < 5% overhead with tracing disabled.

    The instrumented public ``bandwidth_min`` (which threads
    ``tracer=``/span branches through validate → prime structure →
    sweep) races its untraced inner path, ``_bandwidth_min_impl``, on a
    cold 10k-task solve.  Min-of-reps timing so scheduler noise doesn't
    fail the build.
    """
    from repro.core.bandwidth import _bandwidth_min_impl

    chain, bound = make_chain(N_TASKS, 4.0)

    def instrumented():
        return bandwidth_min(chain, bound, tracer=None)

    def replica():
        return _bandwidth_min_impl(chain, bound, True, "binary", False, None)

    assert instrumented().weight == replica().weight  # and warm imports

    def trial(reps=11):
        """Interleaved min-of-reps ratio for one measurement block."""
        instrumented_s = replica_s = float("inf")
        for rep in range(reps):
            # Alternate order so frequency-scaling drift favors neither.
            pair = (instrumented, replica) if rep % 2 else (replica, instrumented)
            for fn in pair:
                elapsed = _timed(fn)
                if fn is instrumented:
                    instrumented_s = min(instrumented_s, elapsed)
                else:
                    replica_s = min(replica_s, elapsed)
        return instrumented_s, replica_s

    # Machine noise only ever *inflates* a ratio, so the min across
    # trials is the sound estimator of the real instrumentation cost.
    trials = [trial() for _ in range(3)]
    instrumented_s, replica_s = min(trials, key=lambda t: t[0] / t[1])
    overhead = instrumented_s / replica_s - 1.0
    benchmark.extra_info["instrumented_ms"] = round(instrumented_s * 1e3, 3)
    benchmark.extra_info["replica_ms"] = round(replica_s * 1e3, 3)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    assert overhead < 0.05, (
        f"disabled tracing costs {overhead * 100:.1f}% "
        f"({instrumented_s * 1e3:.2f}ms vs {replica_s * 1e3:.2f}ms)"
    )
    benchmark(instrumented)


def test_hub_overhead(benchmark):
    """ISSUE acceptance criterion: live-hub plumbing < 5% overhead.

    Two claims, both against a replica that calls the plan cache
    directly (the engine hot path without the hub plumbing):

    - **disabled** — the default engine's (``hub=None``) ``solve`` fast
      path costs nothing beyond two ``is None`` tests;
    - **enabled, no subscribers** — a live ``TelemetryHub([])`` pays for
      building the event dicts and fanning out to nobody, which must
      still disappear next to a 10k-task solve.

    Cache cleared inside every timed function (identically on all three
    legs) so each rep is a real cold solve, and interleaved min-of-reps
    timing as in :func:`test_tracing_disabled_overhead`.
    """
    from repro.observability import TelemetryHub

    chain, bound = make_chain(N_TASKS, 4.0)

    null_engine = PartitionEngine()
    live_engine = PartitionEngine(hub=TelemetryHub([]))
    replica_engine = PartitionEngine()

    def disabled():
        null_engine.cache.clear()
        return null_engine.solve(chain, bound)

    def enabled_no_subscribers():
        live_engine.cache.clear()
        return live_engine.solve(chain, bound)

    def replica():
        replica_engine.cache.clear()
        plan = replica_engine.cache.get(chain, metrics=replica_engine.metrics)
        return plan.solve_bounds([bound], return_cuts=True)[0][0]

    # Warm imports + assert the three legs agree before timing.
    assert disabled().weight == enabled_no_subscribers().weight == replica()
    # Then warm all three legs alike: in a fresh process (the test run
    # alone) the first few dozen solves are slower and spread wider, and
    # on a 2-vCPU VM that start-up tail alone pushed the live leg past
    # the bound in 6 of 24 lone runs, against 0 of 24 after 40 rounds.
    legs = [disabled, enabled_no_subscribers, replica]
    for _ in range(40):
        for fn in legs:
            fn()

    def trial(reps=11):
        best = {fn: float("inf") for fn in legs}
        for rep in range(reps):
            # Rotate order so frequency-scaling drift favors no leg.
            order = legs[rep % 3:] + legs[:rep % 3]
            for fn in order:
                best[fn] = min(best[fn], _timed(fn))
        return best[disabled], best[enabled_no_subscribers], best[replica]

    # Noise only inflates overhead; min across trials is the sound
    # estimator of the real plumbing cost.
    trials = [trial() for _ in range(3)]
    disabled_s, enabled_s, replica_s = min(
        trials, key=lambda t: (t[0] + t[1]) / t[2]
    )
    disabled_overhead = disabled_s / replica_s - 1.0
    enabled_overhead = enabled_s / replica_s - 1.0
    benchmark.extra_info["replica_ms"] = round(replica_s * 1e3, 3)
    benchmark.extra_info["disabled_pct"] = round(disabled_overhead * 100, 2)
    benchmark.extra_info["enabled_pct"] = round(enabled_overhead * 100, 2)
    assert disabled_overhead < 0.05, (
        f"hub-less engine costs {disabled_overhead * 100:.1f}% over the "
        f"direct cache path ({disabled_s * 1e3:.2f}ms vs {replica_s * 1e3:.2f}ms)"
    )
    assert enabled_overhead < 0.05, (
        f"subscriber-less hub costs {enabled_overhead * 100:.1f}% "
        f"({enabled_s * 1e3:.2f}ms vs {replica_s * 1e3:.2f}ms)"
    )
    # Ratcheted as replica/x ratios (~1.0): if hub plumbing ever grows
    # past ~25% overhead the ratio dips under the 20%-tolerance floor.
    _snapshot_record(
        "engine_hub_overhead",
        enabled_s,
        disabled_ratio=replica_s / disabled_s,
        enabled_ratio=replica_s / enabled_s,
    )
    benchmark(enabled_no_subscribers)


def test_lock_overhead(benchmark):
    """ISSUE acceptance criterion: shared-state locks < 5% single-threaded.

    ``PartitionEngine.solve`` looks its plan up under the plan cache's
    RLock and runs the memo miss under the plan's own.  Raced against
    the same engine path with both locks swapped for no-ops — a plan
    cache whose lock, and every plan it compiles, holds a
    ``nullcontext()`` — the lock acquisitions must disappear next to a
    10k-task solve.  Interleaved min-of-reps timing as in
    :func:`test_tracing_disabled_overhead`.
    """
    from contextlib import nullcontext

    from repro.engine.cache import PlanCache

    class LockFreePlans(PlanCache):
        def __init__(self):
            super().__init__()
            self._lock = nullcontext()

        def lookup(self, chain, **reporters):
            plan, hit = super().lookup(chain, **reporters)
            plan._lock = nullcontext()
            return plan, hit

    chain, bound = make_chain(N_TASKS, 4.0)
    engine = PartitionEngine()
    lock_free = PartitionEngine()
    lock_free.cache = LockFreePlans()

    def locked():
        engine.cache.clear()
        return engine.solve(chain, bound)

    def replica():
        lock_free.cache.clear()
        return lock_free.solve(chain, bound)

    assert locked().weight == replica().weight  # and warm imports

    def trial(reps=11):
        locked_s = replica_s = float("inf")
        for rep in range(reps):
            pair = (locked, replica) if rep % 2 else (replica, locked)
            for fn in pair:
                elapsed = _timed(fn)
                if fn is locked:
                    locked_s = min(locked_s, elapsed)
                else:
                    replica_s = min(replica_s, elapsed)
        return locked_s, replica_s

    # Noise only inflates the ratio; min across trials is the sound
    # estimator of the real locking cost.
    trials = [trial() for _ in range(3)]
    locked_s, replica_s = min(trials, key=lambda t: t[0] / t[1])
    overhead = locked_s / replica_s - 1.0
    benchmark.extra_info["locked_ms"] = round(locked_s * 1e3, 3)
    benchmark.extra_info["replica_ms"] = round(replica_s * 1e3, 3)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    assert overhead < 0.05, (
        f"shared-state locks cost {overhead * 100:.1f}% single-threaded "
        f"({locked_s * 1e3:.2f}ms vs {replica_s * 1e3:.2f}ms)"
    )
    # Ratcheted as a replica/locked ratio (~1.0), like the hub entry.
    _snapshot_record(
        "engine_lock_overhead", locked_s, lock_ratio=replica_s / locked_s
    )
    benchmark(locked)


def test_disabled_paths_allocation_free(benchmark):
    """The zero-overhead claims survive the locks at the allocator level.

    ``sys.getallocatedblocks()`` deltas over warm loops must stay at
    noise level for: the engine's guard (``if hub is not None:``) with
    no hub, and a locked ``Counter.inc`` (the RLock context manager
    allocates nothing).
    """
    import gc
    import sys as _sys

    from repro.observability.metrics import Counter

    hub = None
    counter = Counter("bench.lock")

    def guard_loop(n=20_000):
        for _ in range(n):
            if hub is not None:
                hub.publish({"kind": "event"})

    def inc_loop(n=20_000):
        for _ in range(n):
            counter.inc(1.0)

    for name, loop in (
        ("no-hub guard", guard_loop),
        ("locked Counter.inc", inc_loop),
    ):
        loop(1_000)  # warm caches/free-lists before measuring
        gc.collect()
        before = _sys.getallocatedblocks()
        loop()
        gc.collect()
        delta = _sys.getallocatedblocks() - before
        assert delta <= 8, (
            f"{name} leaked {delta} allocator blocks over 20k iterations"
        )
    benchmark(lambda: guard_loop(1_000))


#: Allocation budgets certified by :mod:`repro.verify.allocs`.  Roughly
#: 2-3x the worst observed footprint, so allocator drift across
#: interpreter versions stays inside the budget (ratio exactly 1.0) and
#: only a real per-iteration allocation regression trips the 20%
#: ratchet tolerance.
ALLOC_BUDGETS = {
    "disabled_guard": {"net_blocks": 8},
    "disabled_counter_inc": {"net_blocks": 8},
    "warm_plan_sweep": {"net_blocks": 8, "peak_bytes": 32_768},
    "prime_structure": {"net_blocks": 8, "peak_bytes": 65_536},
}


def test_allocation_budgets(benchmark):
    """Hot paths stay within the committed allocation budgets.

    The static pass (``repro analyze --hotpath``, REPRO016-019) claims
    the hot loops are allocation-hygienic; ``repro.verify.allocs``
    certifies it: the disabled-telemetry paths must retain zero net
    allocator blocks, and warm plan sweeps plus
    ``compute_prime_structure`` must stay within committed peak-byte
    budgets.  Ratcheted via :func:`ratchet_ratio` — 1.0 while within
    budget, decaying past the 20% tolerance once a path allocates more
    than 1.25x its budget.
    """
    from repro.verify.allocs import (
        AllocationHarness,
        certify_budgets,
        measure_disabled_telemetry,
        measure_prime_structure,
        measure_warm_plan_sweep,
        ratchet_ratio,
    )

    telemetry = AllocationHarness(warmup=1_000, iterations=20_000, repeats=3)
    workload = AllocationHarness(warmup=4, iterations=32, repeats=2)

    t0 = time.perf_counter()
    disabled = measure_disabled_telemetry(telemetry)
    telemetry_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = measure_warm_plan_sweep(workload, tasks=256, queries=16)
    warm_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    prime = measure_prime_structure(workload, tasks=128)
    prime_s = time.perf_counter() - t0

    measured = {
        "disabled_guard": disabled["guard"],
        "disabled_counter_inc": disabled["counter_inc"],
        "warm_plan_sweep": warm,
        "prime_structure": prime,
    }
    certify_budgets(measured, ALLOC_BUDGETS)
    for scenario, footprint in measured.items():
        benchmark.extra_info[scenario] = footprint

    blocks = ALLOC_BUDGETS["disabled_guard"]["net_blocks"]
    _snapshot_record(
        "engine_alloc_disabled",
        telemetry_s,
        guard_ratio=ratchet_ratio(disabled["guard"]["net_blocks"], blocks),
        counter_inc_ratio=ratchet_ratio(
            disabled["counter_inc"]["net_blocks"], blocks
        ),
    )
    _snapshot_record(
        "engine_alloc_warm_sweep",
        warm_s,
        blocks_ratio=ratchet_ratio(
            warm["net_blocks"], ALLOC_BUDGETS["warm_plan_sweep"]["net_blocks"]
        ),
        peak_ratio=ratchet_ratio(
            warm["peak_bytes"], ALLOC_BUDGETS["warm_plan_sweep"]["peak_bytes"]
        ),
    )
    _snapshot_record(
        "engine_alloc_prime_structure",
        prime_s,
        blocks_ratio=ratchet_ratio(
            prime["net_blocks"],
            ALLOC_BUDGETS["prime_structure"]["net_blocks"],
        ),
        peak_ratio=ratchet_ratio(
            prime["peak_bytes"],
            ALLOC_BUDGETS["prime_structure"]["peak_bytes"],
        ),
    )

    quick = AllocationHarness(warmup=10, iterations=100, repeats=1)
    benchmark(lambda: measure_disabled_telemetry(quick))


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_batch_throughput(benchmark):
    queries = []
    for i in range(24):
        chain, bound = make_chain(2_000, 1.5 + (i % 6), rep=i)
        queries.append(PartitionQuery.from_chain(chain, bound, tag=str(i)))
    engine = PartitionEngine(max_workers=2)
    serial = PartitionEngine().solve_many(queries, max_workers=0)

    results = benchmark(engine.solve_many, queries)
    assert [r.tag for r in results] == [q.tag for q in queries]
    assert [(r.cut_indices, r.weight) for r in results] == [
        (r.cut_indices, r.weight) for r in serial
    ]
    benchmark.extra_info["queries"] = len(queries)


def test_batch_grid_speedup(benchmark):
    """A bound grid through one ``solve_many`` vs per-query solves.

    96 queries: four 20k-task chains, each with the same 24 bounds, the
    queries of a chain sharing one ``(alpha, beta)`` tuple pair, the
    chains interleaved.  Both legs run on one engine whose plans and
    structure memos the first batch filled, so what is left is the
    per-query work around the plan: building and fingerprinting a
    ``Chain`` per query on the loop, grouping on the batch.  Interleaved
    min-of-reps timing as in :func:`test_tracing_disabled_overhead`.
    """
    queries = []
    for rep in range(4):
        chain, _ = make_chain(20_000, 4.0, rep=rep)
        alpha, beta = tuple(chain.alpha), tuple(chain.beta)
        wmax = chain.max_vertex_weight()
        queries += [PartitionQuery(alpha, beta, wmax * (2.0 + 0.25 * i))
                    for i in range(24)]
    queries = [queries[(5 * i) % len(queries)] for i in range(len(queries))]
    engine = PartitionEngine()
    expected = [(r.cut_indices, r.weight)
                for r in engine.solve_many(queries, max_workers=0)]

    def per_query():
        return [engine.solve(Chain(q.alpha, q.beta), q.bound) for q in queries]

    def batched():
        return engine.solve_many(queries, max_workers=0)

    assert [(r.cut_indices, r.weight) for r in per_query()] == expected
    loop_s = batch_s = float("inf")
    for rep in range(10):
        pair = (per_query, batched) if rep % 2 else (batched, per_query)
        for fn in pair:
            elapsed = _timed(fn)
            if fn is per_query:
                loop_s = min(loop_s, elapsed)
            else:
                batch_s = min(batch_s, elapsed)
    assert [(r.cut_indices, r.weight) for r in batched()] == expected
    speedup = loop_s / batch_s
    benchmark.extra_info["per_query_ms"] = round(loop_s * 1e3, 3)
    benchmark.extra_info["solve_many_ms"] = round(batch_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= BATCH_GRID_FLOOR, (
        f"bound-grid solve_many only {speedup:.2f}x faster than per-query "
        f"solves ({loop_s * 1e3:.1f}ms vs {batch_s * 1e3:.1f}ms)"
    )
    _snapshot_record("engine_batch_grid", batch_s, speedup=speedup)
    benchmark(batched)


def test_lexicographic_speedup(sweep_instance, benchmark):
    """``bottleneck+bandwidth`` through the engine vs the reference.

    Both find ``B*`` with Algorithm 2.1 and then run Algorithm 4.1 on
    the chain with every edge heavier than ``B*`` forbidden; the engine
    runs the second step as one structure build.  Interleaved
    min-of-reps timing as in :func:`test_batch_grid_speedup`.
    """
    chain, bounds = sweep_instance
    bound = bounds[len(bounds) // 4]
    engine = PartitionEngine()

    def reference():
        return lexicographic_chain_partition(chain, bound).cut

    def solved():
        return engine.solve(chain, bound, "bottleneck+bandwidth")

    want, got = reference(), solved()
    assert (got.cut_indices, got.weight.hex()) == (
        want.cut_indices, want.weight.hex()
    )
    ref_s = engine_s = float("inf")
    for rep in range(6):
        pair = (reference, solved) if rep % 2 else (solved, reference)
        for fn in pair:
            elapsed = _timed(fn)
            if fn is reference:
                ref_s = min(ref_s, elapsed)
            else:
                engine_s = min(engine_s, elapsed)
    speedup = ref_s / engine_s
    benchmark.extra_info["reference_ms"] = round(ref_s * 1e3, 3)
    benchmark.extra_info["engine_ms"] = round(engine_s * 1e3, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= LEXICOGRAPHIC_FLOOR, (
        f"engine bottleneck+bandwidth only {speedup:.2f}x faster than the "
        f"reference ({engine_s * 1e3:.1f}ms vs {ref_s * 1e3:.1f}ms)"
    )
    _snapshot_record("engine_lexicographic", engine_s, speedup=speedup)
    benchmark(solved)
