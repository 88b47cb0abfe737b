"""The engine under 8 racing threads and under injected faults.

The race tests drive the declared shared state (``PlanCache`` and the
plans' stability-interval memos) from 8 threads through
:func:`tests.conftest.hammer` and audit the end state with exact
invariants: no lost stat updates, no torn LRU accounting, and every
served answer equal to the serial reference and certified by
``check_chain_partition``.  They are the dynamic side of REPRO013.

The fault tests patch one acquire or kernel call at a time to raise,
assert the patched site was reached, and then certify recovery: every
engine lock free from another thread, no half-built plan cached, and
the canonical query re-solved bit-identically.  Only typed failures
become per-query errors in a batch; an untyped fault propagates out of
``solve_many``.
"""

import multiprocessing
import random
import threading

import pytest

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import PartitioningError
from repro.engine import PartitionEngine, PartitionQuery
from repro.engine import batch as batch_module
from repro.engine.cache import PlanCache
from repro.graphs.chain import Chain
from repro.verify.certificates import check_chain_partition
from tests.conftest import (
    CANONICAL_BOUND,
    InjectedFault,
    assert_recovers,
    canonical_chain,
    hammer,
    lock_released,
    raise_on_first_call,
)

THREADS = 8
OPS_PER_THREAD = 100
TOTAL_OPS = THREADS * OPS_PER_THREAD
SEED = 20260808


def _make_chains(rng, count, n):
    return [
        Chain(
            alpha=[rng.randint(1, 9) for _ in range(n)],
            beta=[rng.randint(1, 5) for _ in range(n - 1)],
        )
        for _ in range(count)
    ]


class TestRaces:
    def test_engine_solve(self):
        """Hammer one shared ``PartitionEngine.solve`` and certify every
        answer; then rerun on an engine whose plan cache holds half the
        chains, so plans are evicted while other threads solve on them."""
        rng = random.Random(f"{SEED}-queries")
        pool = _make_chains(rng, 4, 60)
        queries = []
        for chain in pool:
            alpha_max = int(chain.max_vertex_weight())
            for _ in range(6):
                queries.append((chain, float(rng.randint(alpha_max, 4 * alpha_max))))
        reference = [
            bandwidth_min(chain, bound, apply_reduction=True)
            for chain, bound in queries
        ]

        def run(engine):
            mistakes = []

            def op(tid, i, op_rng):
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

            hammer(op, threads=THREADS, ops_per_thread=OPS_PER_THREAD, seed=SEED)
            assert not mistakes, "\n".join(mistakes[:5])
            cache = engine.cache
            stats = cache.stats
            # No lost stat updates, no torn plan-LRU accounting.
            assert stats.lookups == TOTAL_OPS, stats
            assert stats.misses - stats.evictions == len(cache) <= cache.max_plans, stats
            return cache

        # Phase 1: every chain keeps its plan, so all threads race on
        # the same few memos.
        cache = run(PartitionEngine())
        plans = list(cache._plans.values())
        assert len(plans) == len(pool), cache.stats
        assert sum(plan.stats.lookups for plan in plans) == TOTAL_OPS
        for plan in plans:
            memo = plan.stats
            assert len(plan) <= min(plan.max_structures, memo.misses), memo
            # Torn memo index: the sorted start index must match.
            assert len(plan._starts) == len(plan), memo
            # Without evictions each miss memoizes a new start, so a
            # duplicated build means two threads both missed on one
            # bound outside the memo lock.
            assert memo.evictions > 0 or memo.misses == len(plan), memo
        # Phase 2: half the pool fits, so plans are evicted mid-solve.
        evicting = PartitionEngine()
        evicting.cache.max_plans = 2
        run(evicting)

    def test_plan_cache(self):
        """``PlanCache.get`` under eviction pressure: every plan is the
        requested chain's, the LRU accounting holds, and each surviving
        plan still answers like the pure reference."""
        rng = random.Random(f"{SEED}-plans")
        pool = _make_chains(rng, 8, 40)
        fingerprints = [chain.fingerprint() for chain in pool]
        cache = PlanCache(max_plans=4)
        mismatches = []

        def op(tid, i, op_rng):
            c = op_rng.randrange(len(pool))
            plan = cache.get(pool[c])
            if plan.fingerprint != fingerprints[c]:
                mismatches.append(
                    f"asked for chain {c}, got plan for {plan.fingerprint[:12]}"
                )

        hammer(op, threads=THREADS, ops_per_thread=OPS_PER_THREAD, seed=SEED)
        assert not mismatches, "\n".join(mismatches[:5])
        stats = cache.stats
        assert stats.lookups == TOTAL_OPS, stats
        assert len(cache) <= cache.max_plans
        assert stats.misses - stats.evictions == len(cache), stats
        validated = 0
        for chain in pool:
            plan = cache._plans.get(chain.fingerprint())
            if plan is None:
                continue
            bound = float(2 * chain.max_vertex_weight())
            expected = bandwidth_min(chain, bound, apply_reduction=True)
            assert float(plan.solve_bounds([bound])[0]) == expected.weight
            validated += 1
        assert validated >= 1


def _engine_locks_released(engine):
    """The plan-cache lock and every cached plan's memo lock are free."""
    locks = [engine.cache._lock]
    locks.extend(plan._lock for plan in engine.cache._plans.values())
    return all(lock_released(lock) for lock in locks)


def _kernel_fault_recovers(monkeypatch, module, site):
    """Fault ``<module>.<site>``, which a solve calls under the plan's
    memo lock; every engine lock must come free and the memo stay
    clean."""
    calls = []
    monkeypatch.setattr(
        module, site, raise_on_first_call(getattr(module, site), calls)
    )
    engine = PartitionEngine()
    with pytest.raises(InjectedFault):
        engine.solve(canonical_chain(), CANONICAL_BOUND)
    assert calls
    assert _engine_locks_released(engine)
    monkeypatch.undo()
    assert_recovers(engine)


class TestFaults:
    def test_structure_build_fault_recovers(self, monkeypatch):
        # The plan's one kernel call: structure build and sweep.
        import repro.engine.plan as plan_mod

        _kernel_fault_recovers(monkeypatch, plan_mod, "structure_sweep")

    def test_sweep_kernel_fault_recovers(self, monkeypatch):
        # The TEMP_S sweep inside the NumPy structure build.
        from repro.engine import kernels, native

        monkeypatch.setattr(native, "load_sweep", lambda: None)
        _kernel_fault_recovers(monkeypatch, kernels, "temps_sweep")

    def test_plan_compile_fault_caches_nothing(self, monkeypatch):
        """``PlanCache.get`` compiles under its lock: a raising compile
        must release the lock and must not cache a half-built plan."""
        import repro.engine.cache as cache_mod

        calls = []
        monkeypatch.setattr(
            cache_mod, "compile_chain",
            raise_on_first_call(cache_mod.compile_chain, calls),
        )
        engine = PartitionEngine()
        chain = canonical_chain()
        bounds = [CANONICAL_BOUND, CANONICAL_BOUND + 8.0]
        with pytest.raises(InjectedFault):
            engine.solve_sweep(chain, bounds)
        monkeypatch.undo()
        assert calls
        assert lock_released(engine.plans._lock)
        assert len(engine.plans) == 0
        # A clean compile now succeeds and agrees with per-query solves.
        weights = engine.plans.get(chain).solve_bounds(bounds)
        for bound, weight in zip(bounds, weights):
            assert float(weight) == float(engine.solve(chain, bound).weight)
        assert_recovers(engine)

    def test_batch_query_fault_lands_on_one_query(self, monkeypatch):
        """A failing query yields a per-query error while every other
        query solves.  The queries share one chain, so the fault first
        fails the group's one plan call; the group is then re-run one
        query per plan call, and only query 1's call fails."""
        chain = canonical_chain()
        queries = [
            PartitionQuery.from_chain(chain, CANONICAL_BOUND + 4.0 * i, tag=f"q{i}")
            for i in range(4)
        ]
        poisoned = queries[1].bound
        real = PartitionEngine._plan_solve
        calls = []

        def failing_plan_call(engine, chain, bounds, *args, **kwargs):
            calls.append(bounds)
            if poisoned in bounds:
                raise PartitioningError("injected per-query fault")
            return real(engine, chain, bounds, *args, **kwargs)

        engine = PartitionEngine()
        with monkeypatch.context() as patch:
            patch.setattr(PartitionEngine, "_plan_solve", failing_plan_call)
            faulted = engine.solve_many(queries, max_workers=0)
        assert calls
        assert [r.index for r in faulted if r.error is not None] == [1]
        clean = engine.solve_many(queries, max_workers=0)
        reference = PartitionEngine().solve_many(queries, max_workers=0)
        for after, ref in zip(clean, reference):
            assert after.error is None
            assert (after.weight, after.cut_indices) == (ref.weight, ref.cut_indices)
        assert_recovers(engine)

    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize(
        "owner, site, objective",
        [
            (PartitionEngine, "solve_sweep", "bandwidth"),
            (PartitionEngine, "_solve", "bottleneck"),
            (batch_module, "Chain", "bandwidth"),
        ],
        ids=["group_sweep", "one_query", "chain_build"],
    )
    def test_untyped_fault_propagates_out_of_solve_many(
        self, monkeypatch, owner, site, objective, workers
    ):
        """``solve_many`` turns only ``PartitioningError`` and
        ``ValueError`` into per-query errors.  An untyped fault at any
        capture site propagates: the group sweep ``_sweep`` wraps, the
        one-query solve ``_attempt`` wraps (every non-bandwidth query
        goes there), and a group's ``Chain`` build.  Two chains, so
        ``workers=2`` runs a pool, whose forked workers inherit the
        patch."""
        if workers and multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the patch only when forked")
        chain = canonical_chain()
        other = Chain(list(chain.alpha)[::-1], list(chain.beta)[::-1])
        queries = [
            PartitionQuery.from_chain(c, CANONICAL_BOUND + 4.0 * i, objective)
            for c in (chain, other)
            for i in range(2)
        ]
        calls = []
        monkeypatch.setattr(
            owner, site, raise_on_first_call(getattr(owner, site), calls)
        )
        engine = PartitionEngine()
        with pytest.raises(InjectedFault):
            engine.solve_many(queries, max_workers=workers)
        # Pool workers record their calls in their own processes.
        assert calls or workers
        monkeypatch.undo()
        assert_recovers(engine)


class TestLockProbe:
    def test_free_lock_reports_released(self):
        assert lock_released(threading.Lock())
        assert lock_released(threading.RLock())

    def test_held_lock_reports_held(self):
        lock = threading.Lock()
        lock.acquire()
        try:
            assert not lock_released(lock, timeout=0.2)
        finally:
            lock.release()

    def test_rlock_held_by_this_thread_reports_held(self):
        """The probe runs from another thread on purpose: a same-thread
        ``RLock.acquire`` would succeed reentrantly and lie."""
        lock = threading.RLock()
        with lock:
            assert not lock_released(lock, timeout=0.2)
        assert lock_released(lock)


class TestCanonicalQuery:
    def test_chain_is_deterministic(self):
        a, b = canonical_chain(), canonical_chain()
        assert list(a.alpha) == list(b.alpha)
        assert list(a.beta) == list(b.beta)
        assert len(a.alpha) == 60

    def test_canonical_query_is_feasible(self):
        result = PartitionEngine().solve(canonical_chain(), CANONICAL_BOUND)
        assert result.weight <= CANONICAL_BOUND
