"""Unit tests for compiled chain plans and their engine wiring.

A :class:`~repro.engine.plan.CompiledChainPlan` is an optimization, not
an alternative algorithm, so the contract throughout is exact equality
with per-call :func:`repro.core.bandwidth.bandwidth_min` — the same
floats and the same cut lists, never approximations.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.core.prime_subpaths import PrimeStructure
from repro.engine import PartitionEngine, PlanCache, compile_chain
from repro.engine.kernels import structure_sweep
from repro.engine.plan import CompiledChainPlan
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain
from repro.observability import (
    MetricsRegistry,
    RingBufferSubscriber,
    TelemetryHub,
    Tracer,
)


def bounds_for(chain, count=12, seed=0):
    """Unsorted, duplicate-heavy feasible bounds including K = max alpha."""
    import random

    rng = random.Random(seed)
    wmax = chain.max_vertex_weight()
    ks = [wmax * (1.0 + 3.0 * rng.random()) for _ in range(count - 3)]
    ks += [float(wmax), ks[0], float(wmax)]  # tight bound + duplicates
    rng.shuffle(ks)
    return ks


class TestCompile:
    def test_basics(self):
        chain = random_chain(40, rng=1)
        plan = compile_chain(chain)
        assert isinstance(plan, CompiledChainPlan)
        assert plan.fingerprint == chain.fingerprint()
        assert len(plan) == 0  # nothing built until queried
        assert "CompiledChainPlan" in repr(plan)

    def test_compile_counter_and_span(self):
        # Compiles are the engine's to report: a plan-cache miss in the
        # registry and a plan_compile span around the compiling lookup.
        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        chain = random_chain(10, rng=3)
        engine.solve(chain, 2.0 * chain.max_vertex_weight())
        engine.solve(chain, 3.0 * chain.max_vertex_weight())
        assert engine.metrics.counter("engine.plan.cache.misses").value == 1
        assert engine.metrics.counter("engine.plan.cache.hits").value == 1
        compiles = [s for s in tracer.iter_spans() if s.name == "plan_compile"]
        assert len(compiles) == 1
        assert compiles[0].attrs == {"n": 10}


class TestSolveBounds:
    def test_matches_per_call_solves(self):
        chain = random_chain(120, rng=4)
        ks = bounds_for(chain)
        weights = compile_chain(chain).solve_bounds(ks)
        assert len(weights) == len(ks)
        for k, weight in zip(ks, weights):
            assert weight == bandwidth_min(chain, k).weight

    def test_return_cuts_matches_per_call(self):
        chain = random_chain(90, rng=5)
        ks = bounds_for(chain, seed=5)
        weights, cuts = compile_chain(chain).solve_bounds(ks, return_cuts=True)
        for k, weight, cut in zip(ks, weights, cuts):
            ref = bandwidth_min(chain, k)
            assert cut == list(ref.cut_indices)
            assert weight == ref.weight

    def test_cut_lists_are_fresh(self):
        chain = random_chain(30, rng=6)
        bound = 2.0 * chain.max_vertex_weight()
        _, cuts = compile_chain(chain).solve_bounds(
            [bound, bound], return_cuts=True
        )
        cuts[0].append(-1)
        assert cuts[1] == cuts[0][:-1]  # sibling entry unharmed

    def test_singleton_chain(self):
        plan = compile_chain(Chain([5.0], []))
        weights, cuts = plan.solve_bounds([5.0, 7.5], return_cuts=True)
        assert weights.tolist() == [0.0, 0.0]
        assert cuts == [[], []]

    def test_numpy_input_accepted(self):
        chain = random_chain(25, rng=7)
        ks = np.asarray(bounds_for(chain, count=6, seed=7))
        weights = compile_chain(chain).solve_bounds(ks)
        assert weights.tolist() == [
            bandwidth_min(chain, float(k)).weight for k in ks
        ]

    def test_input_validation(self):
        plan = compile_chain(random_chain(10, rng=8))
        with pytest.raises(ValueError, match="at least one"):
            plan.solve_bounds([])
        with pytest.raises(ValueError, match="one-dimensional"):
            plan.solve_bounds([[2.0, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            plan.solve_bounds([2.0, float("inf")])
        with pytest.raises(ValueError, match="finite"):
            plan.solve_bounds([float("nan")])

    def test_infeasible_bound_raises(self):
        chain = random_chain(10, rng=9)
        plan = compile_chain(chain)
        feasible = 2.0 * chain.max_vertex_weight()
        with pytest.raises(InfeasibleBoundError):
            plan.solve_bounds([feasible, 0.5 * chain.max_vertex_weight()])

    def test_structures_memoized_across_calls(self):
        chain = random_chain(60, rng=10)
        plan = compile_chain(chain)
        bound = 2.0 * chain.max_vertex_weight()
        plan.solve_bounds([bound])
        assert (plan.stats.built, plan.stats.reused) == (1, 0)
        plan.solve_bounds([bound, bound])
        assert (plan.stats.built, plan.stats.reused) == (1, 1)
        assert plan.stats.queries == 3
        assert plan.stats.sweeps == 2

    def test_stability_interval_end_is_not_covered(self, small_chain):
        # At K=12 the smallest prime weighs 13, so the structure built
        # at 12 is valid on [12, 13).  K=13 drops that prime and the
        # optimum falls from 3 to 1: a later call at 13 must not reuse
        # the remembered structure.
        plan = compile_chain(small_chain)
        assert plan.solve_bounds([12.0]).tolist() == [3.0]
        frozen = plan._lookup(12.0)
        assert (frozen.valid_from, frozen.valid_until) == (12.0, 13.0)
        assert frozen.covers(12.5)
        assert not frozen.covers(13.0)
        assert plan._lookup(13.0) is None
        assert plan.solve_bounds([13.0]).tolist() == [1.0]
        assert plan.stats.built == 2

    def test_group_stops_before_interval_end(self):
        # One call with K and the end of K's stability interval: the
        # end opens a new group instead of taking K's answer.
        for seed in range(6):
            chain = random_chain(30, rng=seed, integer_weights=True)
            bound = 2.0 * chain.max_vertex_weight()
            end = PrimeStructure.compute(chain, bound).min_prime_weight()
            weights, cuts = compile_chain(chain).solve_bounds(
                [bound, end], return_cuts=True
            )
            for k, weight, cut in zip((bound, end), weights, cuts):
                ref = bandwidth_min(chain, k)
                assert (weight, cut) == (ref.weight, list(ref.cut_indices))

    def test_lookup_survives_descending_insertion_order(self):
        # Structures remembered high-bound-first must still be found by
        # the bisect lookup: _starts has to stay sorted even when the
        # memo's insertion order is not.
        chain = random_chain(60, rng=11)
        plan = compile_chain(chain)
        wmax = chain.max_vertex_weight()
        plan.solve_bounds([6.0 * wmax])
        plan.solve_bounds([wmax])
        assert plan.stats.built == 2
        weights = plan.solve_bounds([wmax, 6.0 * wmax])
        assert plan.stats.built == 2
        assert plan.stats.reused == 2
        assert weights[0] == bandwidth_min(chain, wmax).weight
        assert weights[1] == bandwidth_min(chain, 6.0 * wmax).weight

    def test_build_arrays_handles_primeless_bounds(self, monkeypatch):
        # Pin both builds' empty (no prime subpaths) result: no cut,
        # zero weight, and a stability interval with no end.
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        chain = random_chain(20, rng=12)
        bound = 2.0 * float(np.sum(chain.alpha))
        plan = compile_chain(chain)
        cut, weight, p, r, valid_until = structure_sweep(
            plan._prefix, plan._beta, bound, True)
        assert (cut, weight, p, r) == ([], 0.0, 0, 0)
        assert valid_until == float("inf")
        weights, cuts = plan.solve_bounds([bound], return_cuts=True)
        assert (weights.tolist(), cuts) == ([0.0], [[]])
        weight_only = compile_chain(chain)
        assert weight_only.solve_bounds([bound]).tolist() == [0.0]
        frozen = weight_only._lookup(bound)
        assert (frozen.cut, frozen.p, frozen.r) == ([], 0, 0)

    def test_cut_miss_builds_once(self, monkeypatch):
        # A miss that needs cuts builds the cut-capable structure once
        # and takes its weight from the full sweep: no weight-only build
        # followed by a second build for the cut.
        chain = random_chain(50, rng=15)
        bound = 2.0 * chain.max_vertex_weight()
        plan = compile_chain(chain)
        builds = []
        real_build = type(plan)._build

        def counting_build(self, k, with_cut):
            builds.append((k, with_cut))
            return real_build(self, k, with_cut)

        monkeypatch.setattr(type(plan), "_build", counting_build)
        weights, cuts = plan.solve_bounds([bound, bound], return_cuts=True)
        ref = bandwidth_min(chain, bound)
        assert weights.tolist() == [ref.weight] * 2
        assert cuts == [list(ref.cut_indices)] * 2
        assert builds == [(bound, True)]
        assert plan._lookup(bound).cut == list(ref.cut_indices)
        assert plan.stats.lookups == 2 and plan.stats.misses == 1

    def test_lazy_cut_after_weight_only_build(self, monkeypatch):
        # A weight-only build leaves the cut for later; asking for it
        # rebuilds once and memoizes the identical answer.  (Verification
        # mode wants every cut up front, so it is switched off here.)
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        chain = random_chain(50, rng=16)
        bound = 2.0 * chain.max_vertex_weight()
        plan = compile_chain(chain)
        (weight,) = plan.solve_bounds([bound]).tolist()
        frozen = plan._lookup(bound)
        assert frozen.cut is None
        weights, cuts = plan.solve_bounds([bound], return_cuts=True)
        ref = bandwidth_min(chain, bound)
        assert (weight, weights.tolist(), cuts) == (
            ref.weight, [ref.weight], [list(ref.cut_indices)],
        )
        assert frozen.cut == list(ref.cut_indices)
        assert (plan.stats.hits, plan.stats.misses) == (1, 1)

    def test_memo_is_locked(self, monkeypatch):
        from repro.verify.markers import SHARED_STATE

        # The memo is declared shared state: solve_bounds reads and
        # mutates it only while holding the plan's own lock.
        chain = random_chain(30, rng=17)
        plan = compile_chain(chain)
        owned = []
        real_lookup = type(plan)._lookup

        def probing_lookup(self, bound):
            owned.append(self._lock._is_owned())
            return real_lookup(self, bound)

        monkeypatch.setattr(type(plan), "_lookup", probing_lookup)
        plan.solve_bounds([2.0 * chain.max_vertex_weight()])
        assert SHARED_STATE["repro.engine.plan.CompiledChainPlan"] == "_lock"
        assert owned == [True]
        assert not plan._lock._is_owned()

    def test_memo_eviction_keeps_answers_exact(self):
        chain = random_chain(80, rng=11)
        plan = compile_chain(chain, max_structures=2)
        ks = bounds_for(chain, count=16, seed=11)
        weights = plan.solve_bounds(ks)
        assert len(plan) <= 2
        for k, weight in zip(ks, weights):
            assert weight == bandwidth_min(chain, k).weight

    def test_memo_accounting_and_span_counts(self):
        # Per-query accounting: the building query is the miss, a repeat
        # of its bound an exact hit, any other bound inside its interval
        # an interval hit — on the plan's stats and the span's counts.
        from repro.core.prime_subpaths import compute_prime_structure
        from repro.engine.plan import CacheStats

        chain = random_chain(40, rng=18)
        bound = 1.5 * chain.max_vertex_weight()
        inside = (bound + compute_prime_structure(chain, bound).min_prime_weight()) / 2
        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        engine.solve_sweep(chain, [inside, bound, bound])
        plan = engine.plans.get(chain)
        assert plan.stats == CacheStats(hits=1, interval_hits=1, misses=1)
        assert plan.stats.lookups == 3
        assert plan.stats.hit_rate == 2 / 3
        (record,) = [r for r in tracer.records() if r["name"] == "plan_solve_bounds"]
        assert record["attrs"]["outcome"] == "miss"
        assert record["counts"] == {
            "cache_hits": 1, "cache_interval_hits": 1, "cache_misses": 1,
        }

    def test_traced_sweep_records_span(self):
        chain = random_chain(30, rng=12)
        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        ks = bounds_for(chain, count=5, seed=12)
        weights = engine.solve_sweep(chain, ks)
        span = tracer.find("plan_solve_bounds")
        assert span is not None
        plan = engine.plans.get(chain)
        assert span.attrs == {
            "n": 30,
            "queries": 5,
            "structures_built": plan.stats.built,
            "structures_reused": plan.stats.reused,
            "outcome": "miss",
        }
        assert plan.stats.built >= 1
        assert weights.tolist() == [bandwidth_min(chain, k).weight for k in ks]

    def test_verify_mode_certifies_every_answer(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        chain = random_chain(40, rng=13)
        ks = bounds_for(chain, count=6, seed=13)
        weights = compile_chain(chain).solve_bounds(ks)
        for k, weight in zip(ks, weights):
            assert weight == bandwidth_min(chain, k).weight

    def test_verify_mode_rejects_corrupted_structure(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        from repro.verify import VerificationError

        chain = random_chain(40, rng=14)
        plan = compile_chain(chain)
        bound = 2.0 * chain.max_vertex_weight()
        plan.solve_bounds([bound])  # build honestly, then corrupt the memo
        frozen = next(iter(plan._memo.values()))
        frozen.weight += 1.0
        with pytest.raises(VerificationError):
            plan.solve_bounds([bound])


class TestPlanCache:
    def test_hit_miss_eviction(self):
        cache = PlanCache(max_plans=2)
        chains = [random_chain(20, rng=30 + i) for i in range(3)]
        first = cache.get(chains[0])
        assert cache.get(chains[0]) is first
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        cache.get(chains[1])
        cache.get(chains[2])  # evicts chains[0]
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.get(chains[0]) is not first
        cache.clear()
        assert len(cache) == 0

    def test_only_compiles_and_evictions_report(self):
        # A miss folds one cache event into the caller's registry; a hit
        # reports nothing and leaves the shared plan untouched.
        cache = PlanCache(max_plans=1)
        chain, other = random_chain(15, rng=33), random_chain(15, rng=34)
        metrics = MetricsRegistry()
        plan = cache.get(chain, metrics=metrics)
        assert metrics.gauge("engine.plan.cache.plans").value == 1
        assert metrics.gauge("engine.plan.cache.occupancy").value == 1.0
        quiet = MetricsRegistry()
        assert cache.get(chain, metrics=quiet) is plan
        assert len(quiet) == 0
        cache.get(other, metrics=metrics)
        assert metrics.counter("engine.plan.cache.evictions").value == 1
        assert chain not in cache and other in cache


class TestEngineSolveSweep:
    def test_matches_per_call_and_counts_cache(self):
        engine = PartitionEngine()
        chain = random_chain(70, rng=40)
        ks = bounds_for(chain, seed=40)
        weights, cuts = engine.solve_sweep(chain, ks, return_cuts=True)
        for k, weight, cut in zip(ks, weights, cuts):
            ref = bandwidth_min(chain, k)
            assert (cut, weight) == (list(ref.cut_indices), ref.weight)
        engine.solve_sweep(chain, ks[:3])
        assert engine.plans.stats.misses == 1
        assert engine.plans.stats.hits == 1

    def test_one_plan_event_per_plan_call(self):
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        chain = random_chain(20, rng=43)
        wmax = chain.max_vertex_weight()
        engine.solve_sweep(chain, [2.0 * wmax, 2.0 * wmax, 3.0 * wmax])
        engine.solve(chain, 2.0 * wmax)
        plans = [e for e in ring.events() if e["event"] == "plan"]
        assert [(e["cache"], e["queries"], e["outcome"]) for e in plans] == [
            ("miss", 3, "miss"), ("hit", 1, "hit"),
        ]
        stats = engine.plans.get(chain).stats
        assert sum(e["structures_built"] for e in plans) == stats.built
        assert sum(e["structures_reused"] for e in plans) == stats.reused
        counter = engine.metrics.counter
        assert counter("engine.plan.sweeps").value == 2
        assert counter("engine.plan.queries").value == 4
        assert counter("engine.plan.structures.built").value == stats.built
        assert counter("engine.plan.structures.reused").value == stats.reused

    def test_null_hub_solve_reports_plan_event_to_registry(self):
        engine = PartitionEngine()
        chain = random_chain(20, rng=44)
        engine.solve(chain, 2.0 * chain.max_vertex_weight())
        engine.solve(chain, 2.0 * chain.max_vertex_weight())
        counter = engine.metrics.counter
        assert counter("engine.plan.structures.built").value == 1
        assert counter("engine.plan.structures.reused").value == 1
        assert counter("engine.plan.cache.hits").value == 1
        assert "engine.queries" not in engine.metrics.counters

    def test_snapshot_metrics_exports_plan_gauges(self):
        engine = PartitionEngine()
        chain = random_chain(20, rng=42)
        engine.solve_sweep(chain, bounds_for(chain, count=4, seed=42))
        metrics = engine.metrics
        names = {r["name"] for r in metrics.records()}
        assert "engine.plan.cache.misses" in names
        assert "engine.plan.cache.plans" in names
        assert metrics.gauge("engine.plan.cache.plans").value == 1
