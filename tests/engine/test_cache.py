"""Unit tests for the engine's one cache and the plan's stability-interval
memo: fingerprint sharing, exact/interval hit accounting, eviction and
the traced ``outcome``."""

import pytest

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.engine import PartitionEngine, native
from repro.engine.cache import PlanCache
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain


class TestFingerprint:
    def test_equal_chains_share_fingerprint(self):
        a = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        b = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_weights_differ(self):
        a = Chain([1.0, 2.0], [4.0])
        assert a.fingerprint() != Chain([1.0, 2.5], [4.0]).fingerprint()
        assert a.fingerprint() != Chain([1.0, 2.0], [4.5]).fingerprint()

    def test_alpha_beta_boundary_is_unambiguous(self):
        # Same multiset of floats, different alpha/beta split.
        a = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        b = Chain([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0])
        assert a.fingerprint() != b.fingerprint()

    def test_cached(self):
        chain = random_chain(100, rng=0)
        assert chain.fingerprint() is chain.fingerprint()


@pytest.fixture(params=["python", "numpy"])
def engine(request, monkeypatch):
    """A fresh engine: as it loads (``numpy``), or with its TEMP_S sweep
    pinned to the pure-Python fallback (``python``)."""
    if request.param == "python":
        monkeypatch.setattr(native, "load_sweep", lambda: None)
    return PartitionEngine()


def memo(engine, chain):
    """The chain's plan-memo stats."""
    return engine.cache.get(chain).stats


class TestCacheServing:
    def test_exact_hit(self, engine):
        chain = random_chain(100, rng=1)
        bound = 2.0 * chain.max_vertex_weight()
        first = engine.solve(chain, bound)
        second = engine.solve(chain, bound)
        assert (second.cut_indices, second.weight) == (
            first.cut_indices, first.weight,
        )
        assert second.cut_indices is not first.cut_indices  # fresh lists
        stats = memo(engine, chain)
        assert stats.hits == 1 and stats.misses == 1

    def test_equal_chain_different_object_hits(self, engine):
        chain = random_chain(100, rng=2)
        clone = Chain(list(chain.alpha), list(chain.beta))
        bound = 2.0 * chain.max_vertex_weight()
        engine.solve(chain, bound)
        engine.solve(clone, bound)
        stats = memo(engine, chain)
        assert stats.hits == 1
        assert len(engine.cache) == 1  # one plan for both objects

    def test_results_match_reference(self, engine):
        chain = random_chain(150, rng=3)
        wmax = chain.max_vertex_weight()
        for ratio in (1.0, 1.4, 1.4, 2.0, 2.05, 6.0, 50.0):
            bound = ratio * wmax
            got = engine.solve(chain, bound)
            ref = bandwidth_min(chain, bound)
            assert got.cut_indices == ref.cut_indices
            assert got.weight == ref.weight

    def test_monotone_interval_hit(self, engine):
        # All-equal weights: primes only change when the bound crosses a
        # multiple of the task weight, so nearby bounds share structures.
        chain = Chain([2.0] * 50, [1.0] * 49)
        base = engine.solve(chain, 6.0)  # windows of weight 8 are prime
        inside = engine.solve(chain, 7.0)  # < min prime weight (8.0)
        assert inside.cut_indices == base.cut_indices
        assert inside.cut_indices == bandwidth_min(chain, 7.0).cut_indices
        crossed = engine.solve(chain, 8.0)  # structure must change
        assert crossed.cut_indices == bandwidth_min(chain, 8.0).cut_indices
        stats = memo(engine, chain)
        assert (stats.hits, stats.interval_hits, stats.misses) == (0, 1, 2)

    def test_interval_never_serves_below_computed_bound(self, engine):
        chain = Chain([2.0] * 50, [1.0] * 49)
        engine.solve(chain, 6.0)
        engine.solve(chain, 5.0)  # smaller: must recompute, never reuse up
        stats = memo(engine, chain)
        assert stats.interval_hits == 0
        assert stats.misses == 2

    def test_sorted_sweep_matches_fresh_python(self, engine):
        # Integer weights give integer prime weights, so every unit
        # interval of bounds shares one structure; probe sub-unit steps.
        chain = random_chain(120, rng=4, integer_weights=True)
        wmax = chain.max_vertex_weight()
        bounds = sorted(wmax + 0.25 * i for i in range(40))
        for bound in bounds:
            got = engine.solve(chain, bound)
            ref = bandwidth_min(chain, bound)
            assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)
        stats = memo(engine, chain)
        assert stats.lookups == 40
        # Dense sorted sweeps must not recompute every probe.
        assert stats.interval_hits + stats.hits > 0

    def test_infeasible_bound_still_raises(self, engine):
        chain = random_chain(20, rng=5)
        with pytest.raises(InfeasibleBoundError):
            engine.solve(chain, 0.5 * chain.max_vertex_weight())

    def test_structure_api(self, engine):
        # The memoized structure's stability interval ends exactly at
        # the reference structure's minimum prime weight.
        from repro.core.prime_subpaths import PrimeStructure

        chain = random_chain(60, rng=6)
        bound = 3.0 * chain.max_vertex_weight()
        engine.solve(chain, bound)
        frozen = engine.cache.get(chain)._lookup(bound)
        ref = PrimeStructure.compute(chain, bound)
        assert (frozen.p, frozen.r) == (ref.p, ref.r)
        assert frozen.valid_from == bound
        assert frozen.valid_until == ref.min_prime_weight()


class TestEviction:
    def test_chain_lru(self):
        pytest.importorskip("numpy")
        cache = PlanCache(max_plans=2)
        chains = [random_chain(30, rng=seed) for seed in (10, 11, 12)]
        for chain in chains:
            cache.get(chain)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        # chains[0] was evicted: asking for it again misses.
        misses = cache.stats.misses
        cache.get(chains[0])
        assert cache.stats.misses == misses + 1

    def test_structure_lru_per_chain(self):
        pytest.importorskip("numpy")
        from repro.engine.plan import compile_chain

        chain = random_chain(40, rng=13)
        plan = compile_chain(chain, max_structures=4)
        wmax = chain.max_vertex_weight()
        for i in range(10):
            plan.solve_bounds([wmax * (1.0 + i)], return_cuts=True)
        assert len(plan) <= 4
        assert plan.stats.evictions >= 6

    def test_clear(self):
        pytest.importorskip("numpy")
        engine = PartitionEngine()
        chain = random_chain(20, rng=14)
        engine.solve(chain, 2.0 * chain.max_vertex_weight())
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.stats.lookups == 0


class TestCacheAccounting:
    """Accounting killers from mutation analysis: hit-rate arithmetic,
    the interval's closed-left boundary, exact capacity, and the traced
    outcome attribution."""

    def test_hit_rate_combines_exact_and_interval_hits(self):
        from repro.engine.cache import CacheStats

        stats = CacheStats(hits=3, interval_hits=2, misses=5)
        assert stats.hit_rate == 0.5

    def test_cached_solve_interval_is_closed_on_the_left(self):
        pytest.importorskip("numpy")
        from repro.engine.plan import compile_chain

        chain = random_chain(40, rng=3)
        bound = 1.5 * chain.max_vertex_weight()
        plan = compile_chain(chain)
        plan.solve_bounds([bound])
        frozen = plan._lookup(bound)
        assert frozen.covers(bound)  # valid_from itself is covered
        assert not frozen.covers(frozen.valid_until)
        assert not frozen.covers(bound - 1e-9)
        assert plan._lookup(frozen.valid_until) is None

    def test_capacity_is_exact(self):
        # Exactly max_structures structures must fit without an
        # eviction; the next distinct structure evicts one.
        pytest.importorskip("numpy")
        from repro.engine.plan import compile_chain

        chain = random_chain(40, rng=3)
        plan = compile_chain(chain, max_structures=3)
        wmax = chain.max_vertex_weight()
        # Descending bounds: none is covered by an earlier structure's
        # validity interval, so each solve is a genuine miss.
        for factor in (3.0, 2.5, 2.0):
            plan.solve_bounds([factor * wmax])
        assert plan.stats.misses == 3
        assert plan.stats.evictions == 0
        plan.solve_bounds([1.5 * wmax])
        assert plan.stats.evictions == 1

    def test_span_outcome_after_interval_hit(self):
        pytest.importorskip("numpy")
        from repro.core.prime_subpaths import compute_prime_structure
        from repro.observability import Tracer

        chain = random_chain(40, rng=3)
        bound = 1.5 * chain.max_vertex_weight()
        structure = compute_prime_structure(chain, bound)
        inside = (bound + structure.min_prime_weight()) / 2.0
        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        engine.solve_sweep(chain, [bound])  # miss
        engine.solve_sweep(chain, [inside])
        assert engine.plans.get(chain).stats.interval_hits == 1
        # An exact repeat AFTER an interval hit must still be reported
        # as a pure hit: the span deltas are per-call, not cumulative.
        engine.solve_sweep(chain, [bound])
        records = [
            r for r in tracer.records() if r["name"] == "plan_solve_bounds"
        ]
        assert [r["attrs"]["outcome"] for r in records] == [
            "miss", "interval_hit", "hit",
        ]
        last = records[-1]
        assert last["counts"].get("cache_interval_hits", 0) == 0
        assert last["counts"].get("cache_hits", 0) == 1
        assert last["counts"].get("cache_misses", 0) == 0
