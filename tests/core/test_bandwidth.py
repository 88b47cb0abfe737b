"""Unit tests for Algorithm 4.1 (:mod:`repro.core.bandwidth`)."""

import random

import pytest

from repro.core.bandwidth import ChainCutResult, bandwidth_min, bandwidth_stats
from repro.core.feasibility import InfeasibleBoundError
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, uniform_chain


class TestKnownInstances:
    def test_fixture_optimum(self, small_chain):
        result = bandwidth_min(small_chain, 9)
        assert result.weight == 3
        assert result.cut_indices == [1, 3]
        assert result.is_feasible(9)

    def test_whole_chain_fits(self, small_chain):
        result = bandwidth_min(small_chain, 20)
        assert result.cut_indices == []
        assert result.weight == 0.0
        assert result.num_components == 1

    def test_bound_exactly_total(self, small_chain):
        assert bandwidth_min(small_chain, 20.0).cut_indices == []

    def test_all_singletons_required(self):
        chain = Chain([5, 5, 5], [2, 3])
        result = bandwidth_min(chain, 5)
        assert result.cut_indices == [0, 1]
        assert result.weight == 5

    def test_single_task(self, single_task_chain):
        result = bandwidth_min(single_task_chain, 5.0)
        assert result.cut_indices == []

    def test_two_tasks_split(self):
        chain = Chain([4, 4], [11])
        result = bandwidth_min(chain, 6)
        assert result.cut_indices == [0]
        assert result.weight == 11

    def test_infeasible(self, small_chain):
        with pytest.raises(InfeasibleBoundError):
            bandwidth_min(small_chain, 5)

    def test_prefers_light_edges(self):
        # Identical structure, one cheap escape edge.
        chain = Chain([3, 3, 3, 3], [100, 1, 100])
        result = bandwidth_min(chain, 6)
        assert result.cut_indices == [1]
        assert result.weight == 1

    def test_uniform_worst_case(self):
        chain = uniform_chain(12)
        result = bandwidth_min(chain, 3)
        # Must cut at least every 3 tasks: ceil(12/3) - 1 = 3 cuts.
        assert len(result.cut_indices) == 3
        assert result.is_feasible(3)

    def test_zero_weight_edges(self):
        chain = Chain([4, 4, 4], [0.0, 0.0])
        result = bandwidth_min(chain, 4)
        assert result.weight == 0.0
        assert result.is_feasible(4)


class TestResultObject:
    def test_component_weights(self, small_chain):
        result = bandwidth_min(small_chain, 9)
        assert result.component_weights() == [7, 7, 6]

    def test_blocks(self, small_chain):
        result = bandwidth_min(small_chain, 9)
        assert result.blocks() == [(0, 1), (2, 3), (4, 4)]

    def test_as_cut(self, small_chain):
        cut = bandwidth_min(small_chain, 9).as_cut()
        assert cut.bandwidth() == 3
        assert cut.is_feasible(9)

    def test_stats_none_by_default(self, small_chain):
        assert bandwidth_min(small_chain, 9).stats is None


class TestStats:
    def test_stats_populated(self, small_chain):
        stats = bandwidth_stats(small_chain, 9)
        assert stats.n == 5
        assert stats.p == 3
        assert stats.r == 4
        assert stats.q == pytest.approx(1.5)
        assert stats.max_temp_s_len >= 1

    def test_stats_empty_when_no_primes(self, small_chain):
        stats = bandwidth_stats(small_chain, 25)
        assert stats.p == 0
        assert stats.p_log_q == 0.0

    def test_p_log_q_zero_when_q_one(self):
        # Primes [0..1] and [1..2] each own exactly one edge: q = 1, so
        # the paper's cost measure p log q collapses to zero.
        chain = Chain([5, 5, 5], [2, 3])
        stats = bandwidth_stats(chain, 5)
        assert stats.p == 2
        assert stats.q == pytest.approx(1.0)
        assert stats.p_log_q == 0.0


class TestVariants:
    @pytest.mark.parametrize("search", ["binary", "linear"])
    @pytest.mark.parametrize("apply_reduction", [True, False])
    def test_variants_agree_on_fixture(self, small_chain, search, apply_reduction):
        result = bandwidth_min(
            small_chain, 9, search=search, apply_reduction=apply_reduction
        )
        assert result.weight == 3

    def test_variants_agree_randomized(self):
        rng = random.Random(123)
        for _ in range(25):
            chain = random_chain(rng.randint(2, 60), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight())
            weights = {
                bandwidth_min(chain, bound, search=s, apply_reduction=r).weight
                for s in ("binary", "linear")
                for r in (True, False)
            }
            assert len({round(w, 9) for w in weights}) == 1

    def test_cut_edges_within_range(self):
        rng = random.Random(7)
        for _ in range(20):
            chain = random_chain(rng.randint(2, 50), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight())
            result = bandwidth_min(chain, bound)
            assert all(0 <= i < chain.num_edges for i in result.cut_indices)
            assert result.cut_indices == sorted(set(result.cut_indices))
            assert result.weight == pytest.approx(
                chain.cut_weight(result.cut_indices)
            )


class TestFeasibilityAlways:
    def test_random_instances_feasible(self):
        rng = random.Random(99)
        for _ in range(50):
            chain = random_chain(rng.randint(1, 80), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight() + 1)
            result = bandwidth_min(chain, bound)
            assert result.is_feasible(bound)

    def test_tight_bound_equals_max_weight(self):
        chain = Chain([6, 2, 6, 2], [1, 1, 1])
        result = bandwidth_min(chain, 6)
        assert result.is_feasible(6)


class TestBoundaryBounds:
    """Boundary cases exposed by mutation analysis: a bound that equals
    a critical subpath weight exactly, the singleton chain, and the
    all-equal chain where every comparison is a tie."""

    def test_bound_exactly_at_prime_weight(self, small_chain):
        # Primes under K=9 weigh 12, 10 and 13.  At K equal to a prime's
        # weight the window becomes feasible (criticality is strict), so
        # the prime disappears and the optimum can only improve.
        from repro.baselines.exact_dp import bandwidth_min_dp

        for bound in (10, 12, 13):
            result = bandwidth_min(small_chain, bound)
            assert result.is_feasible(bound)
            assert result.weight == bandwidth_min_dp(small_chain, bound).weight

    def test_singleton_chain(self):
        chain = Chain([5.0], [])
        for bound in (5.0, 7.5):
            result = bandwidth_min(chain, bound)
            assert result.cut_indices == []
            assert result.weight == 0.0
        with pytest.raises(InfeasibleBoundError):
            bandwidth_min(chain, 4.9)

    def test_all_equal_weights(self):
        # 12 unit tasks, unit edges: K=3 forces a cut at least every
        # three tasks; the optimum uses exactly three cuts.
        chain = uniform_chain(12)
        result = bandwidth_min(chain, 3.0)
        assert result.is_feasible(3.0)
        assert result.weight == 3.0

    def test_declared_contract_counters(self):
        from repro.verify.contracts import CONTRACTS

        _budget, counters = CONTRACTS["repro.core.bandwidth.bandwidth_min"]
        assert counters == (
            "prime_tasks_scanned",
            "prime_window_advances",
            "prime_candidates",
            "prime_edge_scans",
            "search_steps",
        )
