"""Unit tests for the heuristic partitions (:mod:`repro.baselines.greedy`)."""

import random

import pytest

from repro.baselines.greedy import (
    equal_blocks_cut,
    first_fit_cut,
    random_feasible_cut,
)
from repro.baselines.brute_force import chain_min_components
from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, uniform_chain


class TestFirstFit:
    def test_fixture(self, small_chain):
        result = first_fit_cut(small_chain, 9)
        assert result.is_feasible(9)

    def test_packs_maximally(self):
        chain = uniform_chain(10)
        result = first_fit_cut(chain, 3)
        assert result.cut_indices == [2, 5, 8]

    def test_no_cut_when_fits(self, small_chain):
        assert first_fit_cut(small_chain, 20).cut_indices == []

    def test_infeasible(self, small_chain):
        with pytest.raises(InfeasibleBoundError):
            first_fit_cut(small_chain, 3)

    def test_never_cheaper_than_optimal(self):
        rng = random.Random(121)
        for _ in range(30):
            chain = random_chain(rng.randint(1, 60), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight())
            greedy = first_fit_cut(chain, bound)
            optimal = bandwidth_min(chain, bound)
            assert greedy.weight >= optimal.weight - 1e-9

    def test_block_rule_regression(self):
        # A running sum puts [0.4, 0.3] at 0.7; Chain.block_fits, the
        # rule every solver and certificate shares, at 0.7000000000000002.
        chain = Chain([0.7, 0.4, 0.3], [1, 7])
        result = first_fit_cut(chain, 0.7)
        assert result.cut_indices == [0, 1]
        assert result.is_feasible(0.7)
        assert result.num_components == chain_min_components(chain, 0.7) == 3


class TestEqualBlocks:
    def test_block_count(self, small_chain):
        result = equal_blocks_cut(small_chain, 3)
        assert result.num_components == 3

    def test_single_block(self, small_chain):
        assert equal_blocks_cut(small_chain, 1).cut_indices == []

    def test_max_blocks(self, small_chain):
        result = equal_blocks_cut(small_chain, 5)
        assert result.num_components == 5

    def test_rejects_too_many(self, small_chain):
        with pytest.raises(ValueError):
            equal_blocks_cut(small_chain, 6)

    def test_counts_nearly_equal(self):
        chain = uniform_chain(17)
        result = equal_blocks_cut(chain, 4)
        sizes = [hi - lo + 1 for lo, hi in result.blocks()]
        assert max(sizes) - min(sizes) <= 1


class TestRandomFeasible:
    def test_always_feasible(self):
        rng = random.Random(122)
        for _ in range(30):
            chain = random_chain(rng.randint(1, 50), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight())
            result = random_feasible_cut(chain, bound, rng)
            assert result.is_feasible(bound)

    def test_deterministic_with_seed(self, medium_chain):
        bound = 3 * medium_chain.max_vertex_weight()
        a = random_feasible_cut(medium_chain, bound, random.Random(5))
        b = random_feasible_cut(medium_chain, bound, random.Random(5))
        assert a.cut_indices == b.cut_indices

    def test_no_cut_when_fits(self, small_chain):
        result = random_feasible_cut(small_chain, 25, random.Random(1))
        assert result.cut_indices == []

    def test_single_task_block_at_the_bound(self):
        # The trailing task fits on its own (1.9 <= 1.9) even though its
        # prefix difference is a rounding step above the bound.
        chain = Chain([1.8, 1.9], [2])
        for seed in range(20):
            result = random_feasible_cut(chain, 1.9, random.Random(seed))
            assert result.cut_indices == [0]
