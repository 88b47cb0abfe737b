"""Unit tests for Algorithm 2.1 (:mod:`repro.core.bottleneck`)."""

import random

import pytest

from repro.core.bottleneck import (
    TreeCutResult,
    bottleneck_min,
    bottleneck_min_naive,
)
from repro.core.feasibility import InfeasibleBoundError
from repro.graphs.generators import random_tree
from repro.graphs.tree import Tree


class TestKnownInstances:
    def test_no_cut_needed(self, small_tree):
        result = bottleneck_min(small_tree, 30)
        assert result.cut_edges == set()
        assert result.bottleneck == 0.0
        assert result.num_components == 1

    def test_bound_equal_to_total_weight_needs_no_cut(self, small_tree):
        total = sum(small_tree.vertex_weights)
        # Solvers are named in the body, not in a parametrize list, so
        # `repro mutate`'s sandbox can rebind them to a mutant.
        for solver in (bottleneck_min, bottleneck_min_naive):
            result = solver(small_tree, total)
            assert result.cut_edges == set()
            assert result.bottleneck == 0.0

    def test_fixture_bound_15(self, small_tree):
        # Total weight 28 > 15, so some cut is needed.  The lightest
        # edges go first: cutting (0,1)=10 leaves components 12 and 16;
        # that's enough (both <= 15)?  16 > 15, so (0,2)=20 also joins.
        result = bottleneck_min(small_tree, 15)
        assert result.cut_edges == {(0, 1), (0, 2)}
        assert result.bottleneck == 20
        assert result.is_feasible(15)

    def test_fixture_bound_13(self, small_tree):
        # Cutting the two lightest edges leaves {1,3,4}=12, {0}=3,
        # {2,5,6}=13 — all within the bound.
        result = bottleneck_min(small_tree, 13)
        assert result.is_feasible(13)
        weights = sorted(
            small_tree.edge_weight(u, v) for u, v in result.cut_edges
        )
        assert weights == [10, 20]

    def test_fixture_bound_12(self, small_tree):
        # At K=12 the component {2,5,6}=13 no longer fits; it only breaks
        # once edge (2,5) of weight 50 joins the cut, and every lighter
        # edge precedes it in the greedy prefix.
        result = bottleneck_min(small_tree, 12)
        assert result.is_feasible(12)
        assert result.bottleneck == 50
        assert len(result.cut_edges) == 5

    def test_single_vertex(self):
        tree = Tree([4.0], [])
        result = bottleneck_min(tree, 4.0)
        assert result.cut_edges == set()

    def test_infeasible(self, small_tree):
        with pytest.raises(InfeasibleBoundError):
            bottleneck_min(small_tree, 6.5)

    def test_star_cuts_heaviest_leaves_last(self, star_tree):
        # Star leaves 2,3,4,5,6 with edges 10..50; total 20.
        result = bottleneck_min(star_tree, 11)
        assert result.is_feasible(11)

    def test_chain_shaped_tree(self):
        tree = Tree([5, 5, 5], [(0, 1), (1, 2)], [3, 7])
        result = bottleneck_min(tree, 10)
        assert result.cut_edges == {(0, 1)}
        assert result.bottleneck == 3


class TestNaiveAgreement:
    def test_identical_outputs_randomized(self):
        rng = random.Random(8)
        for _ in range(40):
            tree = random_tree(rng.randint(1, 40), rng)
            bound = rng.uniform(tree.max_vertex_weight(), tree.total_vertex_weight() + 1)
            fast = bottleneck_min(tree, bound)
            naive = bottleneck_min_naive(tree, bound)
            assert fast.cut_edges == naive.cut_edges
            assert fast.bottleneck == naive.bottleneck

    def test_identical_with_ties(self):
        rng = random.Random(9)
        for _ in range(25):
            tree = random_tree(
                rng.randint(2, 25), rng, edge_range=(1, 3), integer_weights=True
            )
            bound = float(rng.randint(int(tree.max_vertex_weight()),
                                      int(tree.total_vertex_weight())))
            assert (
                bottleneck_min(tree, bound).cut_edges
                == bottleneck_min_naive(tree, bound).cut_edges
            )

    def test_identical_when_sums_round(self):
        # Tenth weights: a re-sum of {0, 1, 2, 3} in BFS order lands at
        # K exactly, while Algorithm 2.1's merge order lands above it, so
        # both loops must judge by the same (merge-order) sum.
        tree = Tree([1.9, 2.8, 2.6, 2.5], [(0, 1), (1, 2), (0, 3)], [8, 8, 8])
        bound = 9.799999999999999
        fast = bottleneck_min(tree, bound)
        naive = bottleneck_min_naive(tree, bound)
        assert fast.cut_edges == naive.cut_edges == {(0, 1)}
        assert fast.bottleneck == naive.bottleneck == 8.0


class TestGreedyPrefixProperty:
    def test_cut_is_prefix_of_sorted_order(self):
        rng = random.Random(10)
        for _ in range(25):
            tree = random_tree(rng.randint(2, 30), rng)
            bound = rng.uniform(tree.max_vertex_weight(), tree.total_vertex_weight())
            result = bottleneck_min(tree, bound)
            ordered = sorted(
                tree.weighted_edges(), key=lambda item: (item[1], item[0])
            )
            prefix = {edge for edge, _w in ordered[: len(result.cut_edges)]}
            assert result.cut_edges == prefix

    def test_bottleneck_is_max_cut_weight(self):
        rng = random.Random(11)
        for _ in range(25):
            tree = random_tree(rng.randint(2, 30), rng)
            bound = rng.uniform(tree.max_vertex_weight(), tree.total_vertex_weight())
            result = bottleneck_min(tree, bound)
            if result.cut_edges:
                assert result.bottleneck == max(
                    tree.edge_weight(u, v) for u, v in result.cut_edges
                )
            else:
                assert result.bottleneck == 0.0


class TestResultObject:
    def test_partition(self, small_tree):
        result = bottleneck_min(small_tree, 15)
        partition = result.partition()
        assert partition.num_processors == result.num_components
        assert partition.satisfies_bound(15)

    def test_as_cut(self, small_tree):
        result = bottleneck_min(small_tree, 15)
        assert result.as_cut().bottleneck() == result.bottleneck


# Every class above again on the pure-Python sweep (the classes above run
# the native one where it loads).
@pytest.mark.usefixtures("python_route")
class TestKnownInstancesOnPython(TestKnownInstances):
    pass


@pytest.mark.usefixtures("python_route")
class TestNaiveAgreementOnPython(TestNaiveAgreement):
    pass


@pytest.mark.usefixtures("python_route")
class TestGreedyPrefixPropertyOnPython(TestGreedyPrefixProperty):
    pass


@pytest.mark.usefixtures("python_route")
class TestResultObjectOnPython(TestResultObject):
    pass
