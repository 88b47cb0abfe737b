"""Property-based tests for the tree algorithms (2.1 and 2.2).

Trees come from the shared strategy: half-integer and tenth weights,
paths, stars and ``n = 1``, with ``K`` on a component-weight boundary.
"""

import math

from hypothesis import given, settings

from repro.baselines.brute_force import enumerate_tree_optima
from repro.baselines.kundu_misra import processor_min_bottom_up
from repro.baselines.tree_dp import min_components_exact
from repro.core.bottleneck import bottleneck_min, bottleneck_min_naive
from repro.core.pipeline import partition_tree
from repro.core.processor_min import processor_min
from repro.verify.certificates import check_tree_cut
from tests.property.strategies import half_integer, tree_and_bound


@settings(max_examples=100, deadline=None)
@given(tree_and_bound())
def test_bottleneck_optimal_vs_brute_force(data):
    tree, bound = data
    result = bottleneck_min(tree, bound)
    oracle = enumerate_tree_optima(tree, bound)
    assert oracle.feasible
    assert abs(result.bottleneck - oracle.min_bottleneck) < 1e-9
    assert result.is_feasible(bound)


@settings(max_examples=100, deadline=None)
@given(tree_and_bound())
def test_bottleneck_naive_and_fast_identical(data):
    tree, bound = data
    fast = bottleneck_min(tree, bound)
    naive = bottleneck_min_naive(tree, bound)
    assert fast.cut_edges == naive.cut_edges
    assert fast.bottleneck.hex() == naive.bottleneck.hex()


# The exact DP sums component weights in its own order and disagrees
# with the greedy on some tenth-weight trees (an open oracle defect
# listed in ROADMAP.md), so it judges the exact half-integer grid only.
@settings(max_examples=100, deadline=None)
@given(tree_and_bound(vertex_weight=half_integer))
def test_processor_min_optimal(data):
    tree, bound = data
    greedy = processor_min(tree, bound)
    assert greedy.is_feasible(bound)
    assert greedy.num_components == min_components_exact(tree, bound)


@settings(max_examples=100, deadline=None)
@given(tree_and_bound())
def test_two_greedy_formulations_agree(data):
    tree, bound = data
    assert (
        processor_min(tree, bound).num_components
        == processor_min_bottom_up(tree, bound).num_components
    )


@settings(max_examples=100, deadline=None)
@given(tree_and_bound())
def test_processor_count_at_least_packing_bound(data):
    tree, bound = data
    k = processor_min(tree, bound).num_components
    assert k >= math.ceil(tree.total_vertex_weight() / bound - 1e-9)


@settings(max_examples=100, deadline=None)
@given(tree_and_bound())
def test_pipeline_preserves_bottleneck_and_reduces_count(data):
    tree, bound = data
    plan = partition_tree(tree, bound)
    raw = bottleneck_min(tree, bound)
    assert plan.final_cut <= plan.bottleneck_cut
    assert plan.bottleneck <= raw.bottleneck + 1e-12
    assert plan.num_processors <= raw.num_components
    report = check_tree_cut(
        tree, sorted(plan.final_cut), bound, claimed_bottleneck=plan.bottleneck
    )
    assert report.ok, report.violations
