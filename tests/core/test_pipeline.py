"""Unit tests for the combined pipeline (:mod:`repro.core.pipeline`)."""

import math
import random
import sys

import pytest
from hypothesis import given, settings

from repro.baselines.kundu_misra import processor_min_bottom_up
from repro.core import pipeline
from repro.core.bottleneck import _bottleneck_sweep, bottleneck_min, bottleneck_min_naive
from repro.core.feasibility import OptimumOverflowError
from repro.core.pipeline import _prune, partition_chain, partition_tree
from repro.core.processor_min import processor_min
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, random_tree
from repro.graphs.tree import Tree
from repro.verify.certificates import check_tree_cut
from tests.conftest import on_both_routes
from tests.graphs.test_tree import (
    ROUTE_TREES,
    contract_by_constructor,
    rebuild,
    route_bounds,
)
from tests.property.strategies import half_integer, tree_and_bound


class TestPartitionTree:
    def test_no_cut_needed(self, small_tree):
        plan = partition_tree(small_tree, 30)
        assert plan.final_cut == set()
        assert plan.num_processors == 1
        assert plan.bottleneck == 0.0

    def test_final_cut_subset_of_bottleneck_cut(self):
        rng = random.Random(41)
        for _ in range(30):
            tree = random_tree(rng.randint(2, 40), rng)
            bound = rng.uniform(tree.max_vertex_weight(), tree.total_vertex_weight())
            plan = partition_tree(tree, bound)
            assert plan.final_cut <= plan.bottleneck_cut

    def test_bottleneck_value_preserved(self):
        rng = random.Random(42)
        for _ in range(30):
            tree = random_tree(rng.randint(2, 40), rng)
            bound = rng.uniform(tree.max_vertex_weight(), tree.total_vertex_weight())
            plan = partition_tree(tree, bound)
            optimal = bottleneck_min(tree, bound).bottleneck
            assert plan.bottleneck <= optimal + 1e-12

    def test_feasible_and_fewer_components(self):
        rng = random.Random(43)
        for _ in range(30):
            tree = random_tree(rng.randint(2, 40), rng)
            bound = rng.uniform(tree.max_vertex_weight(), tree.total_vertex_weight())
            plan = partition_tree(tree, bound)
            weights = tree.component_weights(plan.final_cut)
            assert all(w <= bound + 1e-9 for w in weights)
            # Never more components than the raw bottleneck cut.
            assert plan.num_processors <= len(plan.bottleneck_cut) + 1

    def test_defragmentation_happens(self):
        # A chain of light tasks with all-equal edge weights: bottleneck
        # min must cut everything (any single component of 2 exceeds K),
        # wait — choose weights so bottleneck cut over-fragments.
        tree = Tree(
            [1, 1, 1, 1, 1, 10],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            [5, 5, 5, 5, 1],
        )
        plan = partition_tree(tree, 11)
        # The raw bottleneck cut is {(4,5)} (weight-1 edge first) —
        # feasible already, so no defragmentation is needed here, but
        # the pipeline must not *add* components.
        raw = bottleneck_min(tree, 11)
        assert plan.num_processors <= raw.num_components

    def test_summary_mentions_counts(self, small_tree):
        plan = partition_tree(small_tree, 15)
        text = plan.summary()
        assert "processors" in text
        assert "K=15" in text

    def test_partition_object(self, small_tree):
        plan = partition_tree(small_tree, 15)
        partition = plan.partition()
        assert partition.num_processors == plan.num_processors

    def test_super_node_weighs_what_algorithm_2_1_judged(self):
        # Algorithm 2.1 merges {2, 3, 4} to exactly 2.3; a re-sum in
        # vertex order gives 2.3000000000000003 > K, which would make the
        # contraction look infeasible.
        tree = Tree([1.6, 1.4, 1.3, 0.1, 0.9],
                    [(0, 1), (1, 2), (2, 3), (3, 4)], [3, 2, 9, 9])
        plan = partition_tree(tree, 2.3)
        assert plan.final_cut == {(0, 1), (1, 2)}
        report = check_tree_cut(tree, sorted(plan.final_cut), 2.3,
                                claimed_bottleneck=plan.bottleneck)
        assert report.ok, report.violations


def _differential_trees(unit, count, seed):
    """``count`` seeded ``(tree, bound)`` pairs with weights on a grid of
    ``unit``: single vertices, paths, stars and random trees."""
    rng = random.Random(seed)
    for i in range(count):
        n = 1 if i % 10 == 0 else rng.randint(2, 30)
        shape = ("path", "star", "random")[i % 3]
        if shape == "path":
            edges = [(v - 1, v) for v in range(1, n)]
        elif shape == "star":
            center = rng.randrange(n)
            edges = [(center, v) for v in range(n) if v != center]
        else:
            edges = [(rng.randrange(v), v) for v in range(1, n)]
        rng.shuffle(edges)
        weights = [unit * rng.randint(1, 30) for _ in range(n)]
        tree = Tree(weights, edges, [unit * rng.randint(0, 9) for _ in edges])
        low, high = max(weights), sum(weights)
        yield tree, rng.choice([low, high, unit * round(rng.uniform(low, high) / unit)])


class TestPipelineDifferential:
    """``partition_tree`` against the same pipeline contracted through the
    public ``Tree`` constructor: bit-identical answers on rounding-prone
    weights."""

    @pytest.mark.parametrize("unit, seed", [(0.5, 211), (0.1, 212)])
    def test_matches_constructor_pipeline(self, unit, seed):
        for tree, bound in _differential_trees(unit, 400, seed):
            plan = partition_tree(tree, bound)
            first_cut = set(bottleneck_min(tree, bound).cut_edges)
            final_cut, bottleneck = set(), 0.0
            if first_cut:
                super_tree, _components, origin = contract_by_constructor(tree, first_cut)
                refined = processor_min(super_tree, bound)
                assert refined.num_components == processor_min_bottom_up(
                    super_tree, bound).num_components
                final_cut = {origin[e] for e in refined.cut_edges}
                bottleneck = refined.bottleneck
            assert plan.bottleneck_cut == first_cut
            assert plan.final_cut == final_cut
            assert plan.bottleneck.hex() == bottleneck.hex()
            assert plan.num_processors == len(final_cut) + 1
            assert processor_min(tree, bound).num_components == processor_min_bottom_up(
                tree, bound).num_components

    def test_signed_zero_bottleneck(self):
        # Edge weights from {0.0, -0.0, 1.0}: the bottleneck is a max over
        # the final cut, taken in pruning order here and in the super
        # tree's order by the oracle.  Both read 0.0 only because the
        # constructor stores -0.0 as 0.0.
        rng = random.Random(401)
        for _ in range(5000):
            n = rng.randint(2, 12)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            rng.shuffle(edges)
            weights = [0.5 * rng.randint(1, 8) for _ in range(n)]
            tree = Tree(weights, edges, [rng.choice((0.0, -0.0, 1.0)) for _ in edges])
            bound = max(weights)
            plan = partition_tree(tree, bound)
            bottleneck = 0.0
            first_cut = set(bottleneck_min(tree, bound).cut_edges)
            if first_cut:
                super_tree, _components, _origin = contract_by_constructor(tree, first_cut)
                bottleneck = processor_min(super_tree, bound).bottleneck
            assert plan.bottleneck.hex() == bottleneck.hex() == abs(bottleneck).hex()


#: Tenth-weight trees whose final cut changes if a component's children
#: are summed in another order: ``(weights, edges, edge_weights, K,
#: final cut)``.  The first cuts ``(6, 9)`` too if the children follow the
#: copy of the cut set that the contraction is handed; the second cuts
#: ``(11, 13)`` too if they follow the cut set Algorithm 2.1 built.
SET_ORDER_HAZARDS = [
    ([0.1, 2.8000000000000003, 0.6000000000000001, 2.1, 1.6, 2.6, 0.4, 1.1, 2.1,
      0.7000000000000001],
     [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (1, 6), (6, 7), (7, 8), (6, 9)],
     [0.6000000000000001, 0.5, 0.9, 0.5, 0.9, 0.9, 0.8, 1.0, 0.30000000000000004],
     3.9000000000000004, {(0, 1), (1, 3), (1, 4), (1, 5), (6, 7)}),
    ([0.5, 1.5, 1.9000000000000001, 0.4, 2.9000000000000004, 1.9000000000000001,
      0.5, 1.8, 3.0, 2.3000000000000003, 2.9000000000000004, 1.0,
      1.9000000000000001, 0.6000000000000001, 1.7000000000000002],
     [(3, 11), (0, 11), (0, 7), (10, 12), (8, 11), (0, 5), (6, 10), (2, 5),
      (11, 14), (4, 7), (6, 9), (1, 8), (10, 11), (11, 13)],
     [0.5, 0.8, 0.2, 0.5, 0.4, 0.6000000000000001, 0.5, 0.7000000000000001, 0.8,
      0.8, 0.0, 0.30000000000000004, 0.30000000000000004, 0.0],
     16.3, {(0, 7), (1, 8), (6, 9)}),
]


class TestOverflowingTotals:
    """A Section 2.2 total (a cluster plus its children) that overflows
    to inf is a typed error, not a cut."""

    def test_chain_pipeline_raises(self):
        # The cut [2, 3] this used to return leaves {0, 1, 2} weighing inf.
        chain = Chain([1e308] * 5, [1, 2, 3, 4])
        with pytest.raises(OptimumOverflowError, match="Section 2.2 total"):
            partition_chain(chain, 1.5e308, "bottleneck+processors")

    def test_processor_min_raises(self):
        # Pruning from an inf total used to cut the 1.0 leaf too.
        tree = Tree([1e308, 1e308, 1e308, 1.0], [(0, 1), (0, 2), (0, 3)], [1, 1, 1])
        with pytest.raises(OptimumOverflowError, match="Section 2.2 total"):
            processor_min(tree, 1.5e308)


class TestComponentChildOrder:
    """Algorithm 2.2 sums a component with its children in the reverse
    iteration order of the canonical cut set that the contraction builds;
    another order can round a cluster across ``K``."""

    @pytest.mark.parametrize("weights, edges, edge_weights, bound, want",
                             SET_ORDER_HAZARDS, ids=["copy_order", "cut_order"])
    def test_set_order_hazard(self, weights, edges, edge_weights, bound, want):
        tree = Tree(weights, edges, edge_weights)
        plan = partition_tree(tree, bound)
        assert plan.final_cut == want
        super_tree, _components, origin = tree.contract_components(
            set(bottleneck_min(tree, bound).cut_edges))
        refined = processor_min(super_tree, bound)
        assert {origin[e] for e in refined.cut_edges} == want


# ----------------------------------------------------------------------
# The native and pure-Python routes of the pipeline
# ----------------------------------------------------------------------
def prune_outcome(tree, bound):
    """Algorithm 2.1's cut (in iteration order) and the edges Algorithm
    2.2 prunes from it (in pruning order), with no certificate run."""
    ordered, boundary, top, residual = _bottleneck_sweep(tree, bound, tops=True)
    first_cut = set(tree.parent_edges(ordered[:boundary]))
    return list(first_cut), _prune(tree, first_cut, top, residual, bound)


def plan_outcome(tree, bounds):
    """What the pipeline decides at each bound, comparably: Algorithm
    2.2's pruned edges in pruning order, both cuts in iteration order,
    the bottleneck's bits and the processor count."""
    out = []
    for bound in bounds:
        pruned = prune_outcome(tree, bound)[1]
        plan = partition_tree(tree, bound)
        out.append((pruned, list(plan.bottleneck_cut), list(plan.final_cut),
                    plan.bottleneck.hex(), plan.num_processors))
        assert sorted(plan.final_cut) == sorted(tree.parent_edges(pruned))
    return out


def _overflow_trees():
    """Trees whose Section 2.2 totals overflow to inf."""
    rng = random.Random(77)
    yield Tree([1e308] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1.0, 2.0, 3.0, 4.0])
    for _ in range(6):
        n = rng.randint(4, 30)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        yield Tree([rng.choice((1e308, 6e307, 1.0)) for _ in range(n)], edges,
                   [rng.choice((0.0, 1.0, 2.0)) for _ in edges])


class TestPipelineRoutes:
    """The native ``tree_sweep`` + ``tree_prune`` and the Python sweep
    and pruning loop give the same plan, bit for bit and in the same
    iteration order."""

    @pytest.mark.parametrize("name", sorted(ROUTE_TREES))
    def test_routes_agree(self, name):
        got, want = on_both_routes(ROUTE_TREES[name],
                                   lambda tree: plan_outcome(tree, route_bounds(tree)))
        assert got == want

    @pytest.mark.parametrize("weights, edges, edge_weights, bound",
                             [hazard[:4] for hazard in SET_ORDER_HAZARDS],
                             ids=["copy_order", "cut_order"])
    def test_set_order_hazards(self, weights, edges, edge_weights, bound):
        got, want = on_both_routes(lambda: Tree(weights, edges, edge_weights),
                                   lambda tree: plan_outcome(tree, [bound]))
        assert got == want

    def test_star_ties_across_the_cut_off(self):
        # Leaf 1 (4.5) cannot join the centre, so Algorithm 2.1 cuts every
        # edge; Algorithm 2.2 then prunes leaf 1 and seven of the eleven
        # equal leaves, picked by lowest vertex, not by cut-set order.
        def build():
            return Tree.star(0.5, [4.5] + [1.0] * 11, [9.0] + [1.0] * 11)

        got, want = on_both_routes(build, lambda tree: plan_outcome(tree, [4.5]))
        assert got == want
        assert got[0][0] == list(range(1, 9))

    def test_overflowing_totals(self):
        # An inf total cannot say which components to prune: the pruning
        # and the plan raise the same typed error on both routes.
        trees = list(_overflow_trees())
        bounds = [1.5e308, 1.1e308, 1.7e308]

        def overflow(run, tree, bound):
            with pytest.raises(OptimumOverflowError) as info:
                run(tree, bound)
            return str(info.value)

        got, want = on_both_routes(
            lambda: [rebuild(t) for t in trees],
            lambda ts: [overflow(run, t, k) for t in ts for k in bounds
                        for run in (prune_outcome, partition_tree)])
        assert got == want
        assert all(message.startswith("a Section 2.2 total") for message in got)

    @pytest.mark.parametrize("compensated", [False, True], ids=["plain", "compensated"])
    def test_prune_sums_as_sum_does(self, monkeypatch, compensated):
        # Each interpreter's sum() of floats, as the pruning loop reads it
        # (CPython 3.12 added Neumaier's compensation), and the native
        # pruning told which one to copy.
        assert pipeline._COMPENSATED_SUM == (sys.version_info >= (3, 12))
        monkeypatch.setattr(pipeline, "_COMPENSATED_SUM", compensated)
        monkeypatch.setattr(pipeline, "sum", _neumaier_sum if compensated else _plain_sum,
                            raising=False)
        rng = random.Random(31)
        trees = [Tree.star(0.1 * rng.randint(1, 9), [0.1 * rng.randint(1, 30) for _ in range(12)],
                           [0.5] * 12) for _ in range(60)]
        bounds = [0.1 * k for k in range(30, 200, 7)]
        got, want = on_both_routes(
            lambda: [rebuild(t) for t in trees],
            lambda ts: [plan_outcome(t, [k for k in bounds if k >= t.max_vertex_weight()])
                        for t in ts])
        assert got == want


# Module functions, not methods: see tests/graphs/test_tree.py.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree_and_bound())
def test_pipeline_routes_agree_on_grid_weights(data):
    tree, bound = data
    got, want = on_both_routes(lambda: rebuild(tree), lambda t: plan_outcome(t, [bound]))
    assert got == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree_and_bound(vertex_weight=half_integer))
def test_pipeline_routes_agree_on_half_integers(data):
    tree, bound = data
    got, want = on_both_routes(lambda: rebuild(tree), lambda t: plan_outcome(t, [bound]))
    assert got == want


def _plain_sum(values):
    """``sum()`` of floats before CPython 3.12: left to right from 0."""
    total = 0
    for value in values:
        total = total + value
    return total


def _neumaier_sum(values):
    """``sum()`` of floats from CPython 3.12: Neumaier's compensated
    loop, the compensation added only when it is nonzero and finite."""
    values = iter(values)
    total, compensation = 0 + next(values), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _half_integer_chains(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        n = 1 if i % 50 == 0 else rng.randint(2, 30)
        alpha = [0.5 * rng.randint(1, 20) for _ in range(n)]
        beta = [0.5 * rng.randint(0, 9) for _ in range(n - 1)]
        low, high = max(alpha), sum(alpha)
        yield Chain(alpha, beta), rng.choice(
            [low, high, 0.5 * round(rng.uniform(low, high) / 0.5)])


class TestChainObjectivesDifferential:
    """The chain objectives that run Algorithm 2.1's sweep, against
    Algorithm 2.1 and Algorithm 2.2 on the contracted super tree."""

    def test_matches_contraction_pipeline(self):
        for chain, bound in _half_integer_chains(2000, 301):
            tree = chain.to_tree()
            first_cut = set(bottleneck_min_naive(tree, bound).cut_edges)
            final_cut = set()
            if first_cut:
                super_tree, _components, origin = tree.contract_components(first_cut)
                final_cut = {origin[e] for e in processor_min(super_tree, bound).cut_edges}
            for objective, cut in (("bottleneck", first_cut),
                                   ("bottleneck+processors", final_cut)):
                result = partition_chain(chain, bound, objective)
                indices = sorted(u for u, _v in cut)
                assert result.cut_indices == indices
                assert result.weight.hex() == chain.cut_weight(indices).hex()


class TestPartitionChain:
    @pytest.mark.parametrize(
        "objective",
        ["bandwidth", "bottleneck", "processors", "bottleneck+processors"],
    )
    def test_all_objectives_feasible(self, small_chain, objective):
        result = partition_chain(small_chain, 9, objective=objective)
        assert result.is_feasible(9)

    def test_bandwidth_objective_optimal(self, small_chain):
        assert partition_chain(small_chain, 9, "bandwidth").weight == 3

    def test_processors_objective_minimal(self, small_chain):
        result = partition_chain(small_chain, 9, "processors")
        # ceil(20/9) = 3 components.
        assert result.num_components == 3

    def test_bottleneck_objective(self, small_chain):
        result = partition_chain(small_chain, 9, "bottleneck")
        cut_weights = [small_chain.edge_weight(i) for i in result.cut_indices]
        # Optimal bottleneck for K=9: cutting edges 1 and 3 gives max 2.
        assert max(cut_weights) == 2

    def test_unknown_objective(self, small_chain):
        with pytest.raises(ValueError, match="unknown objective"):
            partition_chain(small_chain, 9, "speed")

    def test_objectives_tradeoff(self):
        rng = random.Random(44)
        for _ in range(20):
            chain = random_chain(rng.randint(2, 50), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight())
            bw = partition_chain(chain, bound, "bandwidth")
            proc = partition_chain(chain, bound, "processors")
            # Bandwidth-optimal never beats processor-optimal on count,
            # processor-optimal never beats bandwidth-optimal on weight.
            assert proc.num_components <= bw.num_components
            assert bw.weight <= proc.weight + 1e-9


# The pipeline classes above again on the pure-Python sweep and pruning
# loop (the classes above run the native ones where they load).
@pytest.mark.usefixtures("python_route")
class TestPartitionTreeOnPython(TestPartitionTree):
    pass


@pytest.mark.usefixtures("python_route")
class TestPipelineDifferentialOnPython(TestPipelineDifferential):
    pass


@pytest.mark.usefixtures("python_route")
class TestComponentChildOrderOnPython(TestComponentChildOrder):
    pass


@pytest.mark.usefixtures("python_route")
class TestChainObjectivesDifferentialOnPython(TestChainObjectivesDifferential):
    pass
