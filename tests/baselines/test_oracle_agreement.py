"""Every chain bandwidth solver agrees on bounds equal to a task weight,
and raises the same typed error when the optimum overflows to ``inf``.

The oracles judge a block with the one rule :meth:`Chain.block_fits`.
A raw prefix difference can put a single task a rounding step above
its own weight, so with ``K`` equal to that weight the block looked
infeasible and the oracles crashed.  Decimal weights make that
cancellation common; ``K`` drawn from the task weights makes it bite.

On trees, every path judges a component by the one sum
:meth:`Tree.component_weights` forms, so tenth weights with ``K`` a
sum of task weights cannot split the naive and fast Algorithm 2.1, nor
make the Section 2.2 contraction reject a bound Algorithm 2.1 accepted."""

import random
import warnings

import pytest

from repro.baselines.brute_force import chain_min_bandwidth, chain_min_components
from repro.baselines.greedy import first_fit_cut, random_feasible_cut
from repro.baselines.exact_dp import bandwidth_min_dp
from repro.baselines.kundu_misra import processor_min_bottom_up
from repro.baselines.nicol import bandwidth_min_nlogn
from repro.baselines.sliding_window import bandwidth_min_deque
from repro.core.bandwidth import bandwidth_min
from repro.core.bottleneck import bottleneck_min, bottleneck_min_naive
from repro.core.feasibility import OptimumOverflowError
from repro.core.pipeline import partition_tree
from repro.core.processor_min import processor_min
from repro.graphs.chain import Chain
from repro.graphs.tree import Tree
from repro.verify.certificates import check_tree_cut

SOLVERS = (bandwidth_min, bandwidth_min_nlogn, bandwidth_min_dp, bandwidth_min_deque)

DECIMALS = [i / 10 for i in range(1, 10)]


def weights(chain, bound):
    out = [solve(chain, bound).weight for solve in SOLVERS]
    out.append(chain_min_bandwidth(chain, bound))
    return [float(w).hex() for w in out]


def test_single_task_block_at_max_weight():
    chain = Chain([0.3, 0.2, 0.7, 0.3, 0.7, 0.3, 0.1],
                  [0.3, 0.1, 0.3, 0.3, 0.7, 0.1])
    assert weights(chain, 0.7) == [(1.4).hex()] * 5


@pytest.mark.parametrize("seed", range(4))
def test_decimal_chains_with_task_weight_bounds(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 10)
        chain = Chain([rng.choice(DECIMALS) for _ in range(n)],
                      [rng.choice(DECIMALS) for _ in range(n - 1)])
        bound = chain.max_vertex_weight()
        if rng.random() < 0.5:
            # A bound equal to a multi-task block weight, as the
            # prefix difference computes it.
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            bound = max(bound, chain.segment_weight(lo, hi))
        got = weights(chain, bound)
        assert len(set(got)) == 1, (chain.alpha, chain.beta, bound, got)


@pytest.mark.parametrize("seed", range(4))
def test_greedy_baselines_share_the_block_rule(seed):
    # Tenth weights, integer edge weights and K a task or block weight:
    # a running sum or a raw prefix difference judged blocks differently
    # from Chain.block_fits here, so first fit returned infeasible cuts
    # and random feasible cuts indexed past the last edge.
    rng = random.Random(seed)
    for _ in range(250):
        n = rng.randint(1, 10)
        chain = Chain([rng.randint(1, 9) / 10 for _ in range(n)],
                      [rng.randint(0, 9) for _ in range(n - 1)])
        lo = rng.randrange(n)
        hi = rng.randrange(lo, n)
        bound = max(chain.max_vertex_weight(), chain.segment_weight(lo, hi))
        first_fit = first_fit_cut(chain, bound)
        assert chain.is_feasible_cut(first_fit.cut_indices, bound)
        assert first_fit.num_components == chain_min_components(chain, bound)
        jittered = random_feasible_cut(chain, bound, rng)
        assert chain.is_feasible_cut(jittered.cut_indices, bound)


def _plan(chain, bound):
    from repro.engine.plan import compile_chain

    return compile_chain(chain).solve_bounds([bound])


def _engine(chain, bound):
    from repro.engine import PartitionEngine

    return PartitionEngine().solve(chain, bound)


@pytest.mark.parametrize(
    "solve",
    [*SOLVERS, chain_min_bandwidth, _engine, _plan],
    ids=lambda solve: solve.__name__,
)
def test_infinite_optimum_is_a_typed_error(solve):
    # K = 1 forces both cuts, and 1e308 + 1e308 overflows to inf.
    chain = Chain([1.0, 1.0, 1.0], [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OptimumOverflowError, match="overflows float64"):
            solve(chain, 1.0)


def test_overflowing_candidate_with_finite_optimum_is_an_answer():
    # One cut of 1e308 fits; only the two-cut candidates overflow.
    chain = Chain([1.0, 1.0, 1.0], [1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert weights(chain, 2.0) == [(1e308).hex()] * 5


@pytest.mark.parametrize("seed", range(3))
def test_tenth_weight_trees_with_subset_sum_bounds(seed):
    rng = random.Random(seed)
    for _ in range(1000):
        n = rng.randint(1, 10)
        weights = [rng.randint(1, 30) / 10 for _ in range(n)]
        tree = Tree(weights, [(rng.randrange(i), i) for i in range(1, n)],
                    [rng.randint(1, 9) for _ in range(n - 1)])
        # K = a sum of task weights, never below the heaviest task.
        subset = rng.sample(weights, rng.randint(1, n))
        bound = max(sum(subset), max(weights))
        case = (weights, list(tree.edges()), bound)
        fast = bottleneck_min(tree, bound)
        naive = bottleneck_min_naive(tree, bound)
        assert fast.cut_edges == naive.cut_edges, case
        assert fast.bottleneck.hex() == naive.bottleneck.hex(), case
        plan = partition_tree(tree, bound)
        report = check_tree_cut(tree, sorted(plan.final_cut), bound,
                                claimed_bottleneck=plan.bottleneck)
        assert report.ok, (case, report.violations)
        assert (processor_min(tree, bound).num_components
                == processor_min_bottom_up(tree, bound).num_components), case
