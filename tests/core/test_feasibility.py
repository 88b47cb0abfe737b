"""Unit tests for :mod:`repro.core.feasibility`."""

import pickle

import pytest

from repro.core.feasibility import (
    InfeasibleBoundError,
    OptimumOverflowError,
    PartitioningError,
    total_overflow,
    validate_bound,
)


class TestValidateBound:
    def test_returns_max_weight(self):
        assert validate_bound([1.0, 5.0, 3.0], 10.0) == 5.0

    def test_equal_bound_accepted(self):
        assert validate_bound([4.0], 4.0) == 4.0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleBoundError) as exc:
            validate_bound([1.0, 9.0], 5.0)
        assert exc.value.bound == 5.0
        assert exc.value.max_weight == 9.0

    def test_error_message(self):
        with pytest.raises(InfeasibleBoundError, match="K=5"):
            validate_bound([9.0], 5.0)

    def test_non_positive_bound(self):
        with pytest.raises(ValueError, match="positive"):
            validate_bound([1.0], 0.0)
        with pytest.raises(ValueError, match="positive"):
            validate_bound([1.0], -2.0)

    def test_exception_hierarchy(self):
        assert issubclass(InfeasibleBoundError, PartitioningError)
        assert issubclass(PartitioningError, Exception)


class TestSolverEdgeCases:
    """Feasibility boundaries exercised through the actual solvers."""

    def test_single_vertex_chain(self):
        from repro.core.bandwidth import bandwidth_min
        from repro.graphs.chain import Chain

        chain = Chain([3.0], [])
        result = bandwidth_min(chain, 3.0)
        assert result.cut_indices == []
        assert result.weight == 0.0
        assert result.num_components == 1

    def test_single_vertex_tree(self):
        from repro.core.bottleneck import bottleneck_min
        from repro.core.processor_min import processor_min
        from repro.graphs.tree import Tree

        tree = Tree([5.0], [])
        assert not bottleneck_min(tree, 5.0).cut_edges
        assert processor_min(tree, 5.0).num_components == 1

    def test_bound_below_max_weight_raises_through_solvers(self):
        from repro.core.bandwidth import bandwidth_min
        from repro.core.bottleneck import bottleneck_min
        from repro.core.processor_min import processor_min
        from repro.graphs.chain import Chain
        from repro.graphs.tree import Tree

        chain = Chain([1.0, 9.0, 1.0], [1.0, 1.0])
        with pytest.raises(InfeasibleBoundError) as exc:
            bandwidth_min(chain, 5.0)
        assert exc.value.bound == 5.0
        assert exc.value.max_weight == 9.0

        tree = Tree([1.0, 9.0, 1.0], [(0, 1), (1, 2)], [1.0, 1.0])
        for solver in (bottleneck_min, processor_min):
            with pytest.raises(InfeasibleBoundError):
                solver(tree, 5.0)

    def test_zero_weight_edges_are_free_cuts(self):
        from repro.core.bandwidth import bandwidth_min
        from repro.graphs.chain import Chain

        chain = Chain([4.0, 4.0, 4.0], [0.0, 0.0])
        result = bandwidth_min(chain, 4.0)
        assert result.weight == 0.0
        assert chain.is_feasible_cut(result.cut_indices, 4.0)

    def test_zero_weight_vertices_rejected_by_chain(self):
        from repro.graphs.chain import Chain

        with pytest.raises(ValueError, match="non-positive weight"):
            Chain([0.0, 5.0], [2.0])

    def test_exactly_tight_bound_stays_feasible(self):
        """Regression: K equal to the max vertex weight must never
        produce an infeasible cut, even when prefix-difference rounding
        makes the heaviest task look critical on its own (a single task
        is never a critical subpath)."""
        from repro.core.bandwidth import bandwidth_min
        from repro.engine import PartitionEngine
        from repro.graphs.generators import random_chain

        chain = random_chain(40, rng=13)
        bound = chain.max_vertex_weight()
        for result in (
            bandwidth_min(chain, bound),
            PartitionEngine().solve(chain, bound),
        ):
            assert chain.is_feasible_cut(result.cut_indices, bound)


class TestPickling:
    """An error that leaves a pool worker comes back as itself."""

    @pytest.mark.parametrize(
        "error",
        [
            InfeasibleBoundError(1.0, 2.0),
            OptimumOverflowError(1.5),
            total_overflow(1.5e308),
        ],
        ids=["infeasible", "overflow", "total_overflow"],
    )
    def test_round_trip(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert vars(copy) == vars(error)
