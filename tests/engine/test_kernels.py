"""Unit tests for the NumPy fast-path kernels.

The contract is *bit-identical* output to the pure-Python reference on
every input — the property suite hammers random instances; here we pin
the known worked example, the degenerate shapes, and the fast TEMP_S
sweep against the reference queue.  The kernels are primitives; these
tests chain them the way the compiled plan does and compare the rows
with :meth:`PrimeStructure.compute`.
"""

import warnings

import pytest

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.core.prime_subpaths import PrimeStructure, PrimeSubpath, ReducedEdge
from repro.engine import kernels
from repro.engine.plan import compile_chain
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, uniform_chain

FIGURE1 = Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])


def kernel_columns(chain, bound, apply_reduction=True):
    """``(first_tasks, last_tasks, prime_weights, reduced columns)`` from
    the kernel primitives, chained as the compiled plan chains them."""
    kernels.validate_bound_array(chain.max_vertex_weight(), bound)
    prefix = kernels.prefix_array(chain)
    first, last = kernels.prime_windows(prefix, bound)
    weights = kernels.prime_weight_array(prefix, first, last)
    lo, hi = kernels.membership_intervals(first, last - 1, chain.num_edges)
    beta = kernels.beta_array(chain)
    if apply_reduction:
        columns = kernels.reduced_edge_arrays(beta, lo, hi)
    else:
        # Every covered edge, as ``reduce_edges(apply_reduction=False)``.
        idx = np.flatnonzero(lo <= hi)
        columns = (idx, beta[idx], lo[idx], hi[idx])
    return first, last, weights, columns


def kernel_rows(chain, bound, apply_reduction=True):
    """The kernel output as :class:`PrimeSubpath`/:class:`ReducedEdge` rows."""
    first, last, weights, columns = kernel_columns(chain, bound, apply_reduction)
    primes = [
        PrimeSubpath(int(a), int(b), float(w))
        for a, b, w in zip(first, last, weights)
    ]
    edges = [
        ReducedEdge(int(j), float(w), int(lo), int(hi))
        for j, w, lo, hi in zip(*columns)
    ]
    return primes, edges


def assert_structures_equal(chain, bound, apply_reduction=True):
    ref = PrimeStructure.compute(chain, bound, apply_reduction=apply_reduction)
    primes, edges = kernel_rows(chain, bound, apply_reduction)
    assert ref.primes == primes
    assert ref.edges == edges


class TestPrimeStructureNumpy:
    def test_figure1_example(self):
        assert_structures_equal(FIGURE1, 9)

    def test_single_task(self):
        assert_structures_equal(Chain([5.0], []), 5.0)

    def test_bound_equals_max_alpha(self):
        chain = random_chain(50, rng=1)
        assert_structures_equal(chain, chain.max_vertex_weight())

    def test_bound_swallows_chain(self):
        chain = random_chain(50, rng=2)
        first, _, weights, columns = kernel_columns(
            chain, chain.total_weight() + 1
        )
        assert first.shape == (0,) and columns[0].shape == (0,)
        assert kernels.stability_end(weights) == float("inf")

    def test_all_equal_weights(self):
        chain = uniform_chain(40, vertex_weight=2.0, edge_weight=3.0)
        for bound in (2.0, 4.0, 6.0, 79.0, 80.0, 81.0):
            assert_structures_equal(chain, bound)

    def test_no_reduction(self):
        chain = random_chain(60, rng=3)
        assert_structures_equal(
            chain, 2.5 * chain.max_vertex_weight(), apply_reduction=False
        )

    def test_infeasible_bound_raises(self):
        with pytest.raises(InfeasibleBoundError):
            kernel_columns(FIGURE1, 5.0)
        with pytest.raises(InfeasibleBoundError):
            compile_chain(FIGURE1).solve_bounds([5.0])

    def test_unknown_backend_rejected(self):
        # The reference is pure Python; the NumPy route is the engine.
        for backend in ("numpy", "fortran"):
            with pytest.raises(ValueError, match="unknown backend"):
                bandwidth_min(FIGURE1, 9.0, backend=backend)

    def test_array_structure_statistics_match(self):
        chain = random_chain(80, rng=4)
        bound = 3.0 * chain.max_vertex_weight()
        ref = PrimeStructure.compute(chain, bound)
        first, last, weights, columns = kernel_columns(chain, bound)
        edge_first, edge_last = columns[2], columns[3]
        assert (edge_last - edge_first + 1).tolist() == ref.q_values
        assert float(np.mean(last - first + 1)) == pytest.approx(
            ref.mean_prime_length()
        )
        assert kernels.stability_end(weights) == ref.min_prime_weight()


class TestMembershipKernel:
    def test_matches_reference_on_known_chain(self):
        from repro.core.prime_subpaths import edge_membership_intervals

        primes = PrimeStructure.compute(FIGURE1, 9).primes
        lo_ref, hi_ref = edge_membership_intervals(primes, FIGURE1.num_edges)
        first = np.asarray([p.first_edge for p in primes])
        last = np.asarray([p.last_edge for p in primes])
        lo, hi = kernels.membership_intervals(first, last, FIGURE1.num_edges)
        assert lo.tolist() == lo_ref
        assert hi.tolist() == hi_ref


class TestFastSweep:
    def test_matches_reference_queue(self):
        chain = random_chain(200, rng=5, vertex_range=(1, 10), edge_range=(1, 100))
        for ratio in (1.0, 1.3, 2.0, 5.0, 25.0):
            bound = ratio * chain.max_vertex_weight()
            ref = bandwidth_min(chain, bound)
            first, last, weights, columns = kernel_columns(chain, bound)
            structure = kernels.ArrayPrimeStructure(
                chain, bound, first, last, weights, *columns
            )
            cut, weight = kernels.bandwidth_sweep(structure)
            assert cut == ref.cut_indices
            assert weight == ref.weight

    def test_empty_structure(self):
        assert kernels.sweep_min_cut([], [], [], []) == ([], 0.0)


class TestWeightOnlyFastPath:
    """The compiled-plan weight pipeline, pinned kernel by kernel.

    ``reduced_class_arrays`` + the weight-only ``temps_sweep`` are the
    hottest form of Algorithm 4.1 (no per-edge arrays, no solution
    arena); both claim bit-identical results to the cut-capable path, so
    assert exactly that over a tie-heavy battery.
    """

    @staticmethod
    def battery():
        chains = [FIGURE1, uniform_chain(2), uniform_chain(25, 3.0, 5.0)]
        for n, seed in ((3, 1), (5, 2), (8, 3), (13, 4), (21, 5), (34, 6)):
            chains.append(random_chain(n, rng=seed))
            chains.append(random_chain(n, rng=seed + 100, integer_weights=True))
        chains.append(
            random_chain(
                80,
                rng=9,
                vertex_range=(1, 4),
                edge_range=(1, 3),
                integer_weights=True,
            )
        )
        return chains

    @staticmethod
    def bounds_for(chain):
        wmax = chain.max_vertex_weight()
        total = float(np.sum(np.asarray(chain.alpha, dtype=np.float64)))
        return (wmax, 1.1 * wmax, 1.5 * wmax, 2.0 * wmax, 3.0 * wmax, total)

    @staticmethod
    def class_arrays(chain, bound):
        prefix = kernels.prefix_array(chain)
        first_tasks, last_tasks = kernels.prime_windows(prefix, bound)
        if first_tasks.shape[0] == 0:
            return None
        beta = kernels.beta_array(chain)
        return kernels.reduced_class_arrays(
            beta, first_tasks, last_tasks, chain.num_edges
        )

    def test_pipeline_matches_bandwidth_min(self):
        for chain in self.battery():
            for bound in self.bounds_for(chain):
                arrays = self.class_arrays(chain, bound)
                if arrays is None:
                    weight = 0.0
                else:
                    _, weight = kernels.temps_sweep(None, *arrays)
                assert weight == bandwidth_min(chain, bound).weight

    def test_weight_sweep_matches_cut_sweep(self):
        # Identical reduced columns through both sweeps: the weight-only
        # recurrence must agree with the arena-building one everywhere.
        for chain in self.battery():
            for bound in self.bounds_for(chain):
                arrays = self.class_arrays(chain, bound)
                if arrays is None:
                    continue
                class_w, class_first, class_last = arrays
                cols = (
                    class_w.tolist(),
                    class_first.tolist(),
                    class_last.tolist(),
                )
                _, cut_weight = kernels.sweep_min_cut(
                    list(range(class_w.shape[0])), *cols
                )
                assert kernels.temps_sweep(None, *arrays)[1] == cut_weight

    def test_classes_match_reduced_edge_representatives(self):
        # Class weights/windows must equal the minimum-weight
        # representatives the per-edge reduction selects.
        for chain in self.battery():
            beta = kernels.beta_array(chain)
            prefix = kernels.prefix_array(chain)
            for bound in self.bounds_for(chain):
                first_tasks, last_tasks = kernels.prime_windows(prefix, bound)
                if first_tasks.shape[0] == 0:
                    continue
                lo, hi = kernels.membership_intervals(
                    first_tasks, last_tasks - 1, chain.num_edges
                )
                _, edge_weight, edge_first, edge_last = (
                    kernels.reduced_edge_arrays(beta, lo, hi)
                )
                class_w, class_first, class_last = kernels.reduced_class_arrays(
                    beta, first_tasks, last_tasks, chain.num_edges
                )
                assert class_w.tolist() == list(edge_weight)
                assert class_first.tolist() == list(edge_first)
                assert class_last.tolist() == list(edge_last)

    @classmethod
    def pipeline_weight(cls, chain, bound):
        arrays = cls.class_arrays(chain, bound)
        if arrays is None:
            return 0.0
        return kernels.temps_sweep(None, *arrays)[1]

    def test_extension_row_start_regression(self):
        # The extension push must anchor its row at last_hi + 1: an
        # off-by-one start makes a later retire break early and reuse a
        # stale predecessor weight (found by mutation analysis).
        chain = Chain(
            [1, 1, 6, 3, 2, 2, 2, 6, 1, 6, 6, 5],
            [1, 5, 4, 1, 1, 1, 2, 2, 5, 5, 1],
        )
        ref = bandwidth_min(chain, 12.0)
        assert ref.weight == 8.0
        assert self.pipeline_weight(chain, 12.0) == ref.weight

    def test_drained_queue_with_zero_weight_edges(self):
        # Zero-weight edges are legal (beta >= 0): after a full retire a
        # fresh candidate can tie the drained bottom row's W, so the
        # replace guard must test the live-row count strictly (found by
        # mutation analysis).
        chain = Chain([2, 4, 6, 1, 1, 5, 1], [2, 4, 0, 4, 1, 0])
        bound = 1.2 * 6.0
        ref = bandwidth_min(chain, bound)
        assert ref.weight == 4.0
        assert self.pipeline_weight(chain, bound) == ref.weight

    def test_synthetic_columns_match_cut_sweep(self):
        # Stress columns with coverage gaps and zero weights: the
        # drained-queue anchor must start at the class's own first prime
        # (found by mutation analysis), and a seeded fuzz keeps both
        # sweeps pinned together over shapes no single chain produces.
        weights = [4.0, 2.0, 3.0, 4.0, 4.0, 1.0]
        firsts = [0, 3, 3, 3, 4, 6]
        lasts = [1, 4, 5, 7, 7, 7]
        _, ref = kernels.sweep_min_cut(
            list(range(len(weights))), weights, firsts, lasts
        )
        assert ref == 8.0
        assert kernels.temps_sweep(None, weights, firsts, lasts)[1] == ref
        rng = np.random.default_rng(20260808)
        for _ in range(500):
            r = int(rng.integers(1, 10))
            firsts, lasts, weights = [], [], []
            fp = int(rng.integers(0, 2))
            lp = fp + int(rng.integers(0, 3))
            for _ in range(r):
                if firsts and (fp, lp) == (firsts[-1], lasts[-1]):
                    lp += 1
                firsts.append(fp)
                lasts.append(lp)
                weights.append(float(rng.integers(0, 5)))
                fp += int(rng.integers(0, 4))
                lp = max(lp, fp) + int(rng.integers(0, 3))
            _, ref = kernels.sweep_min_cut(
                list(range(r)), weights, firsts, lasts
            )
            _, got = kernels.temps_sweep(None, weights, firsts, lasts)
            assert got == ref, (weights, firsts, lasts)

    def test_empty_windows_return_empty_classes(self):
        empty_i = np.empty(0, dtype=np.int64)
        class_w, class_first, class_last = kernels.reduced_class_arrays(
            np.empty(0, dtype=np.float64), empty_i, empty_i, 0
        )
        for arr in (class_w, class_first, class_last):
            assert arr.shape == (0,)


class TestBandwidthBackendFlag:
    def test_numpy_backend_same_result(self):
        # The NumPy route is the engine; the reference has no other backend.
        from repro.engine import PartitionEngine

        chain = random_chain(120, rng=6)
        bound = 2.0 * chain.max_vertex_weight()
        ref = bandwidth_min(chain, bound)
        fast = PartitionEngine().solve(chain, bound)
        assert fast.cut_indices == ref.cut_indices
        assert fast.weight == ref.weight

    def test_precomputed_structure_is_used(self):
        chain = random_chain(60, rng=8)
        bound = 2.0 * chain.max_vertex_weight()
        structure = PrimeStructure.compute(chain, bound)
        result = bandwidth_min(chain, bound, structure=structure)
        assert result.weight == bandwidth_min(chain, bound).weight


class TestSweepFixupLoops:
    """Chains where ``prefix[j] <= starts + bound`` (searchsorted form)
    and ``prefix[j] - starts <= bound`` (the reference's subtraction
    form) disagree in float64, so the fix-up sweeps in
    :func:`kernels.prime_windows` must actually run."""

    DOWN_WEIGHTS = [
        0.24, 0.1, 0.17, 0.31, 0.32, 0.29, 0.11, 0.31, 0.16, 0.26, 0.09, 0.34,
    ]
    UP_WEIGHTS = [0.2, 0.08, 0.17, 0.12, 0.15, 0.07, 0.25, 0.14, 0.3, 0.18]

    def test_down_sweep_required(self):
        chain = Chain(self.DOWN_WEIGHTS, [1.0] * (len(self.DOWN_WEIGHTS) - 1))
        assert_structures_equal(chain, 0.82)

    def test_up_sweep_required(self):
        chain = Chain(self.UP_WEIGHTS, [1.0] * (len(self.UP_WEIGHTS) - 1))
        assert_structures_equal(chain, 0.52)

    def test_empty_prefix_returns_window_pair(self):
        first, last = kernels.prime_windows(np.zeros(1), 5.0)
        assert first.size == 0 and last.size == 0
        assert first.dtype == np.int64 and last.dtype == np.int64

    def test_validate_bound_zero_bound_message(self):
        # bound == 0 must be rejected as non-positive even when
        # alpha_max is also 0 (the degenerate all-zero chain).
        with pytest.raises(ValueError, match="positive"):
            kernels.validate_bound_array(0.0, 0.0)

    @pytest.mark.parametrize("bound", [float("inf"), float("nan")])
    def test_validate_bound_rejects_non_finite(self, bound):
        # An infinite or NaN bound answers nothing; reject it before the
        # feasibility comparison (which NaN would silently pass).
        with pytest.raises(ValueError, match="finite"):
            kernels.validate_bound_array(1.0, bound)

    def test_down_sweep_to_minimum_window(self):
        # prefix[a+2] - prefix[a] > bound while prefix[a+2] <= prefix[a]
        # + bound (at a = 2): the searchsorted seed lands at a + 3 and
        # the down sweep must descend all the way to the two-task floor.
        weights = [0.28, 0.35, 0.37, 0.35, 0.37]
        chain = Chain(weights, [1.0] * (len(weights) - 1))
        assert_structures_equal(chain, 0.72)


class TestOverflowingPrefix:
    """Weights near 1e308 overflow the prefix sums to inf (and their
    differences to nan); the arrays must follow the reference's Python
    floats, silently and to the same answer."""

    def test_engine_matches_reference_without_warnings(self):
        from repro.engine import PartitionEngine

        chain = Chain([1e308] * 3, [1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = PartitionEngine().solve(chain, 1.5e308)
            ref = bandwidth_min(chain, 1.5e308)
        assert got.cut_indices == ref.cut_indices == [0, 1]
        assert got.weight == ref.weight == 3.0

    def test_nan_windows_are_critical_as_in_the_reference(self):
        # Past the overflow every prefix difference is inf - inf = nan;
        # the reference's ``gap <= bound`` growth test fails on nan, so
        # those two-task windows are primes, with nan weights.
        chain = Chain([1e308, 1e308, 1.0, 1.0, 1.0], [5.0, 1.0, 2.0, 3.0])
        ref = PrimeStructure.compute(chain, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            primes, edges = kernel_rows(chain, 1e308)
            windows = [(p.first_task, p.last_task) for p in primes]
            assert windows == [(p.first_task, p.last_task) for p in ref.primes]
            assert windows == [(0, 1), (1, 2), (2, 3), (3, 4)]
            assert edges == ref.edges
            columns = kernel_columns(chain, 1e308)[3]
            assert kernels.temps_sweep(*columns) == ([0, 1, 2, 3], 11.0)

    def test_nan_weights_never_end_the_stability_interval(self):
        weights = np.array([np.nan, 3.0, np.inf, np.nan])
        assert kernels.stability_end(weights) == 3.0
        assert kernels.stability_end(np.array([np.nan, np.nan])) == np.inf
        assert kernels.stability_end(np.empty(0)) == np.inf
