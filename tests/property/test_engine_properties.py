"""Property-based tests for the engine fast paths.

The NumPy kernels, the compiled-plan cache, and the batch runner are
optimizations — not alternative algorithms — so their contract is exact
equality with the pure-Python reference: identical prime structures,
identical cuts, identical weights (the same floats, not merely close),
and identical ordering of batch results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.prime_subpaths import PrimeStructure
from repro.engine import PartitionEngine, PartitionQuery, compile_chain
from tests.engine.test_kernels import kernel_rows
from tests.property.strategies import chain_and_bound


@settings(max_examples=200, deadline=None)
@given(chain_and_bound())
def test_numpy_structure_identical_to_python(data):
    chain, bound = data
    ref = PrimeStructure.compute(chain, bound)
    primes, edges = kernel_rows(chain, bound)
    assert ref.primes == primes
    assert ref.edges == edges


@settings(max_examples=100, deadline=None)
@given(chain_and_bound())
def test_numpy_structure_identical_without_reduction(data):
    chain, bound = data
    ref = PrimeStructure.compute(chain, bound, apply_reduction=False)
    primes, edges = kernel_rows(chain, bound, apply_reduction=False)
    assert ref.primes == primes
    assert ref.edges == edges


@settings(max_examples=200, deadline=None)
@given(chain_and_bound())
def test_numpy_backend_identical_result(data):
    chain, bound = data
    ref = bandwidth_min(chain, bound)
    weights, cuts = compile_chain(chain).solve_bounds([bound], return_cuts=True)
    assert cuts[0] == ref.cut_indices
    assert weights[0] == ref.weight  # exact, not approximate


@settings(max_examples=100, deadline=None)
@given(
    chain_and_bound(),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
)
def test_cache_identical_to_fresh_python(data, slacks):
    chain, base_bound = data
    engine = PartitionEngine()
    # Sorted ascending bounds plus repeats exercise exact hits, interval
    # hits and misses in one run; each answer must match a fresh solve.
    bounds = sorted(base_bound + s * 0.5 for s in slacks) + [base_bound]
    for bound in bounds:
        got = engine.solve(chain, bound)
        ref = bandwidth_min(chain, bound)
        assert got.cut_indices == ref.cut_indices
        assert got.weight == ref.weight


@settings(max_examples=100, deadline=None)
@given(
    chain_and_bound(),
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=6),
)
def test_one_engine_interleaved_solve_and_sweep(data, first, middle, last):
    # One engine, one plan memo: solve, then a weight-only sweep, then
    # solve again.  Quarter steps put several bounds in one stability
    # interval and repeats land on build bounds, so the run mixes exact
    # hits, interval hits, misses, and cuts rebuilt lazily after a
    # weight-only build.  Every answer is bit-identical to the reference.
    chain, base_bound = data
    engine = PartitionEngine()

    def bound(step):
        return base_bound + step * 0.25

    def reference(k):
        return bandwidth_min(chain, k)

    for step in first:
        got, ref = engine.solve(chain, bound(step)), reference(bound(step))
        assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)
    ks = [bound(step) for step in middle + first]
    weights = engine.solve_sweep(chain, ks)
    assert weights.tolist() == [reference(k).weight for k in ks]
    for step in last + middle:
        got, ref = engine.solve(chain, bound(step)), reference(bound(step))
        assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)
    stats = engine.cache.get(chain).stats
    assert stats.lookups == len(first) + len(ks) + len(last) + len(middle)


@settings(max_examples=100, deadline=None)
@given(
    chain_and_bound(),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
)
def test_plan_solve_bounds_identical_to_per_call(data, slacks, shuffler):
    from repro.engine.plan import compile_chain

    chain, base_bound = data
    # Unsorted bounds with duplicates, always including the tightest
    # feasible bound K = max(alpha) — the boundary the stability-interval
    # grouping must get exactly right.
    ks = [base_bound + s * 0.5 for s in slacks]
    ks += [chain.max_vertex_weight(), ks[0]]
    shuffler.shuffle(ks)
    weights, cuts = compile_chain(chain).solve_bounds(ks, return_cuts=True)
    for k, weight, cut in zip(ks, weights, cuts):
        ref = bandwidth_min(chain, k)
        assert weight == ref.weight  # exact, not approximate
        assert cut == list(ref.cut_indices)


@settings(max_examples=50, deadline=None)
@given(st.lists(chain_and_bound(max_tasks=12), min_size=1, max_size=6))
def test_solve_many_preserves_input_order(batches):
    engine = PartitionEngine()
    queries = [
        PartitionQuery.from_chain(chain, bound, tag=str(i))
        for i, (chain, bound) in enumerate(batches)
    ]
    results = engine.solve_many(queries)
    assert [r.index for r in results] == list(range(len(queries)))
    assert [r.tag for r in results] == [q.tag for q in queries]
    for (chain, bound), result in zip(batches, results):
        ref = bandwidth_min(chain, bound)
        assert result.ok
        assert result.cut_indices == ref.cut_indices
        assert result.weight == ref.weight


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            chain_and_bound(max_tasks=12),
            st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=4),
            st.sampled_from(("shared", "copies", "mixed")),
        ),
        min_size=1,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_solve_many_shared_or_copied_tuples(chains, shuffler):
    # Per chain, its queries share one (alpha, beta) pair, each carry
    # their own copies, or alternate; shuffled, the chains interleave.
    # Every answer is the one a per-query ``engine.solve`` gives.
    rows = []
    for (chain, base_bound), slacks, mode in chains:
        alpha, beta = tuple(chain.alpha), tuple(chain.beta)
        for j, slack in enumerate(slacks):
            bound = base_bound + slack * 0.5
            if mode == "copies" or (mode == "mixed" and j % 2):
                query = PartitionQuery.from_chain(chain, bound)
            else:
                query = PartitionQuery(alpha, beta, bound)
            rows.append((chain, query))
    shuffler.shuffle(rows)
    queries = [q for _, q in rows]
    results = PartitionEngine().solve_many(queries)
    assert [r.index for r in results] == list(range(len(queries)))
    for (chain, query), result in zip(rows, results):
        ref = PartitionEngine().solve(chain, query.bound)
        assert result.ok
        assert (result.cut_indices, result.weight) == (ref.cut_indices, ref.weight)
