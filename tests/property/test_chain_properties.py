"""Property-based tests for the chain partitioning algorithms.

Core invariants, on arbitrary instances:

- Algorithm 4.1, the naive recurrence, the O(n log n) baseline, the
  monotone deque and the quadratic DP all report the same optimum;
- results are always feasible and self-consistent;
- every prime subpath is hit by the returned cut (the hitting-set
  characterization of Section 2.3);
- the optimum is monotone non-increasing in the bound K.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact_dp import bandwidth_min_dp
from repro.baselines.nicol import bandwidth_min_nlogn
from repro.baselines.sliding_window import bandwidth_min_deque
from repro.core.bandwidth import bandwidth_min
from repro.core.prime_subpaths import find_prime_subpaths
from repro.core.recurrence import bandwidth_min_naive
from tests.property.strategies import chain_and_bound


@settings(max_examples=150, deadline=None)
@given(chain_and_bound())
def test_all_algorithms_agree(data):
    chain, bound = data
    reference = bandwidth_min_dp(chain, bound).weight
    for algo in (
        bandwidth_min,
        bandwidth_min_naive,
        bandwidth_min_nlogn,
        bandwidth_min_deque,
    ):
        assert abs(algo(chain, bound).weight - reference) < 1e-9


@settings(max_examples=150, deadline=None)
@given(chain_and_bound())
def test_result_is_feasible_and_consistent(data):
    chain, bound = data
    result = bandwidth_min(chain, bound)
    assert result.is_feasible(bound)
    assert abs(result.weight - chain.cut_weight(result.cut_indices)) < 1e-9
    assert result.cut_indices == sorted(set(result.cut_indices))
    assert all(0 <= i < chain.num_edges for i in result.cut_indices)


@settings(max_examples=150, deadline=None)
@given(chain_and_bound())
def test_cut_hits_every_prime_subpath(data):
    chain, bound = data
    result = bandwidth_min(chain, bound)
    cut = set(result.cut_indices)
    for prime in find_prime_subpaths(chain, bound):
        assert any(prime.first_edge <= e <= prime.last_edge for e in cut)


@settings(max_examples=80, deadline=None)
@given(chain_and_bound(), st.integers(min_value=1, max_value=10))
def test_optimum_monotone_in_bound(data, extra):
    chain, bound = data
    loose = bandwidth_min(chain, bound + extra * 0.5).weight
    tight = bandwidth_min(chain, bound).weight
    assert loose <= tight + 1e-9


@settings(max_examples=80, deadline=None)
@given(chain_and_bound())
def test_search_variants_equal(data):
    chain, bound = data
    weights = {
        round(bandwidth_min(chain, bound, search=s, apply_reduction=r).weight, 9)
        for s in ("binary", "linear")
        for r in (True, False)
    }
    assert len(weights) == 1


@settings(max_examples=80, deadline=None)
@given(chain_and_bound())
def test_empty_cut_iff_total_fits(data):
    chain, bound = data
    result = bandwidth_min(chain, bound)
    has_positive_edges = all(b > 0 for b in chain.beta)
    if chain.total_weight() <= bound:
        assert result.cut_indices == []
    elif has_positive_edges:
        assert result.cut_indices != []
