"""Property-based tests for the verification layer.

On arbitrary instances: every solver output passes its own certificate,
and deliberately corrupted solutions are rejected.  This closes the loop
on :mod:`repro.verify` — the checkers are only trustworthy if they
accept all honest answers *and* refuse all doctored ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import bandwidth_min
from repro.core.bottleneck import bottleneck_min
from repro.core.processor_min import processor_min
from repro.graphs.tree import Tree
from repro.verify import (
    check_chain_partition,
    check_prime_cover,
    check_tree_cut,
)
from repro.verify.runtime import verify_chain_result, verify_cache_solve
from tests.property.strategies import chain_and_bound, edge_weight, weight


@st.composite
def tree_and_bound(draw, max_vertices: int = 20):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    edges = []
    edge_weights = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
        edge_weights.append(draw(edge_weight))
    tree = Tree(weights, edges, edge_weights)
    slack = draw(st.integers(min_value=0, max_value=40)) * 0.5
    return tree, tree.max_vertex_weight() + slack


@settings(max_examples=120, deadline=None)
@given(chain_and_bound())
def test_bandwidth_min_passes_full_certificate(data):
    chain, bound = data
    result = bandwidth_min(chain, bound)
    report = verify_chain_result(
        chain,
        result.cut_indices,
        bound,
        claimed_weight=result.weight,
        optimal_bandwidth=True,
    )
    assert report.ok


@settings(max_examples=60, deadline=None)
@given(chain_and_bound())
def test_numpy_backend_passes_cache_certificate(data):
    pytest.importorskip("numpy")
    from repro.engine import PartitionEngine

    chain, bound = data
    result = PartitionEngine().solve(chain, bound)
    # Includes the pure-Python cross-check: the engine and the reference
    # must agree element for element.
    verify_cache_solve(chain, bound, result)


@settings(max_examples=120, deadline=None)
@given(chain_and_bound())
def test_corrupted_chain_claims_rejected(data):
    chain, bound = data
    result = bandwidth_min(chain, bound)

    # Inflated objective claims never verify.
    report = check_chain_partition(
        chain, result.cut_indices, bound, result.weight + 1.0
    )
    assert any(v.code == "chain.bandwidth_mismatch" for v in report.violations)

    # Dropping a cut edge merges two blocks.  The checker's verdict must
    # match ground-truth feasibility exactly: a zero-weight cut edge can
    # be redundant (free to include), so the merged cut is not always
    # infeasible — but whenever it is, both certificates must say so.
    if result.cut_indices:
        broken = result.cut_indices[:-1]
        partition = check_chain_partition(chain, broken, bound)
        cover = check_prime_cover(chain, broken, bound)
        feasible = chain.is_feasible_cut(broken, bound)
        assert partition.ok == feasible
        assert cover.ok == feasible


@settings(max_examples=120, deadline=None)
@given(tree_and_bound())
def test_tree_solvers_pass_certificates(data):
    tree, bound = data
    bott = bottleneck_min(tree, bound)
    assert check_tree_cut(
        tree, bott.cut_edges, bound, claimed_bottleneck=bott.bottleneck
    ).ok
    proc = processor_min(tree, bound)
    assert check_tree_cut(tree, proc.cut_edges, bound).ok


@settings(max_examples=120, deadline=None)
@given(tree_and_bound())
def test_corrupted_tree_claims_rejected(data):
    tree, bound = data
    result = bottleneck_min(tree, bound)
    report = check_tree_cut(
        tree,
        result.cut_edges,
        bound,
        claimed_bottleneck=result.bottleneck + 1.0,
    )
    assert any(v.code == "tree.bottleneck_mismatch" for v in report.violations)

    # Removing a cut edge merges two components; if the merged result
    # still fits under the bound the solver's cut was not minimal-ish,
    # but the certificate only promises load-bound detection, so only
    # assert when the merge genuinely overloads.
    if result.cut_edges:
        broken = sorted(result.cut_edges)[:-1]
        merged = check_tree_cut(tree, broken, bound)
        overweight = any(
            w > bound for w in tree.component_weights(set(broken))
        )
        assert merged.ok != overweight


@settings(max_examples=80, deadline=None)
@given(chain_and_bound())
def test_prime_cover_matches_feasibility(data):
    """A cut covers all primes iff it satisfies the load bound — the
    paper's Section 2.3 characterization, checked on arbitrary cuts."""
    chain, bound = data
    result = bandwidth_min(chain, bound)
    for candidate in ([], result.cut_indices, list(range(chain.num_edges))):
        covered = check_prime_cover(chain, candidate, bound).ok
        feasible = chain.is_feasible_cut(candidate, bound)
        assert covered == feasible
