"""Unit tests for :mod:`repro.core.prime_subpaths`.

The fixture chain is alpha=[4,3,5,2,6], beta=[7,1,9,2]; under K=9 its
prime subpaths are tasks [0..2], [1..3], [2..4] (see conftest).
"""

import itertools
import random

import pytest

from repro.core.feasibility import InfeasibleBoundError
from repro.core.prime_subpaths import (
    PrimeStructure,
    PrimeSubpath,
    edge_membership_intervals,
    find_prime_subpaths,
    reduce_edges,
)
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, uniform_chain


class TestPrimeSubpath:
    def test_edge_interval(self):
        sp = PrimeSubpath(2, 5, 30.0)
        assert sp.first_edge == 2
        assert sp.last_edge == 4
        assert sp.num_tasks == 4
        assert sp.num_edges == 3

    def test_contains_edge(self):
        sp = PrimeSubpath(1, 3, 10.0)
        assert not sp.contains_edge(0)
        assert sp.contains_edge(1)
        assert sp.contains_edge(2)
        assert not sp.contains_edge(3)


class TestFindPrimeSubpaths:
    def test_fixture_primes(self, small_chain):
        primes = find_prime_subpaths(small_chain, 9)
        assert [(p.first_task, p.last_task) for p in primes] == [
            (0, 2),
            (1, 3),
            (2, 4),
        ]
        assert [p.weight for p in primes] == [12, 10, 13]

    def test_no_primes_when_bound_large(self, small_chain):
        assert find_prime_subpaths(small_chain, 20) == []
        assert find_prime_subpaths(small_chain, 100) == []

    def test_bound_just_below_total(self, small_chain):
        primes = find_prime_subpaths(small_chain, 19.5)
        assert [(p.first_task, p.last_task) for p in primes] == [(0, 4)]

    def test_infeasible_bound(self, small_chain):
        with pytest.raises(InfeasibleBoundError):
            find_prime_subpaths(small_chain, 5.9)

    def test_single_task(self, single_task_chain):
        assert find_prime_subpaths(single_task_chain, 5.0) == []

    def test_endpoints_strictly_increasing(self):
        chain = random_chain(300, 5, vertex_range=(1, 10))
        primes = find_prime_subpaths(chain, 25)
        firsts = [p.first_task for p in primes]
        lasts = [p.last_task for p in primes]
        assert firsts == sorted(set(firsts))
        assert lasts == sorted(set(lasts))

    def test_every_prime_is_critical_and_minimal(self):
        chain = random_chain(200, 8, vertex_range=(1, 10))
        bound = 30.0
        for sp in find_prime_subpaths(chain, bound):
            weight = chain.segment_weight(sp.first_task, sp.last_task)
            assert weight > bound
            # Dropping either endpoint makes it fit.
            assert chain.segment_weight(sp.first_task + 1, sp.last_task) <= bound
            assert chain.segment_weight(sp.first_task, sp.last_task - 1) <= bound

    def test_matches_exhaustive_definition(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 12)
            chain = random_chain(n, rng, vertex_range=(1, 5), integer_weights=True)
            bound = float(rng.randint(int(chain.max_vertex_weight()), 15))
            # All critical subpaths by brute force.
            critical = [
                (a, b)
                for a, b in itertools.combinations(range(n + 1), 2)
                if chain.segment_weight(a, b - 1) > bound
            ]
            critical = [(a, b - 1) for a, b in critical]
            minimal = [
                (a, b)
                for a, b in critical
                if not any(
                    (a2 >= a and b2 <= b and (a2, b2) != (a, b))
                    for a2, b2 in critical
                )
            ]
            primes = find_prime_subpaths(chain, bound)
            assert [(p.first_task, p.last_task) for p in primes] == sorted(minimal)

    def test_uniform_chain_count(self):
        # Unit weights, K=3: every window of 4 tasks is critical and
        # minimal -> n - 3 primes.
        chain = uniform_chain(10)
        primes = find_prime_subpaths(chain, 3)
        assert len(primes) == 7
        assert all(p.num_tasks == 4 for p in primes)

    def test_p_bounded_by_n_minus_1(self):
        for seed in range(5):
            chain = random_chain(100, seed, vertex_range=(1, 10))
            primes = find_prime_subpaths(chain, 10.5)
            assert len(primes) <= chain.num_tasks - 1


class TestEdgeMembership:
    def test_fixture_membership(self, small_chain):
        primes = find_prime_subpaths(small_chain, 9)
        lo, hi = edge_membership_intervals(primes, small_chain.num_edges)
        # Edge 0 in P0 only; edge 1 in P0,P1; edge 2 in P1,P2; edge 3 in P2.
        assert (lo[0], hi[0]) == (0, 0)
        assert (lo[1], hi[1]) == (0, 1)
        assert (lo[2], hi[2]) == (1, 2)
        assert (lo[3], hi[3]) == (2, 2)

    def test_uncovered_edge(self):
        chain = Chain([9, 9, 1], [5, 5])
        primes = find_prime_subpaths(chain, 10)
        lo, hi = edge_membership_intervals(primes, chain.num_edges)
        # The only prime is [0..1] (edge 0); the tail pair (9, 1) fits in
        # the bound, so edge 1 belongs to no prime.
        assert (lo[0], hi[0]) == (0, 0)
        assert lo[1] > hi[1]

    def test_membership_matches_definition(self):
        rng = random.Random(17)
        for _ in range(20):
            chain = random_chain(rng.randint(2, 30), rng, vertex_range=(1, 6))
            bound = rng.uniform(chain.max_vertex_weight(), 25)
            primes = find_prime_subpaths(chain, bound)
            lo, hi = edge_membership_intervals(primes, chain.num_edges)
            for j in range(chain.num_edges):
                containing = [
                    i for i, p in enumerate(primes) if p.contains_edge(j)
                ]
                if containing:
                    assert lo[j] == containing[0]
                    assert hi[j] == containing[-1]
                    assert containing == list(range(lo[j], hi[j] + 1))
                else:
                    assert lo[j] > hi[j]


class TestReduceEdges:
    def test_keeps_lightest_per_class(self):
        # Unit vertex weights, K=4: primes are all 5-task windows; edges
        # within distance are grouped.
        chain = Chain([1] * 6, [9, 2, 5, 1, 7])
        primes = find_prime_subpaths(chain, 4)
        reduced = reduce_edges(chain, primes)
        indices = [e.index for e in reduced]
        # Edges 0 and 1 share membership {P0}? With n=6, K=4: windows of
        # 5 tasks: [0..4] and [1..5]; P0 edges 0..3, P1 edges 1..4.
        # Classes: {0}:P0, {1,2,3}:P0+P1, {4}:P1 -> keep 0, argmin(2,5,1)=3, 4.
        assert indices == [0, 3, 4]

    def test_reduction_bound(self):
        rng = random.Random(3)
        for _ in range(20):
            chain = random_chain(rng.randint(2, 200), rng)
            bound = rng.uniform(chain.max_vertex_weight(), 60)
            structure = PrimeStructure.compute(chain, bound)
            if structure.p:
                assert structure.r <= min(chain.num_edges, 2 * structure.p - 1)

    def test_no_reduction_keeps_all_covered(self, small_chain):
        primes = find_prime_subpaths(small_chain, 9)
        full = reduce_edges(small_chain, primes, apply_reduction=False)
        assert [e.index for e in full] == [0, 1, 2, 3]

    def test_gamma_and_q(self, small_chain):
        primes = find_prime_subpaths(small_chain, 9)
        reduced = reduce_edges(small_chain, primes)
        by_index = {e.index: e for e in reduced}
        assert by_index[1].gamma == -1  # inside the first prime
        assert by_index[2].gamma == 0
        assert by_index[1].q == 2

    def test_drops_uncovered(self):
        chain = Chain([9, 9, 1], [5, 5])
        primes = find_prime_subpaths(chain, 10)
        reduced = reduce_edges(chain, primes)
        assert [e.index for e in reduced] == [0]

    def test_equal_weights_keep_leftmost_edge_of_class(self):
        # K=12 on six weight-3 tasks: primes [0..4] and [1..5], classes
        # {0}:P0, {1,2,3}:P0+P1, {4}:P1.  Every beta ties, so the class
        # {1,2,3} keeps its leftmost edge, not its last.
        chain = Chain([3] * 6, [2] * 5)
        reduced = reduce_edges(chain, find_prime_subpaths(chain, 12))
        assert [e.index for e in reduced] == [0, 1, 4]


class TestPrimeStructure:
    def test_compute(self, small_chain):
        structure = PrimeStructure.compute(small_chain, 9)
        assert structure.p == 3
        # Memberships {P0}, {P0,P1}, {P1,P2}, {P2} are all distinct.
        assert structure.r == 4
        assert structure.q_values == [1, 2, 2, 1]
        assert structure.q == pytest.approx(1.5)

    def test_mean_prime_length(self, small_chain):
        structure = PrimeStructure.compute(small_chain, 9)
        assert structure.mean_prime_length() == pytest.approx(3.0)

    def test_empty(self, small_chain):
        structure = PrimeStructure.compute(small_chain, 25)
        assert structure.p == 0
        assert structure.q == 0.0
        assert structure.mean_prime_length() == 0.0
        assert structure.min_prime_weight() == float("inf")

    def test_min_prime_weight(self, small_chain):
        # Prime weights at K=9 are 12, 10 and 13.
        structure = PrimeStructure.compute(small_chain, 9)
        assert structure.min_prime_weight() == 10.0


class TestInstrumentationContracts:
    """Counter declarations and counter emissions are contract surface:
    the empirical complexity gate consumes both."""

    def test_declared_contract_counters(self):
        from repro.verify.contracts import CONTRACTS

        assert CONTRACTS["repro.core.prime_subpaths.find_prime_subpaths"][1] == (
            "prime_tasks_scanned",
            "prime_window_advances",
            "prime_candidates",
        )
        assert CONTRACTS["repro.core.prime_subpaths.compute_prime_structure"][1] == (
            "prime_tasks_scanned",
            "prime_window_advances",
            "prime_candidates",
            "prime_edge_scans",
        )

    def test_reduce_edges_counts_edge_scans(self):
        from repro.instrumentation.counters import OpCounter

        chain = Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])
        primes = find_prime_subpaths(chain, 9)
        counter = OpCounter()
        reduce_edges(chain, primes, counter=counter)
        assert counter.get("prime_edge_scans") == chain.num_edges

    def test_exact_counters_all_equal_chain(self):
        # Pinned counter totals on a 6-task all-equal chain at a bound
        # that keeps every window at a single task (b == a after every
        # candidate).  The sweep must do exactly one window advance per
        # task -- an extra or missing advance means the two-pointer
        # bookkeeping drifted.
        from repro.instrumentation.counters import OpCounter

        chain = Chain([5.0] * 6, [1.0] * 5)
        counter = OpCounter()
        primes = find_prime_subpaths(chain, 5.0, counter)
        assert [(p.first_task, p.last_task) for p in primes] == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
        ]
        assert counter.as_dict() == {
            "prime_tasks_scanned": 6,
            "prime_window_advances": 6,
            "prime_candidates": 5,
        }

    def test_cancellation_noise_never_yields_single_task_prime(self):
        # Floating-point regression: prefix[a+1] - prefix[a] can exceed
        # the bound even though the exact alpha[a] equals it (summation
        # noise).  Here prefix = cumsum([0.06, 0.21, 0.33]) makes the
        # last single task *look* critical at K = 0.33; the sweep must
        # restart the window at two tasks whenever b == a (not just
        # b < a), or it emits a spurious zero-edge prime (2, 2) that no
        # cut can hit.
        chain = Chain([0.06, 0.21, 0.33], [1.0, 1.0])
        primes = find_prime_subpaths(chain, 0.33)
        assert [(p.first_task, p.last_task) for p in primes] == [(1, 2)]
        assert all(p.last_task > p.first_task for p in primes)
