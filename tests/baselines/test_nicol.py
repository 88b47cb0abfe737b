"""Unit tests for the O(n log n) baseline (:mod:`repro.baselines.nicol`)."""

import random

import pytest

from repro.baselines.exact_dp import bandwidth_min_dp
from repro.baselines.nicol import bandwidth_min_nlogn
from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, uniform_chain


class TestKnownInstances:
    def test_fixture(self, small_chain):
        result = bandwidth_min_nlogn(small_chain, 9)
        assert result.weight == 3
        assert result.is_feasible(9)

    def test_whole_fits(self, small_chain):
        assert bandwidth_min_nlogn(small_chain, 25).weight == 0.0

    def test_infeasible(self, small_chain):
        with pytest.raises(InfeasibleBoundError):
            bandwidth_min_nlogn(small_chain, 2)

    def test_uniform(self):
        result = bandwidth_min_nlogn(uniform_chain(9), 3)
        assert len(result.cut_indices) == 2
        assert result.weight == 2

    def test_final_edge_tie_picks_leftmost(self):
        # Blocks [0] [1, 2] and [0, 1] [2] both cost 2 at K=2; the
        # final-edge scan keeps the first optimum it meets.
        result = bandwidth_min_nlogn(Chain([1, 1, 1], [2, 2]), 2)
        assert result.cut_indices == [0]
        assert result.weight == 2


class TestAgreement:
    def test_matches_dp_randomized(self):
        rng = random.Random(71)
        for _ in range(50):
            chain = random_chain(rng.randint(1, 60), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight() + 1)
            a = bandwidth_min_nlogn(chain, bound)
            b = bandwidth_min_dp(chain, bound)
            assert a.weight == pytest.approx(b.weight)
            assert a.is_feasible(bound)

    def test_matches_paper_algorithm(self):
        rng = random.Random(72)
        for _ in range(30):
            chain = random_chain(rng.randint(2, 100), rng)
            bound = rng.uniform(chain.max_vertex_weight(), chain.total_weight())
            assert bandwidth_min_nlogn(chain, bound).weight == pytest.approx(
                bandwidth_min(chain, bound).weight
            )

    def test_final_edge_is_leftmost_among_optimal_cuts(self):
        # Nicol's own tie rule, checked by brute force on small integer
        # chains: of all optimal feasible cuts, the returned one ends at
        # the smallest last edge.  (Its cut may differ from Algorithm
        # 4.1's on ties; only the weights must agree.)
        rng = random.Random(73)
        for _ in range(150):
            n = rng.randint(2, 8)
            chain = random_chain(
                n, rng, vertex_range=(1, 4), edge_range=(1, 3),
                integer_weights=True,
            )
            bound = float(rng.randint(int(chain.max_vertex_weight()), 10))
            if chain.block_fits(0, n - 1, bound):
                continue
            optimal = {}
            for mask in range(1, 1 << (n - 1)):
                cut = [j for j in range(n - 1) if mask >> j & 1]
                starts = [0] + [j + 1 for j in cut]
                ends = cut + [n - 1]
                if all(map(chain.block_fits, starts, ends, [bound] * len(ends))):
                    weight = sum(chain.beta[j] for j in cut)
                    optimal.setdefault(weight, []).append(cut[-1])
            best = min(optimal)
            result = bandwidth_min_nlogn(chain, bound)
            assert result.weight == best
            assert result.cut_indices[-1] == min(optimal[best])

    def test_adversarial_heavy_window_shifts(self):
        # Long runs where the feasible window empties the heap.
        chain = Chain([9, 1, 1, 9, 1, 1, 9], [5, 1, 5, 5, 1, 5])
        for bound in (9, 10, 11, 12, 20, 31):
            a = bandwidth_min_nlogn(chain, bound)
            b = bandwidth_min_dp(chain, bound)
            assert a.weight == pytest.approx(b.weight)


class TestInstrumentation:
    """The heap counters are part of the observable contract: the
    empirical complexity gate fits them against the declared budget."""

    def test_declared_contract_counters(self):
        from repro.verify.contracts import CONTRACTS

        _budget, counters = CONTRACTS["repro.baselines.nicol.bandwidth_min_nlogn"]
        assert counters == ("heap_pushes", "heap_pops")

    def test_traced_heap_counters(self):
        from repro.observability import Tracer

        tracer = Tracer()
        chain = random_chain(30, rng=random.Random(5))
        bandwidth_min_nlogn(chain, 1.5 * chain.max_vertex_weight(), tracer=tracer)
        counts: dict = {}
        for record in tracer.records():
            for key, value in record["counts"].items():
                counts[key] = counts.get(key, 0) + value
        assert counts.get("heap_pushes", 0) > 0
        assert counts.get("heap_pops", 0) > 0
