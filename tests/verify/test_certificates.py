"""Unit tests for :mod:`repro.verify.certificates`.

Every checker must accept a genuinely optimal solution and reject each
kind of corruption with a :class:`Violation` naming the paper invariant
it breaks.
"""

import pytest

from repro.core.bandwidth import bandwidth_min
from repro.core.bottleneck import bottleneck_min
from repro.core.feasibility import PartitioningError
from repro.graphs.chain import Chain
from repro.verify import (
    CertificateReport,
    VerificationError,
    Violation,
    check_chain_partition,
    check_pareto_frontier,
    check_prime_cover,
    check_tree_cut,
)
from repro.graphs.tree import Tree


@pytest.fixture
def chain():
    # Blocks of weight > 6 force real cuts; beta chosen non-uniform so
    # the optimal cut is unique.
    return Chain([4.0, 3.0, 5.0, 2.0, 6.0], [1.0, 9.0, 2.0, 3.0])


@pytest.fixture
def tree():
    #      0
    #     / \
    #    1   2
    #       / \
    #      3   4
    return Tree(
        [5.0, 4.0, 3.0, 6.0, 2.0],
        [(0, 1), (0, 2), (2, 3), (2, 4)],
        [2.0, 7.0, 1.0, 4.0],
    )


class TestCheckChainPartition:
    def test_valid_cut_passes(self, chain):
        result = bandwidth_min(chain, 7.0)
        report = check_chain_partition(
            chain, result.cut_indices, 7.0, result.weight
        )
        assert report.ok
        assert report.checks >= 3

    def test_overloaded_block_rejected(self, chain):
        # No cuts at all: the whole chain (weight 20) is one block.
        report = check_chain_partition(chain, [], 7.0)
        assert not report.ok
        codes = [v.code for v in report.violations]
        assert "chain.load_bound" in codes
        violation = report.violations[0]
        assert "execution-time bound" in violation.invariant
        assert "K" in violation.invariant

    def test_overflowing_prefix_judged_by_block_sums(self):
        # prefix = [0, 1e308, inf, inf]: the prefix differences of the
        # later blocks are inf or nan, but each block weighs 1e308 <= K.
        chain = Chain([1e308] * 3, [1.0, 2.0])
        assert check_chain_partition(chain, [0, 1], 1.5e308, 3.0).ok
        report = check_chain_partition(chain, [0], 1.5e308)
        assert [v.code for v in report.violations] == ["chain.load_bound"]

    def test_block_a_rounding_step_over_k_rejected(self):
        # Tasks 10..11 sum to 0.2, but their prefix difference is
        # 0.20000000000000007: the block does not fit K = 0.2 under the
        # shared block-fit rule, so the certificate must agree with
        # is_feasible_cut and the prime-cover check.
        chain = Chain([0.1] * 12, [0.0] * 11)
        cut = [1, 3, 4, 5, 6, 7, 8, 9]
        assert not chain.is_feasible_cut(cut, 0.2)
        report = check_chain_partition(chain, cut, 0.2)
        assert [v.code for v in report.violations] == ["chain.load_bound"]
        assert not check_prime_cover(chain, cut, 0.2).ok

    def test_duplicate_cut_edges_rejected(self, chain):
        report = check_chain_partition(chain, [1, 1, 3], 7.0)
        assert any(
            v.code == "chain.duplicate_cut_edges" for v in report.violations
        )

    def test_out_of_range_edge_rejected(self, chain):
        report = check_chain_partition(chain, [99], 7.0)
        assert [v.code for v in report.violations] == [
            "chain.cut_edge_out_of_range"
        ]

    def test_wrong_claimed_weight_rejected(self, chain):
        result = bandwidth_min(chain, 7.0)
        report = check_chain_partition(
            chain, result.cut_indices, 7.0, result.weight + 1.0
        )
        assert any(
            v.code == "chain.bandwidth_mismatch" for v in report.violations
        )

    def test_exactly_tight_block_accepted(self):
        # A block summing exactly to K must not be flagged, even when
        # prefix-difference arithmetic lands a few ulps above it.
        alpha = [0.1] * 7 + [9.871130670353832]
        chain = Chain(alpha, [1.0] * 7)
        report = check_chain_partition(chain, [6], max(alpha))
        assert report.ok, [v.message for v in report.violations]


class TestCheckPrimeCover:
    def test_optimal_cut_covers_all_primes(self, chain):
        result = bandwidth_min(chain, 7.0)
        report = check_prime_cover(
            chain, result.cut_indices, 7.0, require_covered=True
        )
        assert report.ok

    def test_uncovered_prime_rejected(self, chain):
        report = check_prime_cover(chain, [], 7.0)
        assert not report.ok
        violation = report.violations[0]
        assert violation.code == "chain.prime_uncovered"
        assert "prime" in violation.invariant
        assert "Section 2.3" in violation.invariant

    def test_uncovered_cut_edge_flagged_only_when_required(self, chain):
        result = bandwidth_min(chain, 20.0)  # no primes at K=20
        cut = [0]  # gratuitous edge covered by no prime subpath
        assert check_prime_cover(chain, cut, 20.0).ok
        report = check_prime_cover(chain, cut, 20.0, require_covered=True)
        assert [v.code for v in report.violations] == [
            "chain.uncovered_cut_edge"
        ]
        assert result.cut_indices == []

    def test_infeasible_bound_reported_not_raised(self, chain):
        report = check_prime_cover(chain, [], 1.0)
        assert [v.code for v in report.violations] == ["chain.infeasible_bound"]


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "check, expected",
    [
        (lambda c, t: check_chain_partition(c, [], NAN), "chain.non_finite"),
        (lambda c, t: check_chain_partition(c, [], INF), "chain.non_finite"),
        (lambda c, t: check_chain_partition(c, [0, 1], 9.0, NAN),
         "chain.non_finite"),
        (lambda c, t: check_chain_partition(c, [0, 1], 9.0, -INF),
         "chain.non_finite"),
        (lambda c, t: check_tree_cut(t, [], NAN), "tree.non_finite"),
        (lambda c, t: check_tree_cut(t, [], INF), "tree.non_finite"),
        (lambda c, t: check_tree_cut(t, [(0, 1)], 9.0, claimed_bottleneck=INF),
         "tree.non_finite"),
        (lambda c, t: check_tree_cut(t, [(0, 1)], 9.0, claimed_bandwidth=NAN),
         "tree.non_finite"),
    ],
    ids=[
        "chain-nan-bound", "chain-inf-bound", "chain-nan-weight",
        "chain-neg-inf-weight", "tree-nan-bound", "tree-inf-bound",
        "tree-inf-bottleneck", "tree-nan-bandwidth",
    ],
)
def test_non_finite_bound_or_claim_is_rejected(check, expected):
    # Without the finiteness check every one of these certifies: no
    # block exceeds a NaN or infinite bound.
    chain = Chain([5.0, 5.0, 5.0], [1.0, 1.0])
    tree = Tree([3.0, 3.0, 3.0], [(0, 1), (1, 2)], [1.0, 1.0])
    report = check(chain, tree)
    assert not report.ok
    assert [v.code for v in report.violations] == [expected]


class TestCheckTreeCut:
    def test_valid_cut_passes(self, tree):
        result = bottleneck_min(tree, 9.0)
        report = check_tree_cut(
            tree, result.cut_edges, 9.0, claimed_bottleneck=result.bottleneck
        )
        assert report.ok

    def test_unknown_edge_rejected(self, tree):
        report = check_tree_cut(tree, [(1, 4)], 9.0)
        assert [v.code for v in report.violations] == ["tree.cut_edge_missing"]

    def test_edge_direction_normalized(self, tree):
        result = bottleneck_min(tree, 9.0)
        flipped = [(v, u) for u, v in result.cut_edges]
        assert check_tree_cut(tree, flipped, 9.0).ok

    def test_overweight_component_rejected(self, tree):
        report = check_tree_cut(tree, [], 9.0)  # total weight 20 > 9
        assert any(v.code == "tree.load_bound" for v in report.violations)
        assert "execution-time bound" in report.violations[0].invariant

    def test_wrong_bottleneck_rejected(self, tree):
        result = bottleneck_min(tree, 9.0)
        report = check_tree_cut(
            tree,
            result.cut_edges,
            9.0,
            claimed_bottleneck=result.bottleneck + 0.5,
        )
        assert any(
            v.code == "tree.bottleneck_mismatch" for v in report.violations
        )

    def test_wrong_bandwidth_rejected(self, tree):
        result = bottleneck_min(tree, 9.0)
        actual = sum(tree.edge_weight(u, v) for u, v in result.cut_edges)
        report = check_tree_cut(
            tree, result.cut_edges, 9.0, claimed_bandwidth=actual * 2 + 1
        )
        assert any(
            v.code == "tree.bandwidth_mismatch" for v in report.violations
        )


class TestCheckParetoFrontier:
    GOOD = [
        {"processors": 1, "bound": 20.0, "bandwidth": 0.0},
        {"processors": 2, "bound": 11.0, "bandwidth": 2.0},
        {"processors": 3, "bound": 7.0, "bandwidth": 5.0},
    ]

    def test_monotone_frontier_passes(self):
        assert check_pareto_frontier(self.GOOD).ok

    def test_bound_increase_rejected(self):
        rows = [dict(r) for r in self.GOOD]
        rows[2]["bound"] = 15.0
        report = check_pareto_frontier(rows)
        assert any(v.code == "pareto.bound_increased" for v in report.violations)

    def test_processors_must_increase(self):
        rows = [dict(r) for r in self.GOOD]
        rows[1]["processors"] = 1
        report = check_pareto_frontier(rows)
        assert any(
            v.code == "pareto.processors_not_increasing"
            for v in report.violations
        )

    def test_bandwidth_decrease_rejected_for_chains(self):
        rows = [dict(r) for r in self.GOOD]
        rows[2]["bandwidth"] = 1.0
        report = check_pareto_frontier(rows)
        assert any(
            v.code == "pareto.bandwidth_decreased" for v in report.violations
        )

    def test_bandwidth_ignored_for_trees(self):
        rows = [dict(r) for r in self.GOOD]
        rows[2]["bandwidth"] = 1.0
        assert check_pareto_frontier(rows, check_bandwidth=False).ok


class TestReportAndError:
    def test_raise_if_failed_names_invariants(self, chain):
        report = check_chain_partition(chain, [], 7.0)
        with pytest.raises(VerificationError) as exc:
            report.raise_if_failed()
        message = str(exc.value)
        assert "chain.load_bound" in message
        assert "execution-time bound" in message
        assert exc.value.report is report

    def test_verification_error_is_partitioning_error(self):
        assert issubclass(VerificationError, PartitioningError)

    def test_passing_report_returned(self, chain):
        result = bandwidth_min(chain, 7.0)
        report = check_chain_partition(chain, result.cut_indices, 7.0)
        assert report.raise_if_failed() is report

    def test_violation_as_dict_round_trip(self):
        violation = Violation("x.y", "inv", "msg", {"k": 1})
        record = violation.as_dict()
        assert record == {
            "code": "x.y",
            "invariant": "inv",
            "message": "msg",
            "context": {"k": 1},
        }

    def test_report_repr_counts(self):
        report = CertificateReport("subject")
        assert "ok" in repr(report)
        report.add("c", "i", "m")
        assert "1 violation" in repr(report)
