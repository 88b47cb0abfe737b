"""Unit tests for the TEMP_S queue (:mod:`repro.core.temp_s`)."""

import pytest

from repro.core.temp_s import Row, SolutionNode, TempSQueue, solution_weight
from repro.instrumentation.counters import OpCounter


def node(edge: int, weight: float, prev=None) -> SolutionNode:
    return SolutionNode(edge, weight, prev)


class TestSolutionNode:
    def test_single(self):
        sol = node(3, 5.0)
        assert sol.weight == 5.0
        assert sol.edge_indices() == [3]

    def test_chain_accumulates(self):
        sol = node(7, 2.0, node(3, 5.0))
        assert sol.weight == 7.0
        assert sol.edge_indices() == [3, 7]

    def test_solution_weight_none(self):
        assert solution_weight(None) == 0.0
        assert solution_weight(node(0, 4.0)) == 4.0

    def test_shared_prefix(self):
        base = node(1, 1.0)
        a = node(5, 2.0, base)
        b = node(6, 3.0, base)
        assert a.edge_indices() == [1, 5]
        assert b.edge_indices() == [1, 6]


class TestQueueBasics:
    def test_empty(self):
        q = TempSQueue()
        assert len(q) == 0
        assert not q
        assert q.covered_range() is None
        with pytest.raises(IndexError):
            q.top
        with pytest.raises(IndexError):
            q.bottom

    def test_invalid_search(self):
        with pytest.raises(ValueError):
            TempSQueue(search="ternary")

    def test_first_update_creates_row(self):
        q = TempSQueue()
        q.update(5.0, node(0, 5.0), 0, 2)
        assert len(q) == 1
        assert q.covered_range() == (0, 2)
        assert q.top.w == 5.0


class TestUpdateMerging:
    def test_smaller_w_merges_everything(self):
        q = TempSQueue()
        q.update(5.0, node(0, 5.0), 0, 0)
        q.update(3.0, node(1, 3.0), 0, 1)
        assert len(q) == 1
        assert q.top.w == 3.0
        assert q.covered_range() == (0, 1)

    def test_larger_w_appends_new_subpaths_only(self):
        q = TempSQueue()
        q.update(3.0, node(0, 3.0), 0, 0)
        q.update(5.0, node(1, 5.0), 0, 1)
        assert len(q) == 2
        rows = list(q.rows())
        assert (rows[0].lo, rows[0].hi, rows[0].w) == (0, 0, 3.0)
        assert (rows[1].lo, rows[1].hi, rows[1].w) == (1, 1, 5.0)

    def test_larger_w_no_new_subpaths_is_noop(self):
        q = TempSQueue()
        q.update(3.0, node(0, 3.0), 0, 1)
        q.update(9.0, node(1, 9.0), 0, 1)
        assert len(q) == 1
        assert q.top.w == 3.0

    def test_middle_merge(self):
        q = TempSQueue()
        q.update(2.0, node(0, 2.0), 0, 0)
        q.update(6.0, node(1, 6.0), 0, 1)
        q.update(8.0, node(2, 8.0), 0, 2)
        q.update(4.0, node(3, 4.0), 0, 3)  # replaces rows with w in {6, 8}
        rows = list(q.rows())
        assert [(r.lo, r.hi, r.w) for r in rows] == [(0, 0, 2.0), (1, 3, 4.0)]

    def test_equal_w_merges(self):
        q = TempSQueue()
        q.update(4.0, node(0, 4.0), 0, 0)
        q.update(4.0, node(1, 4.0), 0, 1)
        assert len(q) == 1
        assert q.top.sol.edge_index == 1

    def test_invariants_maintained(self):
        q = TempSQueue()
        values = [5.0, 2.0, 7.0, 7.0, 1.0, 9.0, 3.0]
        for i, w in enumerate(values):
            q.update(w, node(i, w), 0, i)
            q.check_invariants()


class TestPopCompleted:
    def build(self):
        q = TempSQueue()
        q.update(2.0, node(0, 2.0), 0, 0)
        q.update(6.0, node(1, 6.0), 0, 1)
        q.update(8.0, node(2, 8.0), 0, 2)
        return q

    def test_pop_nothing(self):
        q = self.build()
        assert q.pop_completed(0) is None
        assert len(q) == 3

    def test_pop_whole_row(self):
        q = self.build()
        completed = q.pop_completed(1)
        assert completed.w == 2.0
        assert q.covered_range() == (1, 2)

    def test_pop_trims_straddling_row(self):
        q = TempSQueue()
        q.update(2.0, node(0, 2.0), 0, 4)  # one row covering 0..4
        completed = q.pop_completed(2)
        assert completed.w == 2.0
        assert q.covered_range() == (2, 4)
        assert len(q) == 1

    def test_pop_across_rows(self):
        q = self.build()
        completed = q.pop_completed(2)
        assert completed.w == 6.0  # row covering prime 1 was popped last
        assert q.covered_range() == (2, 2)

    def test_pop_trims_row_ending_at_threshold(self):
        # A row whose last prime is the first open one is trimmed to
        # that prime, not retired.
        q = TempSQueue()
        q.update(2.0, node(0, 2.0), 0, 2)  # one row covering 0..2
        completed = q.pop_completed(2)
        assert completed.w == 2.0
        assert q.covered_range() == (2, 2)

    def test_pop_everything(self):
        q = self.build()
        completed = q.pop_completed(3)
        assert completed.w == 8.0
        assert not q

    def test_update_after_drain(self):
        q = self.build()
        q.pop_completed(3)
        q.update(5.0, node(9, 5.0), 3, 4)
        assert q.covered_range() == (3, 4)

    def test_compaction_keeps_contents(self):
        q = TempSQueue()
        # Many strictly increasing rows, then pop most of them one by one.
        for i in range(200):
            q.update(float(i), node(i, float(i)), 0, i)
        for prime in range(1, 150):
            q.pop_completed(prime)
            assert q.covered_range() == (prime, 199)
        q.check_invariants()


class TestSearchStrategies:
    @pytest.mark.parametrize("search", ["binary", "linear"])
    def test_same_results(self, search):
        q = TempSQueue(search=search)
        sequence = [4.0, 7.0, 1.0, 9.0, 9.0, 2.0, 8.0]
        for i, w in enumerate(sequence):
            q.update(w, node(i, w), 0, i)
        rows = [(r.lo, r.hi, r.w) for r in q.rows()]
        # Suffix minima of the sequence bucketed by opening index.
        assert rows[0][2] == 1.0
        q.check_invariants()

    def test_strategies_agree(self):
        seq = [5.0, 3.0, 8.0, 8.0, 2.0, 7.0, 7.0, 1.0, 6.0]
        results = []
        for search in ("binary", "linear"):
            q = TempSQueue(search=search)
            for i, w in enumerate(seq):
                q.update(w, node(i, w), 0, i)
            results.append([(r.lo, r.hi, r.w) for r in q.rows()])
        assert results[0] == results[1]

    def test_linear_equal_w_merges(self):
        q = TempSQueue(search="linear")
        q.update(4.0, node(0, 4.0), 0, 0)
        q.update(4.0, node(1, 4.0), 0, 1)
        assert [(r.lo, r.hi, r.w) for r in q.rows()] == [(0, 1, 4.0)]
        assert q.top.sol.edge_index == 1

    def test_linear_counts_search_steps(self):
        # Only the last update pops: past W=5 and W=3, two steps.
        counter = OpCounter()
        q = TempSQueue(search="linear", counter=counter)
        for i, w in enumerate([3.0, 5.0, 1.0]):
            q.update(w, node(i, w), 0, i)
        assert counter.get("search_steps") == 2

    @pytest.mark.parametrize("probe", [0.5, 1.0, 1.5, 2.5, 3.5, 4.5, 5.0, 5.5])
    def test_binary_search_finds_first_row_at_least_w(self, probe):
        # W column 1..5; the probe replaces every row with W >= probe.
        q = TempSQueue(search="binary")
        for i in range(5):
            q.update(float(i + 1), node(i, float(i + 1)), 0, i)
        q.update(probe, node(5, probe), 0, 5)
        kept = [float(w) for w in range(1, 6) if w < probe]
        assert [r.w for r in q.rows()] == kept + [probe]
        q.check_invariants()

    def test_counter_traces_length(self):
        counter = OpCounter()
        q = TempSQueue(counter=counter)
        for i, w in enumerate([3.0, 1.0, 4.0]):
            q.update(w, node(i, w), 0, i)
        assert len(counter.traces["temp_s_len"]) == 3
        assert counter.get("search_steps") > 0


class TestInvariantChecker:
    def test_detects_gap(self):
        q = TempSQueue()
        q.update(1.0, node(0, 1.0), 0, 0)
        q.update(2.0, node(1, 2.0), 0, 1)
        row = list(q.rows())[1]
        row.lo, row.hi = 3, 3  # corrupt: leaves a gap after row 0
        with pytest.raises(AssertionError, match="gap"):
            q.check_invariants()

    def test_detects_non_increasing_w(self):
        q = TempSQueue()
        q.update(1.0, node(0, 1.0), 0, 0)
        q.update(2.0, node(1, 2.0), 0, 1)
        list(q.rows())[1].w = 0.5  # corrupt
        with pytest.raises(AssertionError, match="increasing"):
            q.check_invariants()

    def test_detects_equal_w(self):
        # The W column must be STRICTLY increasing: a tie is a violation
        # too, not just an inversion.
        q = TempSQueue()
        q.update(1.0, node(0, 1.0), 0, 0)
        q.update(2.0, node(1, 2.0), 0, 1)
        list(q.rows())[1].w = 1.0  # corrupt: duplicate W
        with pytest.raises(AssertionError, match="increasing"):
            q.check_invariants()
