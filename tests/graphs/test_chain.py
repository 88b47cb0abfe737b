"""Unit tests for :mod:`repro.graphs.chain`."""

import copy
import math
import pickle
import random
from itertools import accumulate

import pytest

from repro.graphs.chain import Chain
from repro.graphs.task_graph import TaskGraph


class TestConstruction:
    def test_basic(self, small_chain):
        assert small_chain.num_tasks == 5
        assert small_chain.num_edges == 4
        assert small_chain.total_weight() == 20

    def test_single_task(self):
        chain = Chain([3.0], [])
        assert chain.num_tasks == 1
        assert chain.num_edges == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one task"):
            Chain([], [])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="edge weights"):
            Chain([1, 2], [1, 2])

    def test_rejects_non_positive_vertex(self):
        with pytest.raises(ValueError, match="non-positive"):
            Chain([1, 0], [1])

    def test_rejects_negative_edge(self):
        with pytest.raises(ValueError, match="negative"):
            Chain([1, 2], [-1])

    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValueError, match="task 1 has non-finite weight nan"):
            Chain([1.0, math.nan], [1.0])
        with pytest.raises(ValueError, match="task 0 has non-finite weight inf"):
            Chain([math.inf, 1.0], [1.0])
        with pytest.raises(ValueError, match="edge 1 has non-finite weight nan"):
            Chain([1.0, 2.0, 3.0], [1.0, math.nan])
        with pytest.raises(ValueError, match="edge 0 has non-finite weight inf"):
            Chain([1.0, 2.0], [math.inf])
        with pytest.raises(ValueError):
            Chain([[1.0, 2.0]], [])

    def test_overflowing_prefix_is_accepted(self):
        chain = Chain([1e308, 1e308, 1.0], [1.0, 2.0])
        assert chain.prefix_weights() == [0.0, 1e308, math.inf, math.inf]
        assert chain.total_weight() == math.inf
        assert chain.max_vertex_weight() == 1e308

    def test_negative_zero_edge_is_stored_as_zero(self):
        chain = Chain([1.0, 2.0, 3.0], [-0.0, 1.0])
        assert [b.hex() for b in chain.beta] == [(0.0).hex(), (1.0).hex()]
        assert chain.fingerprint() == Chain([1.0, 2.0, 3.0], [0.0, 1.0]).fingerprint()

    def test_any_iterable_of_numbers(self):
        want = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        assert Chain((1, 2, 3), iter([4, 5])) == want
        assert Chain((x for x in [1, 2, 3]), range(4, 6)) == want
        assert all(type(x) is float for x in Chain([1, 2], [3]).alpha)

    def test_zero_edge_weight_allowed(self):
        chain = Chain([1, 2], [0.0])
        assert chain.edge_weight(0) == 0.0


class TestFrozenBuffers:
    """A chain copies its input once and cannot be changed afterwards."""

    def test_caller_cannot_mutate_a_validated_chain(self):
        np = pytest.importorskip("numpy")
        alpha, beta = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
        chain = Chain(alpha, beta)
        alpha[0], beta[0] = -1.0, math.nan
        assert chain.alpha == [1.0, 2.0, 3.0] and chain.beta == [4.0, 5.0]
        for buf in chain.buffers():
            with pytest.raises(ValueError):
                buf[0] = 9.0
        with pytest.raises(ValueError, match="one-dimensional"):
            Chain(np.ones((2, 2)), [1.0])

    def test_copies_are_frozen_again(self):
        pytest.importorskip("numpy")
        chain = Chain([1.0, 2.0, 3.0], [-0.0, 5.0])
        chain.fingerprint()
        for copy_ in (pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)):
            assert all(not buf.flags.writeable for buf in copy_.buffers())
            assert copy_.fingerprint() == chain.fingerprint()
            assert copy_.alpha == chain.alpha and copy_.beta == chain.beta

    def test_prefix_is_bit_identical_to_accumulate(self):
        rng = random.Random(7)
        alpha = [rng.uniform(0.1, 100.0) for _ in range(20000)]
        chain = Chain(alpha, [1.0] * 19999)
        want = [0.0, *accumulate(alpha)]
        assert [x.hex() for x in chain.prefix_weights()] == [x.hex() for x in want]
        assert chain.alpha == alpha
        assert chain.max_vertex_weight() == max(alpha)


class TestSegments:
    def test_segment_weight(self, small_chain):
        assert small_chain.segment_weight(0, 0) == 4
        assert small_chain.segment_weight(0, 4) == 20
        assert small_chain.segment_weight(1, 3) == 10

    def test_segment_out_of_range(self, small_chain):
        with pytest.raises(IndexError):
            small_chain.segment_weight(0, 5)
        with pytest.raises(IndexError):
            small_chain.segment_weight(3, 2)

    def test_prefix_weights(self, small_chain):
        assert small_chain.prefix_weights() == [0, 4, 7, 12, 14, 20]

    def test_max_vertex_weight(self, small_chain):
        assert small_chain.max_vertex_weight() == 6


class TestCuts:
    def test_empty_cut_single_block(self, small_chain):
        assert small_chain.cut_components([]) == [(0, 4)]

    def test_cut_blocks(self, small_chain):
        assert small_chain.cut_components([1, 3]) == [(0, 1), (2, 3), (4, 4)]

    def test_cut_all_edges(self, small_chain):
        blocks = small_chain.cut_components([0, 1, 2, 3])
        assert blocks == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_duplicate_cut_indices_ignored(self, small_chain):
        assert small_chain.cut_components([1, 1]) == [(0, 1), (2, 4)]

    def test_cut_index_out_of_range(self, small_chain):
        with pytest.raises(IndexError):
            small_chain.cut_components([4])

    def test_component_weights(self, small_chain):
        assert small_chain.component_weights([1, 3]) == [7, 7, 6]

    def test_cut_weight(self, small_chain):
        assert small_chain.cut_weight([1, 3]) == 3
        assert small_chain.cut_weight([]) == 0

    def test_is_feasible_cut(self, small_chain):
        assert small_chain.is_feasible_cut([1, 3], 9)
        assert not small_chain.is_feasible_cut([], 9)
        assert small_chain.is_feasible_cut([], 20)


class TestConversions:
    def test_round_trip_via_task_graph(self, small_chain):
        graph = small_chain.to_task_graph()
        assert graph.is_path()
        back = Chain.from_task_graph(graph)
        assert back == small_chain

    def test_task_graph_weights(self, small_chain):
        graph = small_chain.to_task_graph()
        assert graph.vertex_weight(2) == 5
        assert graph.edge_weight(2, 3) == 9

    def test_from_task_graph_rejects_non_path(self):
        star = TaskGraph([1] * 4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="not a simple path"):
            Chain.from_task_graph(star)

    def test_from_task_graph_relabels(self):
        # Path 2 - 0 - 1 with distinct weights.
        graph = TaskGraph([5, 7, 3], [(0, 2), (0, 1)], [10, 20])
        chain = Chain.from_task_graph(graph)
        assert chain.alpha == [7, 5, 3]  # starts at lowest-id endpoint (1)
        assert chain.beta == [20, 10]

    def test_single_vertex_from_task_graph(self):
        chain = Chain.from_task_graph(TaskGraph([4.0]))
        assert chain.num_tasks == 1
        assert chain.alpha == [4.0]

    def test_equality(self, small_chain):
        assert small_chain == Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])
        assert small_chain != Chain([4, 3, 5, 2, 7], [7, 1, 9, 2])
