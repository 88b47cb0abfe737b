"""Unit tests for :mod:`repro.graphs.tree`."""

import pytest

from repro.graphs.task_graph import TaskGraph
from repro.graphs.tree import Tree


class TestConstruction:
    def test_valid_tree(self, small_tree):
        assert small_tree.num_vertices == 7
        assert small_tree.num_edges == 6
        assert small_tree.is_tree()

    def test_single_vertex(self):
        t = Tree([5.0], [])
        assert t.num_vertices == 1
        assert t.leaves() == [0]

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not a tree"):
            Tree([1, 1, 1], [(0, 1)])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="not a tree"):
            Tree([1, 1, 1], [(0, 1), (1, 2), (0, 2)])

    def test_from_task_graph(self, small_tree):
        graph = TaskGraph(
            small_tree.vertex_weights,
            list(small_tree.edges()),
            small_tree.edge_weight_map(),
        )
        assert Tree.from_task_graph(graph) == small_tree

    def test_from_task_graph_rejects_non_tree(self):
        with pytest.raises(ValueError):
            Tree.from_task_graph(TaskGraph([1, 1], []))

    def test_add_edge_is_refused(self, small_tree):
        with pytest.raises(ValueError, match="cycle"):
            small_tree.add_edge(3, 4)
        assert small_tree.num_edges == 6


class TestTraversal:
    def test_bfs_order_covers_all(self, small_tree):
        order, parent = small_tree.bfs_order(0)
        assert sorted(order) == list(range(7))
        assert parent[0] == -1
        assert parent[6] == 5

    def test_bfs_from_other_root(self, small_tree):
        order, parent = small_tree.bfs_order(6)
        assert order[0] == 6
        assert parent[6] == -1
        assert parent[5] == 6

    def test_post_order_children_first(self, small_tree):
        order, parent = small_tree.post_order(0)
        position = {v: i for i, v in enumerate(order)}
        for v in range(7):
            if parent[v] >= 0:
                assert position[v] < position[parent[v]]

    @pytest.mark.parametrize("root", [0, 6])
    def test_post_order_children_match_parents(self, small_tree, root):
        order, parent = small_tree.bfs_order(root)
        position = {v: i for i, v in enumerate(order)}
        seen = []
        for v, children in small_tree.post_order_children(root):
            assert all(c in seen for c in children)  # children first
            assert children == sorted(
                (c for c in range(7) if parent[c] == v),
                key=lambda c: -position[c],  # reverse BFS order
            )
            seen.append(v)
        assert sorted(seen) == list(range(7))

    def test_subtree_weights(self, small_tree):
        weights = small_tree.subtree_weights(0)
        assert weights[0] == 28  # whole tree
        assert weights[1] == 12  # 4 + 2 + 6
        assert weights[5] == 8  # 1 + 7
        assert weights[6] == 7


class TestLeafStructure:
    def test_leaves(self, small_tree):
        assert sorted(small_tree.leaves()) == [3, 4, 6]

    def test_internal_vertices(self, small_tree):
        assert sorted(small_tree.internal_vertices()) == [0, 1, 2, 5]

    def test_is_star(self, star_tree, small_tree):
        assert star_tree.is_star()
        assert not small_tree.is_star()
        assert Tree([1, 1], [(0, 1)]).is_star()
        assert Tree([1], []).is_star()

    def test_star_constructor(self):
        star = Tree.star(1.0, [2, 3], [5, 6])
        assert star.num_vertices == 3
        assert star.vertex_weight(0) == 1.0
        assert star.edge_weight(0, 2) == 6

    def test_star_rejects_mismatch(self):
        with pytest.raises(ValueError):
            Tree.star(1.0, [2, 3], [5])


class TestContraction:
    def test_contract_empty_cut(self, small_tree):
        super_tree, comps, origin = small_tree.contract_components(set())
        assert super_tree.num_vertices == 1
        assert super_tree.vertex_weight(0) == 28
        assert origin == {}
        assert sorted(comps[0]) == list(range(7))

    def test_contract_single_edge(self, small_tree):
        super_tree, comps, origin = small_tree.contract_components({(0, 2)})
        assert super_tree.num_vertices == 2
        assert sorted(super_tree.vertex_weights) == [13, 15]
        # Super edge weight = original edge weight.
        (edge,) = list(super_tree.edges())
        assert super_tree.edge_weight(*edge) == 20
        assert origin[edge] == (0, 2)

    def test_contract_preserves_tree(self, small_tree):
        cut = {(0, 1), (2, 5), (5, 6)}
        super_tree, comps, origin = small_tree.contract_components(cut)
        assert super_tree.is_tree()
        assert super_tree.num_vertices == 4
        assert super_tree.total_vertex_weight() == 28
        assert set(origin.values()) == cut

    def test_contract_rejects_foreign_edge(self, small_tree):
        with pytest.raises(ValueError, match="not present"):
            small_tree.contract_components({(0, 6)})

    def test_missing_cut_edges_are_reported_sorted(self):
        # A set of edges iterates in hash order ((2, 3) before (0, 1)
        # here); the message lists them sorted, so it is stable.
        star = Tree([1, 1, 1, 1, 1], [(0, 4), (1, 4), (2, 4), (3, 4)])
        with pytest.raises(ValueError, match=r"\[\(0, 1\), \(2, 3\)\]"):
            star.contract_components({(2, 3), (0, 1)})
