"""Unit tests for :mod:`repro.graphs.tree`."""

import random

import pytest
from hypothesis import given, settings

from repro.core.bottleneck import bottleneck_min
from repro.graphs.chain import Chain
from repro.graphs.generators import (
    balanced_binary_tree,
    caterpillar_tree,
    random_star,
    random_tree,
)
from repro.graphs.task_graph import TaskGraph, canonical_edge
from repro.graphs.tree import Tree, _sweep
from tests.conftest import on_both_routes
from tests.property.strategies import half_integer, tree_and_bound


def contract_by_constructor(tree, cut):
    """Section 2.2's super tree built through the public constructor: the
    components of ``T - cut`` found by :class:`TaskGraph`'s BFS, weighed
    by :meth:`Tree.component_weights`, super edges in the canonical cut
    set's iteration order."""
    cut = {canonical_edge(*e) for e in cut}
    graph = TaskGraph(tree.vertex_weights, list(tree.edges()), tree.edge_weight_map())
    components = graph.connected_components(cut)
    label = [0] * tree.num_vertices
    for i, component in enumerate(components):
        for v in component:
            label[v] = i
    super_edges = [canonical_edge(label[u], label[v]) for u, v in cut]
    super_tree = Tree(
        tree.component_weights(cut),
        super_edges,
        [tree.edge_weight(u, v) for u, v in cut],
    )
    return super_tree, [sorted(c) for c in components], dict(zip(super_edges, cut))


def assert_same_tree(got, want):
    """Equal vertex weights (bit for bit), edges in order, edge weights
    and BFS order."""
    assert [w.hex() for w in got.vertex_weights] == [w.hex() for w in want.vertex_weights]
    assert list(got.edges()) == list(want.edges())
    assert [w.hex() for _e, w in got.weighted_edges()] == [
        w.hex() for _e, w in want.weighted_edges()
    ]
    assert got.bfs_order() == want.bfs_order()
    last = got.num_vertices - 1
    assert got.bfs_order(last) == want.bfs_order(last)
    assert [got.neighbors(v) for v in range(last + 1)] == [
        want.neighbors(v) for v in range(last + 1)
    ]
    assert got.is_path() == want.is_path()


class TestConstruction:
    def test_valid_tree(self, small_tree):
        assert small_tree.num_vertices == 7
        assert small_tree.num_edges == 6
        assert small_tree.is_tree()

    def test_single_vertex(self):
        t = Tree([5.0], [])
        assert t.num_vertices == 1
        assert t.leaves() == [0]

    def test_negative_zero_weights_are_stored_as_zero(self):
        tree = Tree([-0.0, 1.0, 2.0], [(0, 1), (1, 2)], [-0.0, 0.0])
        assert [w.hex() for w in tree.vertex_weights] == [w.hex() for w in (0.0, 1.0, 2.0)]
        assert [w.hex() for w in tree.parent_weights()] == [(0.0).hex()] * 3

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not a tree"):
            Tree([1, 1, 1], [(0, 1)])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="not a tree"):
            Tree([1, 1, 1], [(0, 1), (1, 2), (0, 2)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="not a tree"):
            Tree([], [])

    @pytest.mark.parametrize("edge", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_rejects_out_of_range_vertex(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            Tree([1, 1], [edge])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Tree([1, 1], [(1, 1)])

    def test_edges_keep_input_order_in_canonical_form(self):
        # Root 0: vertex 2 hangs from 0 and vertex 1 from 2, so the second
        # edge's child (1) is its smaller end.
        tree = Tree([1, 2, 3], [(2, 0), (1, 2)], [4, 5])
        assert list(tree.edges()) == [(0, 2), (1, 2)]
        assert tree.edge_weight(2, 1) == tree.edge_weight(1, 2) == 5
        assert tree.edge_weight(2, 0) == tree.edge_weight(0, 2) == 4
        assert tree.bfs_order() == ([0, 2, 1], [-1, 2, 0])
        assert tree.parent_weights() == [0.0, 5, 4]

    def test_edge_lookup_outside_the_tree(self, small_tree):
        for u, v in [(0, 6), (7, 0), (0, 7), (-1, 0), (3, 3)]:
            assert not small_tree.has_edge(u, v)
        with pytest.raises(KeyError, match=r"\(0, 6\)"):
            small_tree.edge_weight(0, 6)

    def test_edges_by_weight_breaks_ties_by_canonical_edge(self):
        # Path 0 - 3 - 1 - 2, every edge of weight 1: canonical order
        # (0, 3) < (1, 2) < (1, 3), as child vertices 3, 2, 1.
        path = Tree([1] * 4, [(0, 3), (3, 1), (1, 2)], [1, 1, 1])
        assert path.edges_by_weight() == [3, 2, 1]
        star = Tree([1] * 4, [(0, 3), (0, 1), (0, 2)], [1, 1, 1])
        assert star.edges_by_weight() == [1, 2, 3]

    def test_edges_by_weight_sorts_by_weight_before_ties(self):
        # Path 0 - 1 - 2 - 3 with weights 2, 1, 1: the tied edges (1, 2)
        # and (2, 3) come first, then (0, 1) — canonical order alone
        # would put (0, 1) first.
        path = Tree([1] * 4, [(0, 1), (1, 2), (2, 3)], [2, 1, 1])
        assert path.edges_by_weight() == [2, 3, 1]

    def test_is_path(self, small_tree, star_tree):
        assert Tree([1, 1, 1], [(0, 1), (2, 1)]).is_path()
        assert Tree([1], []).is_path()
        assert not small_tree.is_path()
        assert not star_tree.is_path()

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

    def test_tree_has_no_add_edge(self, small_tree):
        # A tree that gained an edge would gain a cycle: Tree is not a
        # TaskGraph and has no mutator.
        assert not isinstance(small_tree, TaskGraph)
        assert not hasattr(small_tree, "add_edge")


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


def _oracle_trees():
    rng = random.Random(2101)
    yield "single", Tree([2.5], [])
    yield "path", Chain([0.1 * rng.randint(1, 30) for _ in range(40)],
                        [0.1 * rng.randint(0, 9) for _ in range(39)]).to_tree()
    yield "star", random_star(30, rng)
    yield "binary", balanced_binary_tree(5, rng)
    yield "caterpillar", caterpillar_tree(12, 3, rng)
    for n in (2, 3, 17, 200):
        yield f"random{n}", random_tree(n, rng)
    yield "preferential", random_tree(120, rng, attachment="preferential")
    # Vertex ids shuffled and edges given in random order and orientation,
    # so input order, BFS order and canonical order all differ.
    n = 60
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)]
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    rng.shuffle(edges)
    yield "shuffled", Tree([0.1 * rng.randint(1, 30) for _ in range(n)], edges,
                           [0.1 * rng.randint(0, 9) for _ in range(n - 1)])


ORACLE_SHAPES = [name for name, _tree in _oracle_trees()]


def _oracle_cuts(tree):
    rng = random.Random(tree.num_vertices)
    edges = list(tree.edges())
    yield set()
    yield set(edges)
    yield {e for e in edges if rng.random() < 0.5}
    yield {e[::-1] for e in edges if rng.random() < 0.3}  # non-canonical
    for ratio in (1.0, 1.5, 3.0):
        yield set(bottleneck_min(tree, ratio * tree.max_vertex_weight()).cut_edges)


class TestContractionOracle:
    """``contract_components`` writes the super tree's lists straight from
    the component labels; it must equal the tree the public constructor
    builds from the same super edges."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_constructor(self, shape):
        tree = dict(_oracle_trees())[shape]  # built here, from the code under test
        for cut in _oracle_cuts(tree):
            super_tree, components, origin = tree.contract_components(cut)
            want_tree, want_components, want_origin = contract_by_constructor(tree, cut)
            assert_same_tree(super_tree, want_tree)
            assert components == want_components
            assert list(origin.items()) == list(want_origin.items())
            for v, children in super_tree.post_order_children():
                assert children == dict(want_tree.post_order_children())[v]

    def test_self_loop_rejected(self, small_tree):
        with pytest.raises(ValueError, match="self-loop"):
            small_tree.contract_components({(2, 2)})

    @pytest.mark.parametrize("edge", [(0, 7), (-1, 0), (6, 9)])
    def test_out_of_range_vertex_rejected(self, small_tree, edge):
        with pytest.raises(ValueError, match="not present"):
            small_tree.contract_components({edge})

    def test_overflowing_component_rejected(self):
        # Each task is finite; joined, the component's sum is inf.
        tree = Tree([1e308, 1e308, 1.0], [(0, 1), (1, 2)], [1.0, 2.0])
        assert tree.contract_components({(0, 1)})[0].vertex_weights == [1e308, 1e308 + 1.0]
        with pytest.raises(ValueError, match="inf"):
            tree.contract_components({(1, 2)})


class TestChainToTree:
    @pytest.mark.parametrize("n", [1, 2, 2000])
    def test_matches_constructor(self, n):
        rng = random.Random(n)
        chain = Chain([0.1 * rng.randint(1, 99) for _ in range(n)],
                      [0.1 * rng.randint(0, 99) for _ in range(n - 1)])
        path = chain.to_tree()
        want = Tree(chain.alpha, [(i, i + 1) for i in range(n - 1)], chain.beta)
        assert_same_tree(path, want)
        assert path == want
        assert list(path.post_order_children()) == list(want.post_order_children())


@pytest.mark.usefixtures("python_route")
class TestContractionOracleOnPython(TestContractionOracle):
    """The oracle's Algorithm 2.1 cuts on the pure-Python sweep."""


# ----------------------------------------------------------------------
# The native and pure-Python routes of Algorithm 2.1's sweep
# ----------------------------------------------------------------------
def rebuild(tree):
    """A fresh tree with ``tree``'s lists and nothing cached."""
    return Tree(tree.vertex_weights, list(tree.edges()),
                [w for _e, w in tree.weighted_edges()])


def _grid_tree(rng, n, unit, edge_values=None):
    """A random tree on ``n`` vertices, shuffled ids and edge order, task
    weights on a grid of ``unit`` and edge weights from ``edge_values``."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[rng.randrange(v)], perm[v]) for v in range(1, n)]
    rng.shuffle(edges)
    values = edge_values or [unit * k for k in range(10)]
    return Tree([unit * rng.randint(1, 30) for _ in range(n)], edges,
                [rng.choice(values) for _ in edges])


def _route_trees():
    """``name -> build()`` of the trees both routes must agree on."""
    def seeded(make, seed):
        return lambda: make(random.Random(seed))

    return {
        "n1": lambda: Tree([2.5], []),
        "n2": lambda: Tree([0.1, 0.2], [(1, 0)], [0.3]),
        "all_equal": seeded(lambda r: Tree([0.5] * 40, [(r.randrange(v), v) for v in range(1, 40)],
                                           [1.0] * 39), 1),
        "all_equal_tenths": seeded(lambda r: Tree([0.1] * 60, [(r.randrange(v), v)
                                                               for v in range(1, 60)],
                                                  [0.3] * 59), 2),
        "negative_zero": seeded(lambda r: _grid_tree(r, 50, 0.5, [-0.0, 0.0, 0.5]), 3),
        "star_tenths": seeded(lambda r: Tree.star(0.1, [0.1 * r.randint(1, 5) for _ in range(60)],
                                                  [0.2 * r.randint(0, 3) for _ in range(60)]), 4),
        "star_halves": seeded(lambda r: Tree.star(0.5, [0.5 * r.randint(1, 4) for _ in range(40)],
                                                  [1.0] * 40), 5),
        "caterpillar": seeded(lambda r: caterpillar_tree(20, 3, r), 6),
        "path": seeded(lambda r: Chain([0.1 * r.randint(1, 30) for _ in range(80)],
                                       [0.1 * r.randint(0, 9) for _ in range(79)]).to_tree(), 7),
        "path_equal": lambda: Chain([0.1] * 50, [0.5] * 49).to_tree(),
        "random_tenths": seeded(lambda r: _grid_tree(r, 300, 0.1), 8),
        "random_halves": seeded(lambda r: _grid_tree(r, 300, 0.5), 9),
        "binary": seeded(lambda r: balanced_binary_tree(7, r), 10),
    }


ROUTE_TREES = _route_trees()


def route_bounds(tree):
    """K = the largest task weight, the total weight, and between."""
    low, high = tree.max_vertex_weight(), tree.total_vertex_weight()
    return sorted({low, 1.5 * low, 3.0 * low, 0.5 * (low + high), high})


def sweep_outcome(tree, bounds):
    """What the sweep hands on at each bound, comparably: the order (as
    returned and as :meth:`Tree.edges_by_weight` caches it), the
    boundary, the tops and the component sums' bits."""
    out = []
    for bound in bounds:
        ordered, boundary, top, weight = _sweep(tree, bound, tops=True)
        out.append((list(ordered), tree.edges_by_weight(), boundary, list(top),
                    [w.hex() for w in weight]))
        assert _sweep(tree, bound, tops=False)[1:] == (boundary, None, None)
    return out


class TestSweepRoutes:
    """The native ``tree_sweep`` and the Python sort, :func:`_merge` and
    :func:`_tops` agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(ROUTE_TREES))
    def test_routes_agree(self, name):
        build = ROUTE_TREES[name]
        got, want = on_both_routes(build, lambda tree: sweep_outcome(tree, route_bounds(tree)))
        assert got == want

    def test_negative_zero_edges_tie_with_zero(self):
        # Both zeros tie under <, so the canonical code alone orders them.
        def build():
            return Tree([1.0] * 5, [(0, 4), (0, 3), (0, 2), (0, 1)], [0.0, -0.0, 0.0, -0.0])

        got, want = on_both_routes(build, lambda tree: sweep_outcome(tree, [1.0, 5.0]))
        assert got == want
        assert got[0][0] == [1, 2, 3, 4]


# Hypothesis tests are module functions: a method would be rerun from a
# new class object when the mutation sandbox reruns the file in one
# process, which Hypothesis rejects.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(tree_and_bound())
def test_sweep_routes_agree_on_grid_weights(data):
    tree, bound = data
    got, want = on_both_routes(lambda: rebuild(tree), lambda t: sweep_outcome(t, [bound]))
    assert got == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree_and_bound(vertex_weight=half_integer))
def test_sweep_routes_agree_on_half_integers(data):
    tree, bound = data
    got, want = on_both_routes(lambda: rebuild(tree), lambda t: sweep_outcome(t, [bound]))
    assert got == want
