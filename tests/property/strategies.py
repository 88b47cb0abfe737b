"""Hypothesis strategies shared by the chain and tree property suites.

Weights mix two grids.  Half-integers (``v / 2``) are exact in binary,
so sums tie exactly.  Tenths (``k / 10``) are not: a prefix difference
can put a block a rounding step away from the sum of its tasks.  Bounds
are the largest task weight plus a half-integer slack, exactly the
largest task weight, or exactly a block weight as
:meth:`Chain.segment_weight` computes it, so ``K`` sits on a block-fit
boundary.  Uniform chains cover the all-equal degenerate case and
``n = 1`` the single-task one.

The tree twin draws the same weights on random trees, paths and stars,
with ``K`` on a component-weight boundary as
:meth:`Tree.component_weights` sums it."""

from hypothesis import strategies as st

from repro.graphs.chain import Chain
from repro.graphs.tree import Tree

half_integer = st.integers(min_value=1, max_value=20).map(lambda v: v * 0.5)
weight = st.one_of(
    half_integer,
    st.integers(min_value=1, max_value=30).map(lambda k: k / 10),
)
edge_weight = st.one_of(
    st.integers(min_value=0, max_value=20).map(lambda v: v * 0.5),
    st.integers(min_value=0, max_value=30).map(lambda k: k / 10),
)


@st.composite
def chain_and_bound(draw, max_tasks: int = 24):
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    if draw(st.booleans()):
        alpha = draw(st.lists(weight, min_size=n, max_size=n))
        beta = draw(st.lists(edge_weight, min_size=n - 1, max_size=n - 1))
    else:  # all-equal weights
        alpha = [draw(weight)] * n
        beta = [draw(edge_weight)] * (n - 1)
    chain = Chain(alpha, beta)
    bound = chain.max_vertex_weight()
    kind = draw(st.sampled_from(("slack", "task", "block")))
    if kind == "slack":
        bound += draw(st.integers(min_value=0, max_value=40)) * 0.5
    elif kind == "block":
        lo = draw(st.integers(min_value=0, max_value=n - 1))
        hi = draw(st.integers(min_value=lo, max_value=n - 1))
        bound = max(bound, chain.segment_weight(lo, hi))
    return chain, bound


@st.composite
def tree_and_bound(draw, max_vertices: int = 12, vertex_weight=weight):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    shape = draw(st.sampled_from(("random", "path", "star")))
    if shape == "path":
        parents = list(range(n - 1))
    elif shape == "star":
        parents = [0] * (n - 1)
    else:  # vertex i + 1 hangs from a lower vertex
        parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n - 1)]
    edges = [(p, i + 1) for i, p in enumerate(parents)]
    if draw(st.booleans()):
        weights = draw(st.lists(vertex_weight, min_size=n, max_size=n))
        edge_weights = draw(st.lists(edge_weight, min_size=n - 1, max_size=n - 1))
    else:  # all-equal weights
        weights = [draw(vertex_weight)] * n
        edge_weights = [draw(edge_weight)] * (n - 1)
    tree = Tree(weights, edges, edge_weights)
    bound = tree.max_vertex_weight()
    kind = draw(st.sampled_from(("slack", "task", "component")))
    if kind == "slack":
        bound += draw(st.integers(min_value=0, max_value=40)) * 0.5
    elif kind == "component" and edges:
        cut = draw(st.sets(st.sampled_from(edges)))
        bound = max(bound, draw(st.sampled_from(tree.component_weights(cut))))
    return tree, bound
