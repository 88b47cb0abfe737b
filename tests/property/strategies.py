"""Hypothesis strategies shared by the chain property suites.

Weights mix two grids.  Half-integers (``v / 2``) are exact in binary,
so sums tie exactly.  Tenths (``k / 10``) are not: a prefix difference
can put a block a rounding step away from the sum of its tasks.  Bounds
are the largest task weight plus a half-integer slack, exactly the
largest task weight, or exactly a block weight as
:meth:`Chain.segment_weight` computes it, so ``K`` sits on a block-fit
boundary.  Uniform chains cover the all-equal degenerate case and
``n = 1`` the single-task one.
"""

from hypothesis import strategies as st

from repro.graphs.chain import Chain

weight = st.one_of(
    st.integers(min_value=1, max_value=20).map(lambda v: v * 0.5),
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
