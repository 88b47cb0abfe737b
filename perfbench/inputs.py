"""Seeded input generation.  The program only ever sees the plain data
made here: float lists, bound values and JSONL text.

Each workload draws its inputs from one ``numpy`` generator keyed by
``(seed, stream)``, and nothing else draws from it, so the same seed gives
the same input stream however far a run gets.
"""

import json

import numpy as np

#: Figure-2 instance family: alpha, beta uniform on [1, W_MAX] and the
#: bound K on [2, 8] * W_MAX, so every bound is feasible.
W_MAX = 100.0
CHAIN_TASKS = 20000
JSONL_TASKS = 2000

BOUND_GRID_CHAINS = 4
#: Distinct bounds per chain; at most the plan memo size (128), so a
#: warm pass never evicts.
BOUND_GRID_BOUNDS = 24

JSONL_CHAINS = 4
OBJECTIVES = (
    "bandwidth",
    "bottleneck",
    "processors",
    "bottleneck+processors",
    "bottleneck+bandwidth",
)
#: JSONL bounds per input drawn below the chain's heaviest task (one in
#: twenty-four).
INFEASIBLE_PER_BATCH = 1

TREE_SHAPES = ("random", "binary", "caterpillar")


def generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def chain(rng, n=CHAIN_TASKS):
    """``(alpha, beta)`` as float lists."""
    return (
        rng.uniform(1.0, W_MAX, n).tolist(),
        rng.uniform(1.0, W_MAX, n - 1).tolist(),
    )


def ratios(rng, count):
    """``count`` values of K/W_MAX on [2, 8], the i-th drawn from the i-th
    of ``count`` equal strata, so that every batch of inputs has the same
    make-up and a run's median does not hinge on the draw."""
    return (2.0 + 6.0 * (np.arange(count) + rng.random(count)) / count).tolist()


def cold_queries(rng, count):
    """``count`` fresh ``(alpha, beta, K)`` triples."""
    out = []
    for ratio in ratios(rng, count):
        alpha, beta = chain(rng)
        out.append((alpha, beta, ratio * W_MAX))
    return out


def bound_grid(rng):
    """A few chains, each with the same fixed grid of bounds."""
    grid = [float(k) for k in np.linspace(2.0, 8.0, BOUND_GRID_BOUNDS) * W_MAX]
    return [chain(rng) for _ in range(BOUND_GRID_CHAINS)], grid


def jsonl_batch(rng):
    """One ``repro batch`` input: ``(lines, queries)``.

    Each chain carries every objective once plus a second bandwidth
    query, so the serial plan route gets same-chain groups.  Objective
    ``j`` of chain ``c`` takes its bound from stratum ``(c + j) mod 6``,
    so every objective meets every part of the bound range in every
    input; ``INFEASIBLE_PER_BATCH`` bounds are infeasible.  ``queries``
    keeps ``(alpha, beta, K, objective)`` per line for checking.
    """
    objectives = list(OBJECTIVES) + ["bandwidth"]
    width = len(objectives)
    infeasible = set(rng.choice(JSONL_CHAINS * width, INFEASIBLE_PER_BATCH,
                                replace=False).tolist())
    lines = []
    queries = []
    for c in range(JSONL_CHAINS):
        alpha, beta = chain(rng, JSONL_TASKS)
        strata = ratios(rng, width)
        order = rng.permutation(width).tolist()
        for j in order:
            objective = objectives[j]
            if c * width + j in infeasible:
                k = float(max(alpha) * rng.uniform(0.5, 0.95))
            else:
                k = strata[(c + j) % width] * W_MAX
            queries.append((alpha, beta, k, objective))
            lines.append(json.dumps({
                "alpha": alpha, "beta": beta, "bound": k,
                "objective": objective, "tag": f"c{c}q{j}",
            }))
    return lines, queries


def trees(rng, per_shape):
    """``per_shape`` trees of each shape; K/max weight drawn by strata,
    every shape getting the same strata in every batch."""
    shapes = TREE_SHAPES * per_shape
    return [tree(rng, shape, ratio) for shape, ratio in zip(shapes, ratios(rng, len(shapes)))]


def tree(rng, shape, ratio):
    """``(vertex_weights, edges, edge_weights, K)`` of about 4,000
    vertices; weights uniform on [1, 10], K = ratio * max weight."""
    if shape == "random":
        n = 4000
        parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
        edges = list(zip(parents.tolist(), range(1, n)))
    elif shape == "binary":
        n = 2 ** 12 - 1
        edges = [((v - 1) // 2, v) for v in range(1, n)]
    elif shape == "caterpillar":
        spine = 800
        legs = 4
        n = spine * (legs + 1)
        edges = [(s - 1, s) for s in range(1, spine)]
        edges += [(s, spine + s * legs + j) for s in range(spine) for j in range(legs)]
    else:
        raise ValueError(f"unknown tree shape {shape!r}")
    weights = rng.uniform(1.0, 10.0, n).tolist()
    edge_weights = rng.uniform(1.0, 10.0, n - 1).tolist()
    k = ratio * max(weights)
    return weights, edges, edge_weights, k
