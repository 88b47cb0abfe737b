"""JSON-dict serialization for task graphs, chains and trees.

Experiments persist generated instances (and the benchmarks ship a few
fixed ones) as plain dictionaries so they can be dumped with ``json``
without custom encoders.  Round-tripping is exact for the float values
``repr`` preserves (all of them, in CPython).
"""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.graphs.chain import Chain
from repro.graphs.task_graph import TaskGraph
from repro.graphs.tree import Tree


def chain_to_dict(chain: Chain) -> Dict[str, Any]:
    return {"type": "chain", "alpha": list(chain.alpha), "beta": list(chain.beta)}


def chain_from_dict(data: Dict[str, Any]) -> Chain:
    if data.get("type") != "chain":
        raise ValueError(f"not a chain payload: {data.get('type')!r}")
    return Chain(data["alpha"], data["beta"])


def graph_to_dict(graph: Union[TaskGraph, Tree]) -> Dict[str, Any]:
    kind = "tree" if isinstance(graph, Tree) else "graph"
    edges = []
    weights = []
    for (u, v), w in graph.weighted_edges():
        edges.append([u, v])
        weights.append(w)
    return {
        "type": kind,
        "vertex_weights": list(graph.vertex_weights),
        "edges": edges,
        "edge_weights": weights,
    }


def graph_from_dict(data: Dict[str, Any]) -> Union[TaskGraph, Tree]:
    kind = data.get("type")
    edges = [tuple(e) for e in data["edges"]]
    if kind == "tree":
        return Tree(data["vertex_weights"], edges, data["edge_weights"])
    if kind == "graph":
        return TaskGraph(data["vertex_weights"], edges, data["edge_weights"])
    raise ValueError(f"unknown graph payload type {kind!r}")
