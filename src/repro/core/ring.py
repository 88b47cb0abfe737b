"""Bandwidth minimization on circular task graphs.

An extension in the spirit of the paper's Section 3, which notes that
"circular type" systems reduce to the linear case.  The reduction is
exact rather than approximate:

* if the whole ring fits the bound, the empty cut is optimal;
* otherwise every feasible cut contains at least one edge of every
  *critical arc* (contiguous run of tasks heavier than ``K``), in
  particular of the minimal critical arc starting at task 0.  Trying
  each edge of that one arc as "the" cut that opens the ring, and
  solving the remaining chain with Algorithm 4.1, covers every feasible
  solution.

The candidate arc has at most ``ceil(2K / (w1 + w2)) + 1`` edges on
average (the paper's prime-length bound), so the expected cost is that
many chain solves — ``O(L · (n + p log q))`` with small ``L`` in the
regimes Figure 2 studies.  A brute-force oracle validates optimality in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import validate_bound
from repro.graphs.ring import Ring


@dataclass
class RingCutResult:  # repro-lint: disable=REPRO002 (field default blocks slots on py39)
    """A cut on a ring: ring edge indices and total weight."""

    ring: Ring
    cut_indices: List[int]
    weight: float
    candidates_tried: int = field(default=0, repr=False)

    @property
    def num_components(self) -> int:
        # Cutting k >= 1 edges of a cycle leaves k arcs.
        return max(len(self.cut_indices), 1)

    def component_weights(self) -> List[float]:
        return self.ring.component_weights(self.cut_indices)

    def is_feasible(self, bound: float) -> bool:
        return self.ring.is_feasible_cut(self.cut_indices, bound)


def _minimal_critical_arc(ring: Ring, bound: float) -> Optional[int]:
    """Length of the minimal critical arc starting at task 0, or None
    when no arc (including the full ring) exceeds the bound."""
    for length in range(1, ring.num_tasks + 1):
        if ring.arc_weight(0, length) > bound:
            return length
    return None


def ring_bandwidth_min(ring: Ring, bound: float) -> RingCutResult:
    """Minimum-weight edge cut of a ring with all arcs bounded by ``K``.

    Exact.  Raises
    :class:`~repro.core.feasibility.InfeasibleBoundError` when a single
    task exceeds the bound.
    """
    validate_bound(ring.alpha, bound)
    if ring.total_weight() <= bound:
        return RingCutResult(ring, [], 0.0, candidates_tried=0)

    length = _minimal_critical_arc(ring, bound)
    assert length is not None  # total weight > bound guarantees one
    # The critical arc covers tasks 0 .. length-1; its internal edges
    # are ring edges 0 .. length-2, plus the entry edge n-1 (between
    # task n-1 and task 0)?  No: a cut must split the arc's *tasks*
    # apart, i.e. remove one of the edges joining consecutive tasks of
    # the arc: ring edges 0 .. length-2.  (Cutting the boundary edges
    # n-1 or length-1 leaves the arc's tasks connected.)
    candidates = list(range(length - 1))
    # Edge case: a minimal critical arc of a single task cannot happen
    # (validate_bound), so candidates is never empty... unless length
    # == 1, excluded above.  Still, the arc might be the entire ring:
    # then every edge is a candidate, which the range covers (n-1
    # edges; by symmetry the n-th adds nothing since some candidate
    # among the first n-1 appears in every feasible cut of size >= 2).
    best: Optional[RingCutResult] = None
    for edge in candidates:
        chain = ring.open_at(edge)
        chain_result = bandwidth_min(chain, bound)
        total = ring.edge_weight(edge) + chain_result.weight
        if best is None or total < best.weight:
            cut = [edge] + [
                ring.chain_edge_to_ring_edge(edge, j)
                for j in chain_result.cut_indices
            ]
            best = RingCutResult(
                ring, sorted(cut), total, candidates_tried=len(candidates)
            )
    assert best is not None
    return best
