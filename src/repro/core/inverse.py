"""Inverse problems: choosing the bound ``K`` to hit a processor budget.

The paper's algorithms take the execution-time bound ``K`` as given.
In deployment the dual question is just as common: *given ``m``
processors, what is the smallest bound (and hence the best achievable
response time) and what does it cost in bandwidth?*  Both duals reduce
to the paper's primitives:

- for chains, the smallest feasible ``K`` for ``m`` blocks is exactly
  the chains-on-chains bottleneck (Section 2's prior-work family), and
  plugging it back into Algorithm 4.1 yields the cheapest cut that
  respects it;
- for trees, the smallest ``K`` admitting ``m`` components is found by
  bisecting ``K`` over the monotone ``min_processors(K)`` (Algorithm
  2.2), with candidate snapping for exactness on the realized partition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.bandwidth import ChainCutResult, bandwidth_min
from repro.core.processor_min import processor_min
from repro.graphs.chain import Chain
from repro.graphs.tree import Tree

if TYPE_CHECKING:  # pragma: no cover - layering: engine imports core
    from repro.engine.batch import PartitionEngine


@dataclass
class ChainBudgetPlan:
    """Best bound and cheapest cut for a chain under a processor budget."""

    __slots__ = ("bound", "bandwidth_cut")

    bound: float
    bandwidth_cut: ChainCutResult

    @property
    def num_components(self) -> int:
        return self.bandwidth_cut.num_components


def partition_chain_for_processors(chain: Chain, processors: int) -> ChainBudgetPlan:
    """Tightest load bound achievable with ``processors`` blocks, plus
    the minimum-bandwidth cut honouring it.

    The optimal bound is the chains-on-chains bottleneck ``B*``;
    the returned cut satisfies every block ``<= B*`` with minimum total
    edge weight and therefore uses at most ``processors`` blocks... not
    necessarily: the cheapest cut may use *more*, smaller blocks.  The
    plan keeps the bound so callers can re-partition with the
    ``"processors"`` objective when the block count must be exact.
    Many budgets on one chain are cheaper through
    :func:`chain_pareto_frontier`.
    """
    if processors < 1:
        raise ValueError("need at least one processor")
    # Imported here: Hansen-Lih is the only baseline the product uses,
    # so ``import repro.core`` loads no ``repro.baselines`` module.
    from repro.baselines.hansen_lih import ccp_hansen_lih

    bound = ccp_hansen_lih(chain, processors).bottleneck
    # Prefix-sum arithmetic can land the bottleneck a few ulps below the
    # heaviest single task; K >= max(alpha) always holds semantically.
    bound = max(bound, chain.max_vertex_weight())
    return ChainBudgetPlan(bound, bandwidth_min(chain, bound))


def chain_pareto_frontier(
    chain: Chain, max_processors: int, *, engine: Optional["PartitionEngine"] = None
) -> List[Dict[str, Any]]:
    """The (processors, bound, bandwidth) trade-off curve for a chain.

    One row per budget ``1..max_processors``: the chains-on-chains
    bottleneck bound at that budget and the minimum-bandwidth cut
    honouring it.  As with :class:`ChainBudgetPlan`, the ``components``
    column can exceed the budget — the cheapest cut under the bound may
    use more, smaller blocks.  The per-budget bounds are derived first
    (Hansen-Lih, ``O(n log n)`` each) and the whole vector is then
    answered by **one** batched
    :meth:`repro.engine.PartitionEngine.solve_sweep` call through the
    chain's compiled plan: budgets probed from ``max_processors`` down
    give ascending bounds, so neighbouring probes share one frozen
    structure per stability interval instead of re-deriving primes per
    probe.  Rows are identical to per-call
    :func:`partition_chain_for_processors` answers.
    """
    if max_processors < 1:
        raise ValueError("need at least one processor")
    from repro.baselines.hansen_lih import ccp_hansen_lih

    if engine is None:
        from repro.engine import PartitionEngine

        engine = PartitionEngine()
    alpha_floor = chain.max_vertex_weight()
    budgets = list(range(max_processors, 0, -1))
    bounds = [
        max(ccp_hansen_lih(chain, budget).bottleneck, alpha_floor)
        for budget in budgets
    ]
    weights, cuts = engine.solve_sweep(chain, bounds, return_cuts=True)
    rows: List[Dict[str, Any]] = []
    for budget, bound, weight, cut in zip(budgets, bounds, weights, cuts):
        rows.append(
            {
                "processors": budget,
                "bound": bound,
                "components": len(cut) + 1,
                "bandwidth": float(weight),
            }
        )
    rows.reverse()
    if "REPRO_VERIFY" in os.environ:
        from repro.verify.runtime import maybe_verify_pareto_frontier

        maybe_verify_pareto_frontier(rows)
    return rows


def min_bound_for_tree(
    tree: Tree, processors: int, tolerance: float = 1e-9
) -> float:
    """Smallest bound ``K`` for which Algorithm 2.2 needs at most
    ``processors`` components.  Bisection over the monotone
    ``min_processors(K)``; exact up to ``tolerance`` and snapped to the
    realized maximum component weight."""
    if processors < 1:
        raise ValueError("need at least one processor")
    total = tree.total_vertex_weight()
    lo = max(tree.max_vertex_weight(), total / processors)
    hi = total
    if processor_min(tree, lo).num_components <= processors:
        hi = lo
    while hi - lo > tolerance * max(1.0, total):
        mid = 0.5 * (lo + hi)
        if processor_min(tree, mid).num_components <= processors:
            hi = mid
        else:
            lo = mid
    # Snap to the realized partition's maximum component weight — the
    # true optimum is always a component weight of some partition.
    result = processor_min(tree, hi)
    realized = max(tree.component_weights(result.cut_edges))
    return realized


def tree_pareto_frontier(
    tree: Tree, max_processors: int
) -> List[Dict[str, Any]]:
    """The (processors, bound) trade-off curve for ``1..max_processors``.

    Each row reports the tightest achievable bound at that budget and
    the bottleneck/bandwidth of the partition realizing it — the data a
    capacity-planning user actually wants from the paper's toolbox.
    """
    rows: List[Dict[str, Any]] = []
    for budget in range(1, max_processors + 1):
        bound = min_bound_for_tree(tree, budget)
        partition = processor_min(tree, bound)
        cut = partition.as_cut()
        rows.append(
            {
                "processors": budget,
                "bound": bound,
                "components": partition.num_components,
                "bottleneck": cut.bottleneck(),
                "bandwidth": cut.bandwidth(),
            }
        )
    if "REPRO_VERIFY" in os.environ:
        from repro.verify.runtime import maybe_verify_pareto_frontier

        # Tree rows report the bandwidth of one realized partition (not
        # a minimum), so only bound/processor monotonicity is certified.
        maybe_verify_pareto_frontier(rows, check_bandwidth=False)
    return rows
