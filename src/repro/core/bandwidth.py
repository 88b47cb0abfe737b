"""Bandwidth minimization for linear task graphs — Algorithm 4.1.

Given a chain with vertex weights ``alpha`` and edge weights ``beta``
and a bound ``K >= max alpha``, find a minimum-total-weight edge cut
``S`` such that every component of ``P - S`` weighs at most ``K``
(Section 2.3 of the paper).

The algorithm:

1. compute the ``p`` prime subpaths and reduce to ``r <= min(n-1, 2p-1)``
   non-redundant edges — ``O(n)``
   (:mod:`repro.core.prime_subpaths`);
2. sweep the non-redundant edges left to right maintaining the TEMP_S
   queue (:mod:`repro.core.temp_s`), evaluating the recurrence

   .. math::

       W_j = \\beta_j + \\beta(S_{\\gamma_j}), \\qquad
       \\beta(S_i) = \\min_{e_j \\in P_i} W_j

   in ``O(log q_i)`` per edge, for ``O(n + p log q)`` total.

The return value reports the cut, its weight and the Figure-2 statistics
(``p``, ``q``, TEMP_S lengths, search steps).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, List, Optional

from repro.core.feasibility import finite_optimum, validate_bound
from repro.core.prime_subpaths import PrimeStructure, compute_prime_structure
from repro.core.temp_s import SolutionNode, TempSQueue, solution_weight
from repro.graphs.chain import Chain
from repro.graphs.partition import Cut, cut_from_chain_indices
from repro.instrumentation.counters import AlgorithmStats, OpCounter

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability import Span, Tracer


class ChainCutResult:
    """A cut on a chain: edge indices, total weight and run statistics.

    Slotted (not a dataclass): results are allocated once per query and
    the batch engine materializes millions of them.
    """

    __slots__ = ("chain", "cut_indices", "weight", "stats")

    def __init__(
        self,
        chain: Chain,
        cut_indices: List[int],
        weight: float,
        stats: Optional[AlgorithmStats] = None,
    ) -> None:
        self.chain = chain
        self.cut_indices = cut_indices
        self.weight = weight
        self.stats = stats

    def __repr__(self) -> str:
        return (
            f"ChainCutResult(chain={self.chain!r}, "
            f"cut_indices={self.cut_indices!r}, weight={self.weight!r})"
        )

    @property
    def num_components(self) -> int:
        return len(self.cut_indices) + 1

    def component_weights(self) -> List[float]:
        return self.chain.component_weights(self.cut_indices)

    def blocks(self) -> List[tuple]:
        return self.chain.cut_components(self.cut_indices)

    def as_cut(self) -> Cut:
        """The cut as a :class:`repro.graphs.partition.Cut` on the chain's
        task-graph form (allocates a fresh graph)."""
        return cut_from_chain_indices(self.chain.to_task_graph(), self.cut_indices)

    def is_feasible(self, bound: float) -> bool:
        return self.chain.is_feasible_cut(self.cut_indices, bound)


def bandwidth_min(
    chain: Chain,
    bound: float,
    *,
    apply_reduction: bool = True,
    search: str = "binary",
    collect_stats: bool = False,
    backend: str = "python",
    structure: Optional[PrimeStructure] = None,
    tracer: Optional["Tracer"] = None,
) -> ChainCutResult:
    """Minimum-bandwidth load-bounded cut of a chain — Algorithm 4.1,
    ``O(n + p log q)`` (the declared complexity contract; the ``O(n)``
    claims below refer to the preprocessing step alone).

    Parameters
    ----------
    chain:
        The linear task graph.
    bound:
        Execution-time bound ``K``; must be at least the maximum vertex
        weight (:class:`~repro.core.feasibility.InfeasibleBoundError`
        otherwise).
    apply_reduction:
        Keep only non-redundant edges (the default, as in the paper).
        Disable to measure what the reduction buys (ablation).
    search:
        ``"binary"`` for the paper's binary search on the TEMP_S W
        column, ``"linear"`` for amortized monotone-deque pops.
    collect_stats:
        Attach an :class:`~repro.instrumentation.counters.AlgorithmStats`
        with the Figure-2 quantities to the result (small overhead).
    backend:
        ``"python"``, the only value: this is the pure-Python reference.
        The NumPy fast path is the engine's compiled plan
        (:func:`repro.engine.compile_chain`,
        :class:`repro.engine.PartitionEngine`); any other value raises
        ``ValueError``.
    structure:
        A precomputed prime structure for ``(chain, bound)``, which skips
        the ``O(n)`` preprocessing entirely; the empirical complexity
        check (:mod:`repro.verify.empirical`) passes one built with its
        own op counter.  Must match ``chain``/``bound``/``apply_reduction``.
    tracer:
        A :class:`repro.observability.Tracer` (or ``None``).  An enabled
        tracer records nested spans — preprocessing, TEMP_S sweep — whose
        attributes and op-counts reproduce :class:`AlgorithmStats`
        exactly (same counter object, same expressions); it forces the
        counted reference sweep, so traced runs pay the ``collect_stats``
        constant.  ``None``/disabled costs two branches.

    Raises :class:`~repro.core.feasibility.OptimumOverflowError` when
    every feasible cut's weight overflows float64 to ``inf``.
    """
    if backend != "python":
        raise ValueError(
            f"unknown backend {backend!r}; bandwidth_min is the pure-Python "
            "reference (use repro.engine for the NumPy fast path)"
        )
    traced = tracer is not None and tracer.enabled
    if not traced:
        return _bandwidth_min_impl(
            chain, bound, apply_reduction, search, collect_stats, structure
        )
    with tracer.span(
        "bandwidth_min", n=chain.num_tasks, bound=bound, search=search
    ) as root:
        result = _bandwidth_min_impl(
            chain, bound, apply_reduction, search, collect_stats, structure,
            tracer, root,
        )
        root.set("weight", result.weight)
        root.set("components", result.num_components)
    return result


def _bandwidth_min_impl(
    chain: Chain,
    bound: float,
    apply_reduction: bool,
    search: str,
    collect_stats: bool,
    structure: Optional[PrimeStructure],
    tracer: Optional["Tracer"] = None,
    root: Optional["Span"] = None,
) -> ChainCutResult:
    """Algorithm 4.1 proper.  ``tracer``/``root`` are only passed for
    traced runs; the untraced path is branch-for-branch the seed code."""
    traced = root is not None
    validate_bound(chain.alpha, bound)
    if structure is None:
        if traced:
            with tracer.span("prime_structure") as sp:
                structure = compute_prime_structure(
                    chain, bound, apply_reduction=apply_reduction, tracer=tracer
                )
                sp.set("p", structure.p)
                sp.set("r", structure.r)
        else:
            structure = compute_prime_structure(
                chain, bound, apply_reduction=apply_reduction
            )
    elif traced:
        root.set("structure_reused", True)
    if traced:
        # The Figure-2 quantities live on the root span so one record
        # carries the whole cost model (p, q, p log q) for this query.
        root.set("p", structure.p)
        root.set("r", structure.r)
        q = structure.q
        root.set("q", q)
        root.set("p_log_q", structure.p * math.log2(q) if q > 1.0 else 0.0)  # repro-mutate: equivalent=flip-compare -- log2(1) == 0, both branches emit 0.0 at q == 1
        sweep_span = tracer.span("temp_s_sweep", r=structure.r)
        sweep_span.__enter__()
        # The span's own counter feeds TEMP_S, so exported search-step
        # counts and queue-length traces are the measured values, not a
        # parallel estimate.
        counter: Optional[OpCounter] = sweep_span.counter
    else:
        sweep_span = None
        counter = OpCounter() if collect_stats else None
    queue = TempSQueue(search=search, counter=counter)

    final_sol: Optional[SolutionNode] = None
    final_weight = 0.0
    if structure.p > 0:
        gamma_sol: Optional[SolutionNode] = None  # S_{lo_j - 1}; None = empty
        for edge in structure.edges:
            # REPRO017: one attribute load per field per lap, not four.
            first_prime = edge.first_prime
            edge_weight = edge.weight
            completed = queue.pop_completed(first_prime)
            if completed is not None:
                gamma_sol = completed.sol
            w_value = edge_weight + solution_weight(
                gamma_sol if first_prime > 0 else None  # repro-mutate: equivalent=flip-compare -- first_prime is nondecreasing, so gamma_sol is still None whenever it is 0
            )
            node = SolutionNode(
                edge.index,
                edge_weight,
                gamma_sol if first_prime > 0 else None,  # repro-mutate: equivalent=flip-compare -- first_prime is nondecreasing, so gamma_sol is still None whenever it is 0
            )
            queue.update(w_value, node, first_prime, edge.last_prime)
        # The last prime subpath never completes during the sweep; its
        # solution sits in the BOTTOM row ("Solution S_p is
        # TEMP_S(4, BOTTOM)").
        bottom = queue.bottom
        final_sol = bottom.sol
        final_weight = bottom.w
    if sweep_span is not None:
        sweep_span.__exit__(None, None, None)

    cut_indices = final_sol.edge_indices() if final_sol is not None else []
    stats: Optional[AlgorithmStats] = None
    if collect_stats:
        stats = AlgorithmStats(chain.num_tasks)
        stats.p = structure.p
        stats.r = structure.r
        stats.q_values = structure.q_values
        if counter is not None:
            stats.search_steps = counter.get("search_steps")
            stats.max_temp_s_len = int(counter.trace_max("temp_s_len"))
            stats.mean_temp_s_len = counter.trace_mean("temp_s_len")
    return ChainCutResult(
        chain, cut_indices, finite_optimum(final_weight, bound), stats
    )


def bandwidth_stats(chain: Chain, bound: float, **kwargs: Any) -> AlgorithmStats:
    """Convenience wrapper returning only the Figure-2 statistics."""
    result = bandwidth_min(chain, bound, collect_stats=True, **kwargs)
    assert result.stats is not None
    return result.stats
