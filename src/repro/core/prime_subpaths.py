"""Prime (minimal critical) subpaths of a chain — Section 2.3.

A *critical subpath* is a contiguous run of tasks whose total vertex
weight exceeds the bound ``K``.  A cut is feasible iff it removes at
least one edge from every critical subpath.  A critical subpath that
contains another critical subpath is *dominated*; the minimal ones are
*prime*, and hitting all primes suffices.  The paper shows there are at
most ``n - 1`` primes and that they can be found in linear time; this
module does so with a two-pointer sweep.

Throughout, task indices are 0-based and edge ``j`` joins tasks ``j``
and ``j + 1``.  A prime subpath over tasks ``[first_task .. last_task]``
has edge set ``[first_task .. last_task - 1]`` — always non-empty
because a single task never exceeds ``K`` (feasibility is validated
first).

The module also performs the paper's *non-redundant edge* reduction: if
two edges belong to exactly the same set of prime subpaths, the heavier
one can never appear in an optimal solution, so only the lightest edge
of each membership class is kept.  The paper bounds the number of kept
edges by ``min(n - 1, 2p - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from repro.core.feasibility import validate_bound
from repro.graphs.chain import Chain
from repro.instrumentation.counters import OpCounter

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability import Tracer


class PrimeSubpath(NamedTuple):
    """A minimal critical subpath.

    ``first_task .. last_task`` are the tasks it covers (inclusive);
    its edge interval is ``first_edge .. last_edge`` with
    ``first_edge == first_task`` and ``last_edge == last_task - 1``.
    """

    first_task: int
    last_task: int
    weight: float

    @property
    def first_edge(self) -> int:
        return self.first_task

    @property
    def last_edge(self) -> int:
        return self.last_task - 1

    @property
    def num_tasks(self) -> int:
        return self.last_task - self.first_task + 1

    @property
    def num_edges(self) -> int:
        return self.last_task - self.first_task

    def contains_edge(self, edge: int) -> bool:
        return self.first_edge <= edge <= self.last_edge


def find_prime_subpaths(
    chain: Chain, bound: float, counter: Optional[OpCounter] = None
) -> List[PrimeSubpath]:
    """All prime subpaths of ``chain`` under the bound, left to right.

    Two-pointer sweep, ``O(n)``.  For each left endpoint ``a`` the sweep
    finds the smallest ``b`` with ``weight(a..b) > bound``; the candidate
    ``[a, b]`` is prime iff no critical subpath nests strictly inside,
    which (with ``b`` minimal per ``a`` and non-decreasing in ``a``)
    happens exactly when the next candidate ends strictly later.

    Both endpoint sequences of the returned list are strictly
    increasing, which is the ordering property Algorithm 4.1 relies on.

    ``counter`` receives the sweep's work, derived analytically from the
    loop's final state (no per-iteration branches in the hot loop):
    ``prime_tasks_scanned`` left-endpoint iterations,
    ``prime_window_advances`` total right-pointer movement and
    ``prime_candidates`` candidate windows — each non-decreasing under
    chain extension, which the complexity gate's monotone fit relies on.
    """
    validate_bound(chain.alpha, bound)
    n = chain.num_tasks
    prefix = chain.prefix_weights()

    # ends[a] = smallest b >= a with weight(a..b) > bound, or None.
    candidates: List[Tuple[int, int]] = []
    b = 0
    scanned = n
    for a in range(n):
        if b <= a:
            # A single task is never critical: feasibility checked
            # max(alpha) <= K on the exact weights, and the prefix
            # difference for one task can exceed K only by cancellation
            # noise.  Start every window at two tasks so a spurious
            # zero-edge "prime" (unhittable by any cut) cannot arise.
            b = a + 1
        # Grow b until the window exceeds the bound.
        while b < n and prefix[b + 1] - prefix[a] <= bound:
            b += 1
        if b == n:
            scanned = a + 1
            break  # no window starting at >= a can exceed the bound
        candidates.append((a, b))
    if counter is not None:
        counter.add("prime_tasks_scanned", scanned)
        counter.add("prime_window_advances", b)
        counter.add("prime_candidates", len(candidates))

    primes: List[PrimeSubpath] = []
    for idx, (a, b) in enumerate(candidates):
        if idx + 1 < len(candidates) and candidates[idx + 1][1] == b:
            continue  # dominated: [a+1, b] is critical and nested inside
        primes.append(PrimeSubpath(a, b, prefix[b + 1] - prefix[a]))
    return primes


def edge_membership_intervals(
    primes: List[PrimeSubpath], num_edges: int
) -> Tuple[List[int], List[int]]:
    """For every edge ``j``, the contiguous range of prime indices
    containing it.

    Returns ``(lo, hi)`` arrays: edge ``j`` belongs to primes
    ``lo[j] .. hi[j]`` inclusive, or to none when ``lo[j] > hi[j]``.
    Because prime subpaths are sorted with strictly increasing endpoints,
    membership is always a contiguous interval, and the arrays are
    computed with two monotone pointers in ``O(n + p)``.

    The paper's ``gamma_j`` (index of the last prime wholly to the left
    of ``e_j``) is ``lo[j] - 1`` in 0-based terms, and the paper's
    ``q_j`` (number of primes containing ``e_j``) is
    ``hi[j] - lo[j] + 1``.
    """
    p = len(primes)
    lo = [p] * num_edges  # min i with last_edge >= j
    hi = [-1] * num_edges  # max i with first_edge <= j
    # REPRO017-adjacent: strip the NamedTuple attribute dispatch out of
    # the monotone-pointer loops — one flat list index per probe.
    last_edges = [prime.last_edge for prime in primes]
    first_edges = [prime.first_edge for prime in primes]
    lo_ptr = 0
    hi_ptr = -1
    for j in range(num_edges):
        while lo_ptr < p and last_edges[lo_ptr] < j:
            lo_ptr += 1
        while hi_ptr + 1 < p and first_edges[hi_ptr + 1] <= j:
            hi_ptr += 1
        lo[j] = lo_ptr
        hi[j] = hi_ptr
    return lo, hi


class ReducedEdge(NamedTuple):
    """A non-redundant edge kept for Algorithm 4.1.

    ``index``/``weight`` identify the chain edge; ``first_prime`` and
    ``last_prime`` give its (contiguous) prime-subpath membership.
    """

    index: int
    weight: float
    first_prime: int
    last_prime: int

    @property
    def gamma(self) -> int:
        """0-based ``gamma_j``: primes ``0 .. gamma`` all lie left of the
        edge (``-1`` when the edge is inside the very first prime)."""
        return self.first_prime - 1

    @property
    def q(self) -> int:
        """Number of primes containing this edge (the paper's ``q_j``)."""
        return self.last_prime - self.first_prime + 1


def reduce_edges(
    chain: Chain,
    primes: List[PrimeSubpath],
    membership: Optional[Tuple[List[int], List[int]]] = None,
    apply_reduction: bool = True,
    counter: Optional[OpCounter] = None,
) -> List[ReducedEdge]:
    """The non-redundant edge list, in increasing edge order.

    Edges covered by no prime subpath are dropped (they can never pay
    for themselves in a minimum-weight hitting set).  Among edges with
    identical prime membership, only a minimum-weight one is kept
    (leftmost on ties, for determinism).  Pass
    ``apply_reduction=False`` to keep every covered edge — used by the
    ablation benchmarks to measure what the reduction buys.

    ``counter`` receives ``prime_edge_scans`` — one unit per chain edge
    examined, i.e. exactly ``n - 1`` (analytic, outside the loop).
    """
    if counter is not None:
        counter.add("prime_edge_scans", chain.num_edges)
    lo, hi = membership or edge_membership_intervals(primes, chain.num_edges)
    kept: List[ReducedEdge] = []
    beta = chain.beta
    for j in range(chain.num_edges):
        # REPRO017-adjacent: one subscript per interval bound per lap.
        lo_j = lo[j]
        hi_j = hi[j]
        if lo_j > hi_j:
            continue  # edge in no prime subpath
        weight_j = beta[j]
        candidate = ReducedEdge(j, weight_j, lo_j, hi_j)
        tail = kept[-1] if kept else None
        if (
            apply_reduction
            and tail is not None
            and tail.first_prime == lo_j
            and tail.last_prime == hi_j
        ):
            if weight_j < tail.weight:
                kept[-1] = candidate
        else:
            kept.append(candidate)
    return kept


@dataclass
class PrimeStructure:
    """Everything Algorithm 4.1 needs, precomputed in ``O(n)``.

    Also carries the quantities Figure 2 plots: ``p`` (prime count),
    ``r`` (non-redundant edge count), the per-edge ``q_j`` values and
    their mean ``q``.
    """

    __slots__ = ("chain", "bound", "primes", "edges")

    chain: Chain
    bound: float
    primes: List[PrimeSubpath]
    edges: List[ReducedEdge]

    @classmethod
    def compute(
        cls,
        chain: Chain,
        bound: float,
        apply_reduction: bool = True,
        counter: Optional[OpCounter] = None,
    ) -> "PrimeStructure":
        """Build the structure: prime subpaths, then the reduced edges."""
        primes = find_prime_subpaths(chain, bound, counter=counter)
        edges = reduce_edges(
            chain, primes, apply_reduction=apply_reduction, counter=counter
        )
        return cls(chain, bound, primes, edges)

    @property
    def p(self) -> int:
        return len(self.primes)

    @property
    def r(self) -> int:
        return len(self.edges)

    @property
    def q_values(self) -> List[int]:
        return [edge.q for edge in self.edges]

    @property
    def q(self) -> float:
        if not self.edges:
            return 0.0
        return sum(edge.q for edge in self.edges) / len(self.edges)

    def mean_prime_length(self) -> float:
        """Average prime subpath length in tasks (Section 2.3.2 bound:
        at most ``2K / (w1 + w2)`` under uniform weights, in the
        large-``K`` regime)."""
        if not self.primes:
            return 0.0
        return sum(sp.num_tasks for sp in self.primes) / len(self.primes)

    def min_prime_weight(self) -> float:
        """Smallest prime-subpath weight (``inf`` when no primes).

        For any bound ``K'`` with ``bound <= K' < min_prime_weight()``
        every minimal critical window — and hence this whole structure —
        is unchanged, which is what the compiled plan's stability-interval
        memo exploits.
        """
        if not self.primes:
            return float("inf")
        return min(sp.weight for sp in self.primes)


def compute_prime_structure(
    chain: Chain,
    bound: float,
    apply_reduction: bool = True,
    tracer: Optional["Tracer"] = None,
    counter: Optional[OpCounter] = None,
) -> PrimeStructure:
    """The ``O(n)`` preprocessing: :meth:`PrimeStructure.compute`, traced.

    ``tracer`` (a :class:`repro.observability.Tracer`) records the two
    preprocessing phases as nested spans with the paper's quantities
    (``p``, ``r``) attached; ``None`` costs one branch.  ``counter``
    receives the sweep's analytic op counts (see
    :func:`find_prime_subpaths`).
    """
    if tracer is None:
        return PrimeStructure.compute(
            chain, bound, apply_reduction=apply_reduction, counter=counter
        )
    with tracer.span("find_primes", n=chain.num_tasks, bound=bound) as sp:
        primes = find_prime_subpaths(chain, bound, counter=counter)
        sp.set("p", len(primes))
    with tracer.span("reduce_edges", num_edges=chain.num_edges) as sp:
        edges = reduce_edges(
            chain, primes, apply_reduction=apply_reduction, counter=counter
        )
        sp.set("r", len(edges))
    return PrimeStructure(chain, bound, primes, edges)
