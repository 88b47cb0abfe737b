"""Compiled chain plans: the engine's one per-chain object.

Algorithm 4.1 splits a query into an ``O(n)`` structural phase (prime
subpaths, membership intervals, the non-redundant edge reduction) and an
``O(p log q)`` TEMP_S sweep.  :func:`compile_chain` takes the chain's
frozen float64 buffers (prefix weights, β table; no copy) and its
maximum task weight, and the resulting :class:`CompiledChainPlan`
answers every bandwidth query the engine serves on that chain —

- :meth:`CompiledChainPlan.solve_bounds` takes an array of bounds ``ks``
  and returns the optimal bandwidth for every one.  Bounds are sorted
  and grouped by *stability interval* (a structure built at ``K`` stays
  valid for every ``K' ∈ [K, min prime weight)``), and each distinct
  structure is built and swept once, in one
  :func:`~repro.engine.kernels.structure_sweep` call (native when
  ``_sweep.c`` builds).  A single
  :meth:`~repro.engine.batch.PartitionEngine.solve` is the one-bound
  case with ``return_cuts=True``.

Built structures live in the plan's stability-interval memo.  Every
fact a plan knows about its own work is a plain integer on
:attr:`CompiledChainPlan.stats` (a :class:`PlanStats`): memo hits,
interval hits, misses (= structures built), reuses and evictions, plus
sweeps and queries answered.  Plans carry no telemetry handles; the
engine hands each plan call a :class:`PlanStats` tally of that call's
delta and reports it as one ``plan`` event.  The memo is mutated only under the plan's
own lock, so one plan may serve many threads.

Exactness is non-negotiable: the sweep evaluates the same float
expressions in the same order as the scalar reference, so results are
bit-identical to per-call :func:`repro.core.bandwidth.bandwidth_min`
(the property suite and the ``REPRO_VERIFY=1`` cross-check below hold
this).  With ``REPRO_VERIFY=1`` every sweep answer — every element of
the output, not one per structure — is certified with
:func:`repro.verify.runtime.verify_cache_solve` against the pure-Python
solver.

Plans are cached per chain fingerprint by
:class:`repro.engine.cache.PlanCache`, the engine's only cache.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from bisect import bisect_right, insort
from collections import OrderedDict
from typing import Any, Iterable, List, Optional

from repro.core.feasibility import finite_optimum
from repro.engine.kernels import structure_sweep, validate_bound_array
from repro.graphs.chain import Chain

__all__ = ["CacheStats", "CompiledChainPlan", "PlanStats", "compile_chain"]

#: Queries whose bounds land in an already-built stability interval are
#: served from this per-plan memo; beyond this many distinct intervals
#: the oldest-built entries are dropped (the memo is an accelerator, not
#: a correctness structure).
DEFAULT_MAX_STRUCTURES = 128


class CacheStats:
    """Hit/miss accounting, exposed for tests and capacity planning.

    A plan's :attr:`~CompiledChainPlan.stats` counts per-query memo
    lookups: ``hits`` land on the bound a structure was built at,
    ``interval_hits`` elsewhere inside its stability interval, and
    ``misses`` build one.  :class:`~repro.engine.cache.PlanCache` uses
    the same record for plan lookups (its ``interval_hits`` stay zero).
    """

    __slots__ = ("hits", "interval_hits", "misses", "evictions")

    def __init__(
        self,
        hits: int = 0,
        interval_hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
    ) -> None:
        self.hits = hits
        self.interval_hits = interval_hits
        self.misses = misses
        self.evictions = evictions

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, interval_hits={self.interval_hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return (
            self.hits == other.hits
            and self.interval_hits == other.interval_hits
            and self.misses == other.misses
            and self.evictions == other.evictions
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.interval_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.interval_hits) / total if total else 0.0


class PlanStats(CacheStats):
    """A plan's own counts: memo lookups plus the work they led to.

    ``misses`` counts structures built (each memo miss builds one);
    ``reused`` counts stability-interval groups served from the memo;
    ``sweeps`` and ``queries`` count ``solve_bounds`` calls and the
    bounds they answered.  Equality compares
    the lookup counts only, as for :class:`CacheStats`.
    """

    __slots__ = ("reused", "sweeps", "queries")

    def __init__(self) -> None:
        super().__init__()
        self.reused = 0
        self.sweeps = 0
        self.queries = 0

    @property
    def built(self) -> int:
        """Structures built: one per memo miss."""
        return self.misses

    def record(
        self, hits: int, interval_hits: int, misses: int, reused: int,
        queries: int,
    ) -> None:
        """Add one sweep's counts."""
        self.hits += hits
        self.interval_hits += interval_hits
        self.misses += misses
        self.reused += reused
        self.sweeps += 1
        self.queries += queries

    def __repr__(self) -> str:
        return (
            f"PlanStats(hits={self.hits}, interval_hits={self.interval_hits}, "
            f"misses={self.misses}, evictions={self.evictions}, "
            f"reused={self.reused}, sweeps={self.sweeps}, "
            f"queries={self.queries})"
        )


class _FrozenStructure:
    """One built prime structure, frozen to what queries consume.

    ``valid_from`` is the bound the structure was built at and
    ``valid_until`` its minimum prime weight: any bound in
    ``[valid_from, valid_until)`` yields the identical structure, hence
    the identical optimal cut (the stability-interval invariant).  The
    optimal *weight* is always known; the cut is known when the build
    asked for it and is otherwise reconstructed on first demand.
    """

    __slots__ = ("valid_from", "valid_until", "weight", "cut", "p", "r")

    def __init__(
        self,
        valid_from: float,
        valid_until: float,
        weight: float,
        cut: Optional[List[int]],
        p: int,
        r: int,
    ) -> None:
        self.valid_from = valid_from
        self.valid_until = valid_until
        self.weight = weight
        self.cut = cut
        self.p = p
        self.r = r

    def covers(self, bound: float) -> bool:
        return self.valid_from <= bound < self.valid_until

    def __repr__(self) -> str:
        return (
            f"_FrozenStructure([{self.valid_from:g}, {self.valid_until:g}), "
            f"weight={self.weight:g}, p={self.p}, r={self.r})"
        )


class CompiledChainPlan:
    """A chain compiled for multi-query solving; see the module docstring.

    Build one with :func:`compile_chain` (or, preferably, through a
    :class:`~repro.engine.batch.PartitionEngine`, which caches plans by
    chain fingerprint).  A plan owns the chain's contiguous arrays plus
    a memo of frozen structures keyed by stability interval, so repeated
    queries over overlapping bound ranges pay the structural phase once
    per *interval*, not once per call.
    """

    __slots__ = (
        "chain",
        "max_structures",
        "stats",
        "_prefix",
        "_beta",
        "_alpha_max",
        "_memo",
        "_starts",
        "_lock",
    )

    def __init__(
        self,
        chain: Chain,
        *,
        max_structures: int = DEFAULT_MAX_STRUCTURES,
    ) -> None:
        self.chain = chain
        self.max_structures = max(1, int(max_structures))
        self.stats = PlanStats()
        _, self._beta, self._prefix = chain.buffers()
        self._alpha_max = chain.max_vertex_weight()
        # Frozen structures by stability interval.  Intervals are built
        # only on lookup misses, so they are pairwise disjoint and the
        # sorted-start bisect below has a unique candidate per bound.
        self._memo: "OrderedDict[float, _FrozenStructure]" = OrderedDict()
        self._starts: List[float] = []
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The compiled chain's content hash (the plan-cache key)."""
        return self.chain.fingerprint()

    def __len__(self) -> int:
        """Number of memoized frozen structures."""
        return len(self._memo)

    def __repr__(self) -> str:
        return (
            f"CompiledChainPlan(n={self.chain.num_tasks}, "
            f"structures={len(self._memo)})"
        )

    # ------------------------------------------------------------------
    # Structure builds
    # ------------------------------------------------------------------
    def _build(self, bound: float, with_cut: bool) -> _FrozenStructure:
        """Build, memoize and return the frozen structure at ``bound``.

        One :func:`~repro.engine.kernels.structure_sweep` call on the
        plan's frozen ``prefix``/``beta`` buffers, so no query
        re-validates or re-converts anything.  ``with_cut`` keeps the
        optimal cut; otherwise only the weight is computed and the cut
        is left for :meth:`_cut_for`.
        """
        cut, weight, p, r, valid_until = structure_sweep(
            self._prefix, self._beta, bound, with_cut
        )
        frozen = _FrozenStructure(bound, valid_until, weight, cut, p, r)
        self._remember(frozen)
        return frozen

    def _remember(self, frozen: _FrozenStructure) -> None:
        # REPRO016/017: maintain the sorted start index incrementally
        # (insort is O(k)) instead of re-sorting the whole memo — and
        # rebuilding the list — on every insert.
        memo = self._memo
        starts = self._starts
        while len(memo) >= self.max_structures:
            evicted, _ = memo.popitem(last=False)
            starts.remove(evicted)
            self.stats.evictions += 1
        if frozen.valid_from not in memo:
            insort(starts, frozen.valid_from)
        memo[frozen.valid_from] = frozen

    def _lookup(self, bound: float) -> Optional[_FrozenStructure]:
        """The memoized structure whose stability interval covers ``bound``.

        Intervals are disjoint (see ``__init__``), so the rightmost
        start at or below ``bound`` is the only possible cover.
        """
        starts = self._starts
        if not starts:
            return None
        pos = bisect_right(starts, bound) - 1
        if pos < 0:
            return None
        frozen = self._memo[starts[pos]]
        return frozen if frozen.covers(bound) else None

    def _cut_for(self, frozen: _FrozenStructure) -> List[int]:
        """The optimal cut for a frozen structure, reconstructed lazily.

        A weight-only build drops the solution arena; when a caller (or
        the verifier) wants the cut itself, the structure is rebuilt at
        ``valid_from`` — deterministic, so the rebuild is exact — and
        the full sweep runs once.  Its weight must equal the frozen one
        bit-for-bit; anything else is a kernel bug worth crashing on.
        """
        if frozen.cut is None:
            cut, weight, _, _, _ = structure_sweep(
                self._prefix, self._beta, frozen.valid_from, True
            )
            if weight != frozen.weight:
                raise AssertionError(
                    f"cut sweep weight {weight!r} diverged from the "
                    f"weight-only sweep {frozen.weight!r} at "
                    f"K={frozen.valid_from:g}"
                )
            frozen.cut = cut
        return frozen.cut

    # ------------------------------------------------------------------
    # Bound sweeps
    # ------------------------------------------------------------------
    def solve_bounds(
        self,
        ks: Iterable[float],
        *,
        return_cuts: bool = False,
        tally: Optional[PlanStats] = None,
    ) -> Any:
        """Optimal bandwidth for every bound in ``ks`` — one batched pass.

        ``O(k log k + g n log q)`` for ``k`` queries hitting ``g``
        distinct stability intervals: one stable sort, then per
        *group* (not per query) one structural build and one TEMP_S
        sweep.  ``ks`` is any one-dimensional iterable of numbers (an
        ndarray included).  Returns an ``array("d")`` of weights
        aligned with ``ks``; with
        ``return_cuts=True`` also a list of sorted edge-index lists
        (queries sharing a structure share the identical optimal cut —
        each entry is a fresh list, safe to mutate).

        Every element is bit-identical to
        ``bandwidth_min(chain, k).weight`` at the same ``k``; under
        ``REPRO_VERIFY=1`` each one is certified against the pure-Python
        solver before the sweep returns.  The call's lookups, builds and
        reuses are added to :attr:`stats` and, when given, to ``tally``
        (the caller's exact per-call delta, however many threads share
        the plan).

        Raises :class:`~repro.core.feasibility.InfeasibleBoundError` if
        any bound is below the maximum task weight, and ``ValueError``
        on empty, non-1-D or non-finite input.
        """
        if getattr(ks, "ndim", 1) != 1:
            raise ValueError(f"ks must be one-dimensional, got shape {ks.shape}")  # type: ignore[attr-defined]
        try:
            bounds = array("d", ks)
        except TypeError as exc:
            raise ValueError(
                f"ks must be a one-dimensional sequence of numbers: {exc}"
            ) from None
        if not bounds:
            raise ValueError("ks must contain at least one bound")
        if not all(map(math.isfinite, bounds)):
            raise ValueError("ks must be finite")
        with self._lock:
            return self._solve_bounds_impl(bounds, return_cuts, tally)

    def _solve_bounds_impl(
        self, bounds: array, return_cuts: bool, tally: Optional[PlanStats]
    ) -> Any:
        total = len(bounds)
        positions = sorted(range(total), key=bounds.__getitem__)  # stable
        ks = [bounds[i] for i in positions]
        # One feasibility check clears the whole batch: bounds are
        # validated smallest-first, and feasibility is monotone in K.
        validate_bound_array(self._alpha_max, ks[0])
        verify = "REPRO_VERIFY" in os.environ  # repro-lint: disable=REPRO023 opt-in verification gate; raises on failure, never alters outputs
        need_cuts = return_cuts or verify
        weights = array("d", bounds)  # every slot is overwritten below
        cuts: List[List[int]] = [[] for _ in range(total)] if return_cuts else []
        hits = interval_hits = misses = 0
        reused = 0
        i = 0
        while i < total:
            frozen = self._lookup(ks[i])
            miss = frozen is None
            if frozen is None:
                frozen = self._build(ks[i], need_cuts)
                misses += 1
            else:
                reused += 1
            weight = finite_optimum(frozen.weight, ks[i])
            cut = self._cut_for(frozen) if need_cuts else []
            start = frozen.valid_from
            end = frozen.valid_until
            while i < total and ks[i] < end:
                if miss:  # the group's first query built the structure
                    miss = False
                elif ks[i] == start:
                    hits += 1
                else:
                    interval_hits += 1
                idx = positions[i]
                weights[idx] = weight
                if return_cuts:
                    cuts[idx] = list(cut)
                if verify:
                    self._verify_answer(ks[i], cut, weight)
                i += 1
        self.stats.record(hits, interval_hits, misses, reused, total)
        if tally is not None:
            tally.record(hits, interval_hits, misses, reused, total)
        if return_cuts:
            return weights, cuts
        return weights

    def _verify_answer(self, bound: float, cut: List[int], weight: float) -> None:
        from repro.core.bandwidth import ChainCutResult
        from repro.verify.runtime import maybe_verify_cache_solve

        maybe_verify_cache_solve(
            self.chain, bound, ChainCutResult(self.chain, list(cut), weight)
        )


def compile_chain(
    chain: Chain, *, max_structures: int = DEFAULT_MAX_STRUCTURES
) -> CompiledChainPlan:
    """Compile ``chain`` into a :class:`CompiledChainPlan` — ``O(n)``.

    The chain already froze the chain-level half of Algorithm 4.1's
    preprocessing (prefix weights, β table, feasibility floor); the
    returned plan reads those buffers without a copy and answers bound
    sweeps with one kernel call per distinct structure.
    """
    return CompiledChainPlan(chain, max_structures=max_structures)
