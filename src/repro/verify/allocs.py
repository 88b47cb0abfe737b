"""Dynamic allocation certifier: tracemalloc budgets for hot paths.

The static pass (:mod:`repro.verify.hotpath`) proves the *code shape*
of the contracted solver paths stays allocation-lean — no loop-invariant
rebuilds, no unbound attribute dispatch, no accidentally-quadratic
idioms, no NumPy temporary chains.  This module checks the claim
actually *holds at the allocator*: an :class:`AllocationHarness` runs
a warmed operation under ``sys.getallocatedblocks()`` deltas and a
``tracemalloc`` window and reports exact counts.

Scenario functions (``measure_*``) cover the paths the zero-overhead
and warm-query claims rest on:

- the disabled-telemetry paths (the REPRO012 guard on ``NULL_HUB``,
  the null hub's publish no-ops, a locked ``Counter.inc``) — these
  must retain **zero** net allocator blocks per warm loop;
- a warm ``PlanCache``-style bound sweep on a compiled plan, where
  every query after the first hits the memoized structure;
- the reference ``compute_prime_structure``, the ``O(n)``
  preprocessing every solver call rides on.

Measured numbers become committed budgets in ``BENCH_engine.json``
(encoded with :func:`ratchet_ratio`, so ``repro ratchet`` fails when a
path blows >25% past its budget): the static pass claims, this
harness certifies.

Warm loops measure steady state, not first-call effects: imports,
freelists, caches and memos are primed by ``warmup`` iterations before
any counter is read, and the net-block delta takes the minimum across
``repeats`` windows because stray daemon allocations only ever inflate
it.
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from typing import Any, Callable, Dict

__all__ = [
    "AllocationBudgetError",
    "AllocationHarness",
    "certify_budgets",
    "measure_disabled_telemetry",
    "measure_prime_structure",
    "measure_warm_plan_sweep",
    "ratchet_ratio",
]


class AllocationBudgetError(AssertionError):
    """A measured path exceeded its committed allocation budget."""


#: Op callback signature: one unit of hot-path work, no arguments.
AllocOp = Callable[[], Any]


class AllocationHarness:
    """Measure allocator activity of one warmed operation.

    Parameters
    ----------
    warmup:
        Iterations run before any measurement, so imports, freelists,
        memo tables and interned objects are in steady state.
    iterations:
        Iterations inside each measurement window.
    repeats:
        Net-block windows measured; the minimum delta is reported
        (background allocations can only inflate a window, never
        shrink it).
    seed:
        Seeds the deterministic workloads the ``measure_*`` scenarios
        build, so budgets are reproducible bit-for-bit.
    """

    __slots__ = ("warmup", "iterations", "repeats", "seed")

    def __init__(
        self,
        warmup: int = 1_000,
        iterations: int = 20_000,
        repeats: int = 3,
        seed: int = 0,
    ) -> None:
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        if repeats <= 0:
            raise ValueError(f"repeats must be positive, got {repeats}")
        self.warmup = warmup
        self.iterations = iterations
        self.repeats = repeats
        self.seed = seed

    @property
    def total_iterations(self) -> int:
        """Measured iterations across all net-block windows."""
        return self.iterations * self.repeats

    def measure(self, op: AllocOp) -> Dict[str, int]:
        """Run ``op`` warm and return its allocator footprint.

        Returns ``{"net_blocks", "net_bytes", "peak_bytes"}``:
        ``net_blocks`` is the best (minimum) ``getallocatedblocks()``
        delta across the repeat windows — the retained-allocation
        count, 0 for a truly allocation-free path; ``net_bytes`` and
        ``peak_bytes`` come from one ``tracemalloc`` window over
        ``iterations`` calls (retained and high-water traced bytes).
        """
        for _ in range(self.warmup):
            op()
        gc.collect()
        net_blocks: int = sys.maxsize
        for _ in range(self.repeats):
            gc.collect()
            before = sys.getallocatedblocks()
            for _ in range(self.iterations):
                op()
            gc.collect()
            delta = sys.getallocatedblocks() - before
            if delta < net_blocks:
                net_blocks = delta
        # Byte-level pass, kept outside the block windows: tracemalloc's
        # own bookkeeping allocates and would drown the block deltas.
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        gc.collect()
        tracemalloc.clear_traces()
        for _ in range(self.iterations):
            op()
        net_bytes, peak_bytes = tracemalloc.get_traced_memory()
        if not was_tracing:
            tracemalloc.stop()
        gc.collect()
        return {
            "net_blocks": net_blocks,
            "net_bytes": net_bytes,
            "peak_bytes": peak_bytes,
        }


def ratchet_ratio(measured: int, budget: int) -> float:
    """Encode a budget check as a higher-is-better ratchet ratio.

    Exactly ``1.0`` whenever ``measured <= budget`` (so the committed
    baseline is stable run to run), decaying as ``budget / measured``
    beyond it — under ``repro ratchet``'s default 20% tolerance the
    gate trips once a path allocates more than 1.25x its budget.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    clamped = max(0, measured)
    return budget / float(max(clamped, budget))


def certify_budgets(
    measured: Dict[str, Dict[str, int]],
    budgets: Dict[str, Dict[str, int]],
) -> None:
    """Raise :class:`AllocationBudgetError` on any blown budget.

    ``measured`` and ``budgets`` are nested ``{scenario: {field:
    value}}`` dicts; only fields present in ``budgets`` are checked, so
    a budget file can pin ``net_blocks`` without pinning noisy byte
    counts.
    """
    blown = []
    for scenario, fields in budgets.items():
        if scenario not in measured:
            blown.append(f"{scenario}: not measured")
            continue
        for field, budget in fields.items():
            got = measured[scenario].get(field)
            if got is None or got > budget:
                blown.append(f"{scenario}.{field}: {got} > budget {budget}")
    if blown:
        raise AllocationBudgetError(
            "allocation budgets exceeded:\n" + "\n".join(blown)
        )


def _make_chain(rng: random.Random, n: int) -> Any:
    from repro.graphs.chain import Chain

    return Chain(
        alpha=[rng.randint(1, 9) for _ in range(n)],
        beta=[rng.randint(1, 5) for _ in range(n - 1)],
    )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def measure_disabled_telemetry(
    harness: AllocationHarness,
) -> Dict[str, Dict[str, int]]:
    """The three zero-overhead telemetry paths, one footprint each.

    Certifies the claims behind REPRO012 and the disabled-path bench:
    the ``if hub.enabled:`` guard on :data:`NULL_HUB`, the null hub's
    publish no-ops on a prebuilt event, and a locked ``Counter.inc``
    must all retain zero allocator blocks once warm.
    """
    from repro.observability.live import NULL_HUB
    from repro.observability.metrics import Counter

    event = {"kind": "event", "event": "alloc"}
    counter = Counter("alloc.certify")

    def guard() -> None:
        if NULL_HUB.enabled:
            NULL_HUB.publish({"kind": "event"})

    def publish() -> None:
        NULL_HUB.publish(event)

    def inc() -> None:
        counter.inc(1.0)

    return {
        "guard": harness.measure(guard),
        "publish": harness.measure(publish),
        "counter_inc": harness.measure(inc),
    }


def measure_warm_plan_sweep(
    harness: AllocationHarness, *, tasks: int = 512, queries: int = 32
) -> Dict[str, int]:
    """Footprint of one warm multi-bound sweep on a compiled plan.

    Every bound hits the plan's memoized structure after warmup, so
    the steady-state cost is the query bookkeeping plus the returned
    result array — the per-sweep byte budget pins exactly that.
    """
    from repro.engine.plan import compile_chain

    rng = random.Random(f"{harness.seed}-plan-sweep")
    chain = _make_chain(rng, tasks)
    plan = compile_chain(chain)
    alpha_max = float(chain.max_vertex_weight())
    bounds = [
        alpha_max * (1.25 + 2.75 * q / max(1, queries - 1))
        for q in range(queries)
    ]

    def sweep() -> None:
        plan.solve_bounds(bounds)

    return harness.measure(sweep)


def measure_prime_structure(
    harness: AllocationHarness, *, tasks: int = 256
) -> Dict[str, int]:
    """Footprint of one ``compute_prime_structure`` reference call.

    The ``O(n)`` preprocessing allocates by design (primes, membership
    intervals, reduced edges); the budget pins it from creeping — a
    reintroduced per-edge temporary shows up as a byte-budget blowout
    long before it shows up as a timing regression.
    """
    from repro.core.prime_subpaths import compute_prime_structure

    rng = random.Random(f"{harness.seed}-prime-structure")
    chain = _make_chain(rng, tasks)
    bound = 2.0 * float(chain.max_vertex_weight())

    def build() -> None:
        compute_prime_structure(chain, bound)

    return harness.measure(build)

