"""Vectorized (NumPy) fast-path kernels for the chain pipeline.

The paper's preprocessing — prefix weights, the two-pointer prime-subpath
sweep, edge-membership intervals and the non-redundant-edge reduction —
is ``O(n)`` but *interpreted* ``O(n)`` in the reference implementation:
every task costs a Python bytecode loop iteration.  This module
re-expresses each step as array operations (``np.cumsum``,
``np.searchsorted``, ``np.minimum.reduceat``), cutting the constant
factor by one to two orders of magnitude on large chains while producing
**bit-identical** output to :mod:`repro.core.prime_subpaths`.

Float discipline
----------------

The reference decides criticality with the *subtraction form*
``prefix[b + 1] - prefix[a] > bound``.  ``np.searchsorted`` can only
evaluate the *addition form* ``prefix[b + 1] > prefix[a] + bound``,
which may disagree by one position when a window weight sits within an
ulp of the bound.  :func:`prime_windows` therefore seeds each endpoint
with ``searchsorted`` and then runs a vectorized fix-up that nudges
endpoints until the subtraction-form predicate holds exactly — same
comparisons as the pure-Python loop, so the kernels and the reference
never diverge, not even on adversarial ties (the property suite asserts
this).

Composition
-----------

:func:`structure_sweep` is the one composer: given a chain's frozen
``prefix``/``beta`` buffers and a bound it returns the optimal cut (or
weight only), ``p``, ``r`` and the bound's stability interval.  It runs
the native ``structure_sweep`` entry of ``_sweep.c`` when that builds: the
prime windows, membership intervals, edge reduction and TEMP_S sweep in
one call, with no per-query NumPy temporaries.  Otherwise it chains the
NumPy primitives: :func:`prime_windows`, :func:`membership_intervals`
and :func:`reduced_edge_arrays` (or the weight-only
:func:`reduced_class_arrays`) feed :func:`temps_sweep`, the TEMP_S sweep
(native ``temps_sweep`` when it builds, else :func:`sweep_min_cut`).
Both routes give the same columns and floats.
:class:`repro.engine.plan.CompiledChainPlan` is its caller; the
primitives also serve perfbench's kernel-by-kernel replay, and the
pure-Python reference in :mod:`repro.core` never calls them.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from repro.core.feasibility import InfeasibleBoundError
from repro.engine import native
from repro.graphs.chain import Chain


def require_numpy() -> None:
    """Raise a helpful error when the NumPy fast path is unavailable."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "the engine's kernels require NumPy; install it or call the "
            "pure-Python reference (repro.core.bandwidth.bandwidth_min)"
        )


def prefix_array(chain: Chain) -> "np.ndarray":
    """The chain's read-only float64 prefix weights (len n + 1), no copy.

    The chain computed them once with ``np.cumsum``, which adds left to
    right as the reference's ``itertools.accumulate`` does, so
    downstream comparisons match the reference.
    """
    require_numpy()
    return chain.buffers()[2]


def beta_array(chain: Chain) -> "np.ndarray":
    """The chain's read-only float64 edge weights (len n - 1), no copy."""
    require_numpy()
    return chain.buffers()[1]


def validate_bound_array(alpha_max: float, bound: float) -> None:
    """Array-path twin of :func:`repro.core.feasibility.validate_bound`
    taking a precomputed max vertex weight (the plan stores it)."""
    if not 0 < bound < math.inf:
        raise ValueError(f"bound K must be positive and finite, got {bound:g}")
    if alpha_max > bound:
        raise InfeasibleBoundError(bound, alpha_max)


def prime_windows(
    prefix: "np.ndarray", bound: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized two-pointer sweep: the prime subpaths under ``bound``.

    Returns ``(first_tasks, last_tasks)`` arrays, both strictly
    increasing.  For each left endpoint ``a`` the minimal critical right
    endpoint is seeded with ``np.searchsorted`` and corrected to the
    reference's subtraction-form predicate (see module docstring); a
    candidate survives exactly when no later candidate shares its right
    endpoint (the domination rule of ``find_prime_subpaths``).
    """
    n = prefix.shape[0] - 1
    if n <= 0:  # repro-mutate: equivalent=flip-compare -- at n == 0 the vector path below returns the same empty arrays
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Prefix sums of weights near 1e308 overflow to inf, and inf - inf
    # is nan.  The reference grows a window while ``gap <= bound``, so it
    # calls a window critical when that test fails — a nan gap included.
    # The predicates below are written the same way, ``not (gap <=
    # bound)`` rather than ``gap > bound``, and see the same inf/nan
    # values as the reference's Python floats, which never warn, so
    # neither may the array arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        starts = prefix[:-1]
        # j approximates the first index with prefix[j] - prefix[a] > bound.
        j = np.searchsorted(prefix, starts + bound, side="right")  # repro-mutate: equivalent=swap-arith -- only a seed guess; the sweeps below re-derive the exact boundary
        a = np.arange(n, dtype=np.int64)
        # Floor at a + 2: a critical window spans at least two tasks, since
        # feasibility validated max(alpha) <= K exactly and a single-task
        # prefix difference can exceed K only by cancellation noise (the
        # reference sweep enforces the same floor).
        floor = a + 2
        np.clip(j, floor, n, out=j)  # repro-mutate: equivalent=shift-index -- an over-clipped seed is pulled straight back by the down sweep (prefix is monotone)
        # Fix-up to the exact subtraction-form predicate (monotone in j, so
        # each loop runs to a fixpoint; in practice 0-1 iterations).
        # REPRO019: the predicates reuse preallocated scratch buffers via
        # out= instead of chaining four fresh temporaries per pass.
        idx = np.empty(n, dtype=np.int64)
        gap = np.empty_like(starts)
        mask = np.empty(n, dtype=bool)
        inb = np.empty(n, dtype=bool)
        # REPRO017: the ufuncs themselves are module-attribute loads; bind
        # them once rather than twice per fix-up pass.
        np_take, np_subtract = np.take, np.subtract
        np_greater, np_less_equal, np_and = np.greater, np.less_equal, np.logical_and
        while True:
            # down: (j > floor) & ~(prefix[j - 1] - starts <= bound)
            np_subtract(j, 1, out=idx)  # repro-mutate: equivalent=flip-compare,swap-arith -- a misfiring down sweep only undershoots; the up sweep re-derives the boundary with the exact predicate
            np_take(prefix, idx, out=gap)
            np_subtract(gap, starts, out=gap)
            np_less_equal(gap, bound, out=mask)
            np.logical_not(mask, out=mask)
            np_greater(j, floor, out=inb)
            np_and(mask, inb, out=mask)
            if not mask.any():
                break
            j[mask] -= 1
        while True:
            # up: (j < n) & (prefix[j] - starts <= bound)
            np_take(prefix, j, out=gap)
            np_subtract(gap, starts, out=gap)
            np_less_equal(gap, bound, out=mask)
            np.less(j, n, out=inb)
            np_and(mask, inb, out=mask)
            if not mask.any():
                break
            j[mask] += 1
        exceeds = ~(prefix[j] - starts <= bound)
        valid = exceeds & (j > a + 1)  # repro-mutate: equivalent=flip-compare -- the clip keeps j >= a + 2, so this guard holds either way
        a = a[valid]
        ends = j[valid] - 1  # last task of the minimal critical window
        if a.shape[0] == 0:
            return a, ends
        # Keep candidate a iff the next candidate ends strictly later.
        keep = np.empty(a.shape[0], dtype=bool)
        keep[:-1] = ends[1:] > ends[:-1]
        keep[-1] = True
        return a[keep], ends[keep]


def prime_weight_array(
    prefix: "np.ndarray", first_tasks: "np.ndarray", last_tasks: "np.ndarray"
) -> "np.ndarray":
    """Prime-subpath weights ``prefix[last + 1] - prefix[first]``.

    Overflowed (inf) prefixes give inf or nan here, as they do in the
    reference, without a RuntimeWarning (see :func:`prime_windows`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return prefix[last_tasks + 1] - prefix[first_tasks]


def stability_end(prime_weights: "np.ndarray") -> float:
    """The exclusive upper end of the bounds a structure stays valid for.

    A structure built at ``K`` is unchanged for every ``K'`` in ``[K,
    w)`` where ``w`` is its smallest prime weight: each prime stays
    critical and no window turns critical.  A nan weight (an overflowed
    prefix, see :func:`prime_windows`) is critical at every bound, so it
    never ends the interval and is skipped.  ``inf`` when there are no
    primes or every weight is nan.
    """
    return float(np.fmin.reduce(prime_weights, initial=np.inf))


def membership_intervals(
    first_edges: "np.ndarray", last_edges: "np.ndarray", num_edges: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-edge prime-membership intervals ``(lo, hi)``, vectorized.

    ``lo[j]`` is the first prime whose last edge is ``>= j`` and
    ``hi[j]`` the last prime whose first edge is ``<= j`` — exactly
    ``edge_membership_intervals``, but via two ``searchsorted`` calls on
    the (strictly increasing) prime endpoint arrays.
    """
    edges = np.arange(num_edges, dtype=np.int64)
    lo = np.searchsorted(last_edges, edges, side="left")
    hi = np.searchsorted(first_edges, edges, side="right") - 1
    return lo, hi


def reduced_edge_arrays(
    beta: "np.ndarray",
    lo: "np.ndarray",
    hi: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """The non-redundant edge reduction on arrays.

    Returns ``(index, weight, first_prime, last_prime)`` column arrays in
    increasing edge order: uncovered edges dropped, and each run of
    identical ``(lo, hi)`` membership collapsed to its minimum-weight
    edge, leftmost on ties — the same tie-break as ``reduce_edges``.
    """
    covered = lo <= hi
    idx = np.flatnonzero(covered)
    if idx.shape[0] == 0:
        return idx, beta[idx], lo[idx], hi[idx]
    lo_c, hi_c = lo[idx], hi[idx]
    # Membership intervals are monotone, so equal (lo, hi) pairs form
    # contiguous runs among the covered edges.
    boundary = np.empty(idx.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = (lo_c[1:] != lo_c[:-1]) | (hi_c[1:] != hi_c[:-1])
    starts = np.flatnonzero(boundary)
    weights = beta[idx]
    group_min = np.minimum.reduceat(weights, starts)
    group_of = np.cumsum(boundary) - 1
    # Leftmost position achieving the group minimum (strict-< update in
    # the reference keeps the first minimum it sees).
    positions = np.arange(idx.shape[0], dtype=np.int64)
    at_min = weights == group_min[group_of]
    sentinel = idx.shape[0]
    first_min = np.minimum.reduceat(
        np.where(at_min, positions, sentinel), starts
    )
    sel = idx[first_min]
    return sel, beta[sel], lo_c[first_min], hi_c[first_min]


def reduced_class_arrays(
    beta: "np.ndarray",
    first_tasks: "np.ndarray",
    last_tasks: "np.ndarray",
    num_edges: int,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Weight-only twin of :func:`reduced_edge_arrays`, built directly
    from the prime windows.

    The per-edge membership interval ``(lo, hi)`` is a pair of step
    functions of the edge index: ``lo`` increments at ``last_edges + 1 ==
    last_tasks`` and ``hi`` at ``first_edges == first_tasks``.  Merging
    the ~``2p`` breakpoints therefore yields every maximal run of equal
    ``(lo, hi)`` — the reduction classes — without materializing the
    ``O(n)`` per-edge arrays at all.  Each class's weight is its member
    minimum (``np.minimum.reduceat``), bit-identical to the
    minimum-weight representative :func:`reduced_edge_arrays` selects,
    because ``min`` over the same float multiset is order-independent.

    Returns ``(weight, first_prime, last_prime)`` — no representative
    edge index, which is exactly what the weight-only TEMP_S sweep
    (:func:`temps_sweep` with ``edge_index=None``) consumes.  Cut
    extraction still goes through :func:`reduced_edge_arrays`.
    """
    if first_tasks.shape[0] == 0:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_i, empty_i
    boundaries = np.concatenate((first_tasks, last_tasks))
    boundaries.sort()
    if boundaries[-1] >= num_edges:  # repro-mutate: equivalent=flip-compare -- a final last_tasks == num_edges breakpoint opens an empty uncovered segment that the cover mask drops anyway
        boundaries = boundaries[boundaries < num_edges]
    keep = np.empty(boundaries.shape[0], dtype=bool)
    keep[0] = True
    keep[1:] = boundaries[1:] != boundaries[:-1]
    seg_starts = boundaries[keep]
    # Membership at each segment start; constant within the segment.
    last_edges = last_tasks - 1
    lo = np.searchsorted(last_edges, seg_starts, side="left")
    hi = np.searchsorted(first_tasks, seg_starts, side="right") - 1
    covered = lo <= hi
    class_min = np.minimum.reduceat(beta, seg_starts)
    return class_min[covered], lo[covered], hi[covered]


class ArrayPrimeStructure:
    """A prime structure as plain column arrays: the prime windows and
    their weights, and the reduced-edge columns :func:`bandwidth_sweep`
    hands to :func:`temps_sweep`.  A record for replaying one solve
    kernel by kernel (perfbench's traced ``cold_solve``); the compiled
    plan goes through :func:`structure_sweep` instead."""

    __slots__ = (
        "chain",
        "bound",
        "first_tasks",
        "last_tasks",
        "prime_weights",
        "edge_index",
        "edge_weight",
        "edge_first",
        "edge_last",
    )

    def __init__(
        self,
        chain: Chain,
        bound: float,
        first_tasks: "np.ndarray",
        last_tasks: "np.ndarray",
        prime_weights: "np.ndarray",
        edge_index: "np.ndarray",
        edge_weight: "np.ndarray",
        edge_first: "np.ndarray",
        edge_last: "np.ndarray",
    ) -> None:
        self.chain = chain
        self.bound = bound
        self.first_tasks = first_tasks
        self.last_tasks = last_tasks
        self.prime_weights = prime_weights
        self.edge_index = edge_index
        self.edge_weight = edge_weight
        self.edge_first = edge_first
        self.edge_last = edge_last


def sweep_min_cut(
    edge_index: Sequence[int],
    edge_weight: Sequence[float],
    edge_first: Sequence[int],
    edge_last: Sequence[int],
) -> Tuple[List[int], float]:
    """Algorithm 4.1's TEMP_S sweep over flat columns, in Python.

    The fallback for :func:`temps_sweep` when the native kernel cannot
    be built, and the specification ``_sweep.c`` ports line for line.
    Semantically identical to driving :class:`repro.core.temp_s.TempSQueue`
    with ``search="binary"`` (same float expressions, same comparisons,
    same tie handling), but engineered for the interpreter: rows live in
    parallel Python lists (no per-row objects), the W-column binary
    search is :func:`bisect.bisect_left` (C speed), and solutions are an
    append-only arena of ``(edge, prev, cumulative weight)`` columns
    instead of :class:`SolutionNode` allocations.  Returns the optimal
    cut's sorted edge indices and its weight.
    """
    # Solution arena: id -> (chain edge, previous solution id or -1,
    # cumulative cut weight).  W_j of the recurrence equals the new
    # node's cumulative weight, exactly as in the reference.
    sol_edge: List[int] = []
    sol_prev: List[int] = []
    sol_w: List[float] = []
    # TEMP_S rows, TOP..BOTTOM, as parallel columns.
    row_lo: List[int] = []
    row_hi: List[int] = []
    row_w: List[float] = []
    row_sol: List[int] = []
    # REPRO017: bound methods once, not one attribute load per push.
    push_lo = row_lo.append
    push_hi = row_hi.append
    push_w = row_w.append
    push_sol = row_sol.append
    push_edge = sol_edge.append
    push_prev = sol_prev.append
    push_sw = sol_w.append
    top = 0
    gamma = -1  # solution id of S_{first_prime - 1}; -1 = empty solution
    for j, bw, fp, lp in zip(edge_index, edge_weight, edge_first, edge_last):
        # Retire primes completed before this edge (pop_completed).
        size = len(row_lo)
        while top < size:
            if row_lo[top] >= fp:
                break
            gamma = row_sol[top]
            if row_hi[top] < fp:
                top += 1  # entire row retired
            else:
                row_lo[top] = fp  # trim and stop
                break
        if fp > 0 and gamma >= 0:  # repro-mutate: equivalent=flip-compare -- first primes are nondecreasing, so gamma is still -1 whenever fp == 0
            wv = bw + sol_w[gamma]
            prev = gamma
        else:
            wv = bw
            prev = -1
        sid = len(sol_edge)
        push_edge(j)
        push_prev(prev)
        push_sw(wv)
        # First row (from TOP) whose W >= wv; replace it and everything
        # below with one row carrying wv, then open new subpaths.
        size = len(row_w)
        split = bisect_left(row_w, wv, top, size)
        if split < size:
            bottom_hi = row_hi[-1]
            row_hi[split] = bottom_hi if bottom_hi > lp else lp  # repro-mutate: equivalent=flip-compare -- max() tie: both branches store the same hi
            row_w[split] = wv
            row_sol[split] = sid
            if split + 1 < size:  # repro-mutate: equivalent=flip-compare -- deleting the empty slice [size:] is a no-op
                del row_lo[split + 1 :]
                del row_hi[split + 1 :]
                del row_w[split + 1 :]
                del row_sol[split + 1 :]
        elif top >= size:
            # Queue drained: anchor a fresh row at this edge's range.
            push_lo(fp)
            push_hi(lp)
            push_w(wv)
            push_sol(sid)
        elif lp > row_hi[-1]:
            push_lo(row_hi[-1] + 1)
            push_hi(lp)
            push_w(wv)
            push_sol(sid)
        # else: wv exceeds every open minimum and opens nothing — no-op.
    if top >= len(row_lo):
        return [], 0.0
    # Solution S_p sits in the BOTTOM row; materialize its edge chain.
    final = row_sol[-1]
    weight = row_w[-1]
    cut: List[int] = []
    while final >= 0:
        cut.append(sol_edge[final])
        final = sol_prev[final]
    cut.reverse()
    return cut, weight


def native_sweep_loaded() -> bool:
    """Whether :func:`temps_sweep` and :func:`structure_sweep` run the
    native kernels in this process.

    The first call builds or loads the library (see
    :mod:`repro.engine.native`); ``False`` means every structure build
    falls back to the NumPy primitives and every sweep to
    :func:`sweep_min_cut`.
    """
    return native.load_sweep() is not None


def temps_sweep(
    edge_index: Optional["np.ndarray"],
    edge_weight: "np.ndarray",
    edge_first: "np.ndarray",
    edge_last: "np.ndarray",
) -> Tuple[List[int], float]:
    """Algorithm 4.1's TEMP_S sweep over reduced-edge columns.

    Returns ``(cut, weight)``: the optimal cut's sorted edge indices and
    its weight, bit-identical to :func:`sweep_min_cut` on the same
    columns.  With ``edge_index=None`` only the weight is computed and
    ``cut`` comes back empty.  Runs the native kernel (``_sweep.c``) when
    it loaded, else :func:`sweep_min_cut`.
    """
    weight = np.ascontiguousarray(edge_weight, dtype=np.float64)
    first = np.ascontiguousarray(edge_first, dtype=np.int64)
    last = np.ascontiguousarray(edge_last, dtype=np.int64)
    index = (
        None
        if edge_index is None
        else np.ascontiguousarray(edge_index, dtype=np.int64)
    )
    columns = (first, last) if index is None else (first, last, index)
    if weight.ndim != 1 or any(c.shape != weight.shape for c in columns):
        raise ValueError("sweep columns must be 1-D and of equal length")
    r = weight.shape[0]
    lib = native.load_sweep()
    if lib is None:
        cut, total = sweep_min_cut(
            range(r) if index is None else index.tolist(),
            weight.tolist(),
            first.tolist(),
            last.tolist(),
        )
        return ([] if index is None else cut), total
    # The kernel reads the columns and writes cut_buf/out_weight in
    # place; the locals keep every buffer alive across the call.
    cut_buf = None if index is None else np.empty(r, dtype=np.int64)
    out_weight = ctypes.c_double()
    count = lib.temps_sweep(
        r,
        weight.ctypes.data,
        first.ctypes.data,
        last.ctypes.data,
        None if index is None else index.ctypes.data,
        None if cut_buf is None else cut_buf.ctypes.data,
        ctypes.byref(out_weight),
    )
    if count < 0:
        raise MemoryError("native TEMP_S sweep could not allocate its rows")
    cut = [] if cut_buf is None else cut_buf[:count].tolist()
    return cut, out_weight.value


def bandwidth_sweep(structure: ArrayPrimeStructure) -> Tuple[List[int], float]:
    """Run the TEMP_S sweep over a structure's reduced-edge columns."""
    return temps_sweep(
        structure.edge_index,
        structure.edge_weight,
        structure.edge_first,
        structure.edge_last,
    )


def structure_sweep(
    prefix: "np.ndarray", beta: "np.ndarray", bound: float, with_cut: bool
) -> Tuple[Optional[List[int]], float, int, int, float]:
    """Algorithm 4.1 at one bound, from a chain's frozen buffers, in
    ``O(n + p log q)``.

    ``prefix`` and ``beta`` are :func:`prefix_array` and
    :func:`beta_array`.  Returns ``(cut, weight, p, r, valid_until)``:
    the optimal cut's sorted edge indices (``None`` unless ``with_cut``
    or there are no primes), its weight, the prime and reduced-edge
    counts, and the end of the bound's stability interval
    (:func:`stability_end`).  Runs the native
    ``structure_sweep`` when it loaded, else the NumPy primitives and
    :func:`temps_sweep`; the two agree bit for bit.
    """
    prefix = np.ascontiguousarray(prefix, dtype=np.float64)
    beta = np.ascontiguousarray(beta, dtype=np.float64)
    n = prefix.shape[0] - 1
    if prefix.ndim != 1 or n < 1 or beta.shape != (n - 1,):
        raise ValueError("prefix needs n + 1 >= 2 entries and beta n - 1")
    lib = native.load_sweep()
    if lib is None:
        return _structure_sweep_numpy(prefix, beta, bound, with_cut)
    # The kernel writes cut_buf, out and sizes in place; the locals keep
    # every buffer alive across the call.
    cut_buf = np.empty(n, dtype=np.int64) if with_cut else None  # a cut has < n edges
    out = (ctypes.c_double * 2)()
    sizes = (ctypes.c_int64 * 2)()
    count = lib.structure_sweep(
        n,
        prefix.ctypes.data,
        beta.ctypes.data,
        bound,
        None if cut_buf is None else cut_buf.ctypes.data,
        out,
        sizes,
    )
    if count < 0:
        raise MemoryError("native structure build could not allocate its columns")
    p = sizes[0]
    if cut_buf is not None:
        cut: Optional[List[int]] = cut_buf[:count].tolist()
    else:
        cut = None if p else []  # with no primes the empty cut is known
    return cut, out[0], p, sizes[1], out[1]


def _structure_sweep_numpy(
    prefix: "np.ndarray", beta: "np.ndarray", bound: float, with_cut: bool
) -> Tuple[Optional[List[int]], float, int, int, float]:
    """:func:`structure_sweep` composed from the NumPy primitives."""
    first_tasks, last_tasks = prime_windows(prefix, bound)
    valid_until = stability_end(prime_weight_array(prefix, first_tasks, last_tasks))
    p = int(first_tasks.shape[0])
    if p == 0:
        return [], 0.0, 0, 0, valid_until
    num_edges = beta.shape[0]
    if with_cut:
        lo, hi = membership_intervals(first_tasks, last_tasks - 1, num_edges)
        columns = reduced_edge_arrays(beta, lo, hi)
        cut, weight = temps_sweep(*columns)
        return cut, weight, p, int(columns[0].shape[0]), valid_until
    classes = reduced_class_arrays(beta, first_tasks, last_tasks, num_edges)
    _, weight = temps_sweep(None, *classes)
    return None, weight, p, int(classes[0].shape[0]), valid_until
