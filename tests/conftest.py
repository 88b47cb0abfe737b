"""Shared fixtures: canonical instances used across the test suite, plus
the thread and fault helpers of the ``test_threads_and_faults`` modules."""

from __future__ import annotations

import random
import sys
import threading
import traceback

import pytest

from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, random_tree
from repro.graphs.tree import Tree


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260706)


@pytest.fixture
def small_chain() -> Chain:
    """5 tasks / 4 edges; used throughout with bound K = 9.

    alpha = [4, 3, 5, 2, 6], beta = [7, 1, 9, 2].  Critical subpaths
    under K=9: (0,1,2)=12, (1,2,3)=10, (2,3,4)=13; primes are all three.
    Optimal bandwidth cut: edges {1, 3} with weight 3.
    """
    return Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])


@pytest.fixture
def single_task_chain() -> Chain:
    return Chain([5.0], [])


@pytest.fixture
def small_tree() -> Tree:
    """A 7-vertex tree: 0 is the root of two branches.

          0(3)
         /    \\
       1(4)   2(5)
       /  \\     \\
     3(2) 4(6)  5(1)
                  \\
                  6(7)

    Edge weights chosen distinct for unambiguous bottleneck tests.
    """
    return Tree(
        [3, 4, 5, 2, 6, 1, 7],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)],
        [10, 20, 30, 40, 50, 60],
    )


@pytest.fixture
def star_tree() -> Tree:
    """Star with centre weight 0, five leaves (Theorem 1 shape)."""
    return Tree.star(0.0, [2, 3, 4, 5, 6], [10, 20, 30, 40, 50])


@pytest.fixture
def python_route(monkeypatch):
    """Unload the native library for one test: every caller of
    ``repro.engine.native.load_sweep`` takes its pure-Python route.  The
    tree suites rerun their classes on it as ``<Class>OnPython``
    subclasses, so the fallback keeps its own coverage and mutation
    kills."""
    from repro.engine import native

    monkeypatch.setattr(native, "load_sweep", lambda: None)


def on_both_routes(build, run):
    """``(run(build()) natively, run(build()) in pure Python)``: each
    route gets a freshly built input, so nothing one route caches (a
    tree's sorted edges) reaches the other.  Skips where the native
    library does not load."""
    from repro.engine import native

    load = native.load_sweep
    if load() is None:
        pytest.skip("native library unavailable (no gcc?)")
    got = run(build())
    native.load_sweep = lambda: None
    try:
        want = run(build())
    finally:
        native.load_sweep = load
    return got, want


@pytest.fixture
def medium_chain(rng) -> Chain:
    return random_chain(200, rng, vertex_range=(1, 10), edge_range=(1, 100))


@pytest.fixture
def medium_tree(rng) -> Tree:
    return random_tree(150, rng, vertex_range=(1, 10), edge_range=(1, 100))


# ----------------------------------------------------------------------
# Thread and fault helpers for the ``test_threads_and_faults`` modules
# ----------------------------------------------------------------------


def hammer(op, *, threads, ops_per_thread, seed):
    """Run ``op(tid, i, rng)`` from ``threads`` threads at once.

    The threads start together at a barrier, each draws from its own
    ``random.Random(seed * 1_000_003 + tid)`` stream (so the workload
    is reproducible while the OS picks the interleaving), and the
    switch interval is cranked down to 10 µs for the run so the
    scheduler interleaves at bytecode granularity.  Any exception in a
    thread fails the caller's test.
    """
    barrier = threading.Barrier(threads)
    failures = []

    def body(tid):
        rng = random.Random(seed * 1_000_003 + tid)
        try:
            barrier.wait()
            for i in range(ops_per_thread):
                op(tid, i, rng)
        except BaseException:
            failures.append(f"[thread {tid}]\n{traceback.format_exc()}")

    workers = [
        threading.Thread(target=body, args=(tid,), name=f"hammer-{tid}")
        for tid in range(threads)
    ]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(old_interval)
    assert not failures, "\n".join(failures)


class InjectedFault(Exception):
    """What every injected site raises; nothing in the library catches
    it by type."""


def raise_on_first_call(real, calls):
    """A stand-in for ``real`` that records each call in ``calls`` and
    raises :class:`InjectedFault` on the first one.  Tests assert
    ``calls`` afterwards, so a site that is never reached fails them."""

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise InjectedFault(f"injected fault (call {len(calls)})")
        return real(*args, **kwargs)

    return patched


def lock_released(lock, timeout=2.0):
    """Can ``lock`` be acquired from *another* thread?

    An ``RLock`` always lets its owner re-acquire, so a same-thread
    probe cannot tell "released" from "held by me"; a probe thread can.
    """
    acquired = []

    def probe():
        got = lock.acquire(timeout=timeout)
        if got:
            lock.release()
        acquired.append(got)

    worker = threading.Thread(target=probe, name="lock-probe")
    worker.start()
    worker.join(timeout + 1.0)
    return bool(acquired) and acquired[0]


#: The canonical query every fault test re-solves after its fault:
#: deterministic, instant, and long enough that a wrong cut shows.
CANONICAL_BOUND = 40.0


def canonical_chain() -> Chain:
    return Chain(
        [((7 * i) % 13) + 1.0 for i in range(60)],
        [((5 * i) % 7) + 1.0 for i in range(59)],
    )


def assert_recovers(engine) -> None:
    """``engine`` answers the canonical query bit-identically to a
    fresh engine, and the answer passes the paper certificate."""
    from repro.engine import PartitionEngine
    from repro.verify.certificates import check_chain_partition

    chain = canonical_chain()
    result = engine.solve(chain, CANONICAL_BOUND)
    reference = PartitionEngine().solve(chain, CANONICAL_BOUND)
    assert (float(result.weight), list(result.cut_indices)) == (
        float(reference.weight), list(reference.cut_indices)
    )
    report = check_chain_partition(
        chain, result.cut_indices, CANONICAL_BOUND,
        claimed_weight=result.weight,
    )
    assert report.ok, report
