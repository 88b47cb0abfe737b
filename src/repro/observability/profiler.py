"""A pure-stdlib stack-sampling profiler emitting flamegraph input.

:class:`ProfileSampler` runs a daemon thread that snapshots every other
thread's Python stack via :func:`sys._current_frames` at a fixed
interval, folding each snapshot into collapsed-stack counts
(``module:func;module:func;... count``) — the input format of
Brendan Gregg's ``flamegraph.pl`` and of speedscope's "collapsed"
importer.  No dependencies, no interpreter hooks, no per-call overhead
on the profiled code: cost scales with sampling rate, not with work.

Wall-clock sampling like this observes *where threads are*, including
time blocked on locks or I/O — for a solver workload that is exactly
the "why is this batch slow" signal.  Accuracy is statistical: a stack
must be live for roughly ``interval_s`` to be seen, so treat counts as
proportions, not call counts.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional


class ProfileSampler:
    """Sample all live thread stacks into collapsed-stack counts.

    Use as a context manager around the region of interest::

        with ProfileSampler(interval_s=0.005) as sampler:
            engine.solve_many(queries)
        sampler.write_collapsed("profile.collapsed")

    ``samples`` counts snapshots taken; each snapshot contributes one
    count per observed thread stack.

    Lifecycle transitions and count updates serialize on one reentrant
    ``_lock``: ``stop()`` is idempotent and safe to call from several
    threads at once — exactly one caller claims the sampler thread and
    joins it (outside the lock, so an in-flight ``sample_once`` can
    finish), the rest return immediately.
    """

    __slots__ = ("interval_s", "counts", "samples", "_thread", "_stop", "_lock")

    def __init__(self, interval_s: float = 0.005) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = interval_s
        #: collapsed stack ("mod:func;mod:func") -> observation count
        self.counts: Dict[str, int] = {}
        self.samples = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @staticmethod
    def _collapse(frame: object) -> str:
        """Render one frame chain root-first as ``mod:func;mod:func``."""
        parts: List[str] = []
        current = frame
        while current is not None:
            code = current.f_code  # type: ignore[attr-defined]
            module = code.co_filename.rsplit("/", 1)[-1]
            if module.endswith(".py"):
                module = module[:-3]
            parts.append(f"{module}:{code.co_name}")
            current = current.f_back  # type: ignore[attr-defined]
        parts.reverse()
        return ";".join(parts)

    def sample_once(self) -> None:
        """Take one snapshot of every other thread's stack."""
        own = threading.get_ident()
        frames = sys._current_frames()
        with self._lock:
            self.samples += 1
            for thread_id, frame in frames.items():
                if thread_id == own:
                    continue
                stack = self._collapse(frame)
                if stack:
                    self.counts[stack] = self.counts.get(stack, 0) + 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("profiler already started")
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop sampling.  Idempotent and safe under concurrent callers.

        The thread handle is claimed atomically under the lock, but the
        join happens outside it: the sampler thread may be inside
        ``sample_once`` waiting for the same lock, and joining while
        holding it would deadlock.
        """
        with self._lock:
            thread = self._thread
            self._thread = None
            if thread is None:
                return
            self._stop.set()
        thread.join(timeout=max(1.0, 10 * self.interval_s))

    def __enter__(self) -> "ProfileSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def collapsed_lines(self) -> List[str]:
        """``stack count`` lines, sorted by stack for stable output."""
        with self._lock:
            return [
                f"{stack} {count}"
                for stack, count in sorted(self.counts.items())
            ]

    def write_collapsed(self, path: str) -> int:
        """Write collapsed-stack lines to ``path``; returns line count."""
        lines = self.collapsed_lines()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    def top_stacks(self, limit: int = 10) -> List[str]:
        """The ``limit`` hottest stacks, hottest first."""
        with self._lock:
            ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [f"{count:6d}  {stack}" for stack, count in ranked[:limit]]


def profile_duration_estimate(sampler: ProfileSampler) -> float:
    """Rough wall seconds represented by the sampler's counts."""
    return sampler.samples * sampler.interval_s
