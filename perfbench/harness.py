"""Timing, child-process and statistics plumbing shared by the workloads."""

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedprobe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Fresh child processes timed per set-up measurement (plus one untimed
#: warm child that fills the bytecode and page caches).
STARTUP_CHILDREN = 5


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (``share`` in ``(0, 1]``)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(1, math.ceil(share * len(ordered))), len(ordered))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the probe
    and the work it calibrates run on the same core.  Children spread
    over two vCPUs drifted apart from a probe run on one."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Segments:
    """Wall times of workload segments, each bracketed by probe samples.

    A segment's speed factor is the mean of the probe's speed factors
    taken just before and just after it; its adjusted time is wall time
    times that factor.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.walls = []
        self.factors = []

    def time(self, fn, *args):
        """Run ``fn(*args)`` as one segment; returns its result."""
        before = self.probe.measure()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self._record(wall, before, self.probe.measure())
        return out

    def child(self, argv, log_path):
        """Run one child process as a segment.

        Returns ``(exit_code, peak_rss_mb)`` of that child alone, taken
        from ``wait4`` so that other children do not blur it.  The
        start-up probe brackets the child.
        """
        before = self.probe.startup(str(ROOT), child_env())
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=str(ROOT), env=child_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._record(wall, before, self.probe.startup(str(ROOT), child_env()))
        return proc.returncode, usage.ru_maxrss / 1024.0

    def _record(self, wall, before, after) -> None:
        self.walls.append(wall)
        self.factors.append((before + after) / 2.0)

    def adjusted(self):
        return [w * f for w, f in zip(self.walls, self.factors)]

    def median_adjusted(self) -> float:
        return median(self.adjusted())

    def median_raw(self) -> float:
        return median(self.walls)

    def speed_factor(self) -> float:
        return median(self.factors)


def startup_argv():
    """Interpreter start-up, ``import repro`` and engine construction."""
    return [sys.executable, "-c", "import repro; repro.PartitionEngine()"]


def cli_batch_argv(src, dst):
    return [sys.executable, "-m", "repro", "batch",
            "--input", str(src), "--output", str(dst)]


def measure_startup(probe, argv, log_path, expected_code=0) -> Segments:
    """Time ``STARTUP_CHILDREN`` fresh children running ``argv``."""
    segments = Segments(probe)
    warm = subprocess.run(
        argv, cwd=str(ROOT), env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if warm.returncode != expected_code:
        raise RuntimeError(f"start-up child {argv} exited {warm.returncode}")
    for _ in range(STARTUP_CHILDREN):
        code, _ = segments.child(argv, log_path)
        if code != expected_code:
            raise RuntimeError(f"start-up child {argv} exited {code}")
    return segments


class Tally:
    """Operations attempted and failed; a failure is a wrong answer or an
    unexpected error."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(what)


class LayerClock:
    """Accumulated self times (seconds) and counts of the traced run.

    Besides per-layer metric names it carries the workloads' own
    bookkeeping: ``e2e`` time, ``e2e_queries``/``layer_queries``,
    ``sweep_calls`` time and ``plans_compiled``.
    """

    def __init__(self) -> None:
        self.seconds = {}
        self.raw = {}
        self.counts = {}
        self.latencies = []

    def add(self, name: str, seconds: float, factor: float = 1.0) -> None:
        """Add wall ``seconds``; ``seconds`` keeps them scaled by the speed
        ``factor``, ``raw`` unscaled."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds * factor
        self.raw[name] = self.raw.get(name, 0.0) + seconds

    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def absorb(self, other: "LayerClock", factor: float) -> None:
        """Fold in one segment's clock, its times scaled to reference
        speed by the segment's speed factor."""
        for name, seconds in other.seconds.items():
            self.add(name, seconds, factor)
        for name, amount in other.counts.items():
            self.count(name, amount)
        self.latencies.extend(t * factor for t in other.latencies)

    def timed(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.add(name, time.perf_counter() - t0)
        return out
