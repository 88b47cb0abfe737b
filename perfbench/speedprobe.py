"""Fixed work that measures how fast the host runs right now.

The host's effective CPU speed drifts by tens of percent within a minute,
and the program's own timings drift with it.  Every timed segment of a
workload is bracketed by probe samples; its wall time is scaled by
``P0 / probe_time`` so that reported seconds are "seconds at reference
speed".  The probe imports nothing from ``repro`` and runs with the
garbage collector off, so the program's heap cannot slow it down.

Segments that are whole child processes are scaled by a start-up probe
instead: a fresh interpreter that imports NumPy (``S0 / its time``).
Process start-up drifts with loading and page-fault costs that the
in-process probe does not see; on a 2-vCPU VM, scaling a start-up by the
in-process probe left its spread at 23% of the median, while scaling by
the start-up probe cut it to 9%.

The work mirrors what the solvers spend their time on: building and
walking adjacency lists, set and dict membership, sorting tuples, and
float scans with compares and appends.  A tight arithmetic loop that
stays in the first-level cache tracked the solvers' drift poorly: it
sped up about twice as much as they did when the host got faster.
"""

import gc
import statistics
import subprocess
import sys
import time

#: Probe time (seconds) that defines the reference speed.  Fixed here so
#: that every commit is measured against the same constant.
P0 = 0.0025

#: Start-up probe time (seconds) that defines the reference speed of a
#: child process, and the probe itself.
S0 = 0.2
STARTUP_PROBE = (sys.executable, "-c", "import numpy")

#: Samples per probe point.  A single sample is at the mercy of one
#: descheduling; the median of a few short ones is not.
_REPS = 3
_VERTICES = 1000
_FLOATS = 4000


def _graph_work(n=_VERTICES) -> int:
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):
        u = (v * 7919) % v
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    order = [0]
    i = 0
    while i < len(order):
        for w in adjacency[order[i]]:
            if w not in seen:
                seen.add(w)
                order.append(w)
        i += 1
    return len(sorted(((v * 2654435761) % 1000003, v) for v in order))


def _float_work(n=_FLOATS) -> int:
    values = [((i * 7919) % 1000) * 0.001 + 1.0 for i in range(n)]
    acc = 0.0
    best = 1e300
    kept = []
    for x in values:
        acc += x
        if acc - x < best:
            best = acc - x
        if x > 1.5:
            kept.append(acc)
    return len(kept)


class SpeedProbe:
    """Takes probe samples and keeps every reading (sample time over its
    reference time) for the run's report."""

    __slots__ = ("readings",)

    def __init__(self) -> None:
        self.readings = []

    def startup(self, cwd, env) -> float:
        """Time one start-up probe child; returns its speed factor."""
        t0 = time.perf_counter()
        subprocess.run(STARTUP_PROBE, cwd=cwd, env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        reading = (time.perf_counter() - t0) / S0
        self.readings.append(reading)
        return 1.0 / reading

    def measure(self) -> float:
        """Time ``_REPS`` in-process probe repetitions; returns the speed
        factor ``P0 / median``."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            out = []
            for _ in range(_REPS):
                t0 = time.perf_counter()
                _graph_work()
                _float_work()
                out.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        self.readings.extend(t / P0 for t in out)
        return P0 / statistics.median(out)

    def spread(self) -> float:
        """Interquartile range of all readings as a share of their median."""
        if len(self.readings) < 4:
            return 0.0
        q1, q2, q3 = statistics.quantiles(self.readings, n=4)
        return (q3 - q1) / q2
