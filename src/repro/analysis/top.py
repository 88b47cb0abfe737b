"""Live terminal dashboard — ``repro top``.

Folds schema-v2 trace records into the handful of figures an operator
watches while a batch runs: query throughput, windowed latency
percentiles, solver cache hit ratio, plan-cache occupancy and the
optimality-gap gauge.  Latency and gap come from the ``solve`` events
(one per query), the cache figures from the freshest ``cache`` or
``batch`` event.  One :class:`DashboardState` serves every input
shape — it can ingest a finished trace record list, follow a streaming
JSONL file as lines land (``repro top --trace``), or sit directly on a
:class:`repro.observability.live.TelemetryHub` as a subscriber (its
``emit`` is ``ingest``).

Percentiles use the same nearest-rank definition
(:func:`repro.observability.metrics.nearest_rank`) as the histogram
instruments, so the live window and the post-hoc
``repro report --trace`` summary agree on the same run.  Rendering
reuses :func:`repro.analysis.ascii_plot.ascii_plot` for the latency
sparkline.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.analysis.ascii_plot import ascii_plot
from repro.observability.metrics import nearest_rank


class DashboardState:
    """Sliding-window aggregation of v2 trace records.

    The window is measured against the newest event timestamp seen (not
    the wall clock), so replaying a recorded trace produces exactly the
    figures the live run showed.  Only ``event`` records carry
    timestamps; ``meta`` feeds the header line and everything else is
    counted but otherwise ignored.
    """

    __slots__ = (
        "window_s", "meta", "now", "start", "total_records", "total_solves",
        "failures", "_latencies", "_gaps", "_hit_rate", "_occupancy",
    )

    def __init__(self, window_s: float = 30.0) -> None:
        if not window_s > 0:
            raise ValueError(f"window must be positive, got {window_s}")
        self.window_s = window_s
        self.meta: Dict[str, Any] = {}
        self.now: Optional[float] = None
        self.start: Optional[float] = None
        self.total_records = 0
        self.total_solves = 0
        self.failures = 0
        self._latencies: Deque[Tuple[float, float]] = deque()
        self._gaps: Deque[Tuple[float, float]] = deque()
        self._hit_rate: Optional[float] = None
        self._occupancy: Optional[float] = None

    def ingest(self, record: Dict[str, Any]) -> None:
        """Fold one trace record (any kind) into the window."""
        self.total_records += 1
        kind = record.get("kind")
        if kind == "meta":
            self.meta.update(record)
            return
        if kind != "event":
            return
        t = record.get("t")
        if isinstance(t, (int, float)):
            self.now = t if self.now is None else max(self.now, t)
            self.start = t if self.start is None else min(self.start, t)
        event = record.get("event")
        if event == "solve":
            self.total_solves += 1
            if not record.get("ok", True):
                self.failures += 1
            if isinstance(t, (int, float)):
                for series, key in ((self._latencies, "duration_s"),
                                    (self._gaps, "optimality_gap")):
                    value = record.get(key)
                    if isinstance(value, (int, float)):
                        series.append((t, float(value)))
        elif event == "cache":
            # Running totals of the plan cache: the freshest hit rate
            # until a later batch summary says otherwise.
            self._hit_rate = record.get("hit_rate")
            self._occupancy = record.get("occupancy")
        elif event == "batch":
            self._hit_rate = record.get("cache_hit_rate")
            self._occupancy = record.get("plan_occupancy")
        self._evict()

    # Subscriber protocol: a DashboardState can sit on a hub directly.
    emit = ingest

    def close(self) -> None:
        """Subscriber protocol: nothing to release."""

    def ingest_all(self, records: Iterable[Dict[str, Any]]) -> None:
        for record in records:
            self.ingest(record)

    def _evict(self) -> None:
        if self.now is None:
            return
        cutoff = self.now - self.window_s
        for series in (self._latencies, self._gaps):
            while series and series[0][0] <= cutoff:
                series.popleft()

    def window_latencies(self) -> List[float]:
        """Latency observations still inside the window, arrival order."""
        return [value for _, value in self._latencies]

    def snapshot(self) -> Dict[str, Any]:
        """The dashboard figures as a plain dict (render-independent)."""
        latencies = sorted(value for _, value in self._latencies)
        gaps = sorted(value for _, value in self._gaps)
        if self.now is not None and self.start is not None:
            span = min(self.window_s, self.now - self.start)
        else:
            span = 0.0
        throughput = len(latencies) / span if span > 0 else 0.0
        return {
            "records": self.total_records,
            "solves": self.total_solves,
            "failures": self.failures,
            "window_s": self.window_s,
            "window_count": len(latencies),
            "throughput_qps": throughput,
            "p50_s": nearest_rank(latencies, 50.0),
            "p95_s": nearest_rank(latencies, 95.0),
            "p99_s": nearest_rank(latencies, 99.0),
            "max_s": latencies[-1] if latencies else 0.0,
            "cache_hit_rate": self._hit_rate,
            "plan_occupancy": self._occupancy,
            "gap_p50": nearest_rank(gaps, 50.0) if gaps else None,
            "gap_max": gaps[-1] if gaps else None,
        }


def _gauge(label: str, fraction: Optional[float], width: int = 24) -> str:
    """``label [#####.....] 42.0%`` — or ``-`` when never observed."""
    if fraction is None or not isinstance(fraction, (int, float)) or (
        isinstance(fraction, float) and math.isnan(fraction)
    ):
        return f"{label:<16} -"
    clamped = min(max(float(fraction), 0.0), 1.0)
    filled = round(clamped * width)
    bar = "#" * filled + "." * (width - filled)
    return f"{label:<16} [{bar}] {100.0 * clamped:5.1f}%"


def render_dashboard(state: DashboardState, *, width: int = 64) -> str:
    """One text frame of the ``repro top`` dashboard."""
    snap = state.snapshot()
    lines: List[str] = []
    described = {
        k: v for k, v in sorted(state.meta.items())
        if k not in ("kind", "schema", "t") and not isinstance(v, (dict, list))
    }
    if described:
        lines.append(
            "trace: " + ", ".join(f"{k}={v}" for k, v in described.items())
        )
    lines.append(
        f"solves {snap['solves']} ({snap['failures']} failed)  |  "
        f"window {snap['window_s']:g}s: {snap['window_count']} queries, "
        f"{snap['throughput_qps']:.1f} q/s"
    )
    lines.append(
        f"latency  p50 {1e3 * snap['p50_s']:.3f} ms   "
        f"p95 {1e3 * snap['p95_s']:.3f} ms   "
        f"p99 {1e3 * snap['p99_s']:.3f} ms   "
        f"max {1e3 * snap['max_s']:.3f} ms"
    )
    lines.append(_gauge("cache hits", snap["cache_hit_rate"]))
    lines.append(_gauge("plan occupancy", snap["plan_occupancy"]))
    gap = snap["gap_max"]
    lines.append(
        _gauge("optimality gap", gap)
        + (f"  (p50 {snap['gap_p50']:.3f})" if gap is not None else "")
    )
    series = [
        (float(i), 1e3 * value)
        for i, value in enumerate(state.window_latencies())
    ]
    if len(series) >= 2:
        lines.append("")
        lines.append(
            ascii_plot(
                {"latency ms": series},
                width=width,
                height=8,
                title=f"query latency (last {len(series)} in window)",
            )
        )
    return "\n".join(lines)


def events_line(records: Iterable[Dict[str, Any]]) -> str:
    """One-line live-stream summary for ``repro report --trace``.

    Folds the whole record list through a :class:`DashboardState` with
    an unbounded window, so the numbers printed here are *identical* to
    what ``repro top --once`` shows for the same file.
    """
    state = DashboardState(window_s=math.inf)
    state.ingest_all(records)
    if not state.total_solves and not state.window_latencies():
        return ""
    snap = state.snapshot()
    parts = [
        f"live events: {snap['solves']} solves "
        f"({snap['failures']} failed), "
        f"latency p50={1e3 * snap['p50_s']:.3f}ms "
        f"p99={1e3 * snap['p99_s']:.3f}ms"
    ]
    if snap["cache_hit_rate"] is not None:
        parts.append(f"cache hit rate={snap['cache_hit_rate']:.2f}")
    if snap["gap_max"] is not None:
        parts.append(f"gap max={snap['gap_max']:.3f}")
    return " | ".join(parts)


def follow_trace(
    handle: TextIO, *, poll_s: float = 0.5, idle_limit: Optional[float] = None
) -> Iterator[str]:
    """Yield complete lines from a growing JSONL file (``tail -f``).

    Partial lines (a producer mid-write) are buffered until their
    newline arrives — the follower never hands a torn record to the
    parser.  Stops after ``idle_limit`` seconds without new data
    (``None`` follows forever).
    """
    import time as _time

    remainder = ""
    idle = 0.0
    while True:
        chunk = handle.read()
        if chunk:
            idle = 0.0
            remainder += chunk
            while "\n" in remainder:
                line, remainder = remainder.split("\n", 1)
                if line.strip():
                    yield line
        else:
            if idle_limit is not None and idle >= idle_limit:
                return
            _time.sleep(poll_s)
            idle += poll_s
