"""Unit tests for :mod:`repro.analysis.top` — the ``repro top`` dashboard."""

import io
import math

from repro.analysis.top import (
    DashboardState,
    events_line,
    follow_trace,
    render_dashboard,
)


def solve_event(t, duration, ok=True, **extra):
    return {
        "kind": "event", "event": "solve", "t": t, "ok": ok,
        "duration_s": duration, "objective": "bandwidth", **extra,
    }


def sample_records():
    records = [{"kind": "meta", "schema": 2, "workload": "batch"}]
    for i in range(10):
        t = float(i)
        records.append(solve_event(t, 0.001 * (i + 1), ok=i != 3, index=i,
                                   optimality_gap=0.05 * i))
    records.append(
        {"kind": "event", "event": "cache", "t": 9.0, "action": "miss",
         "hit_rate": 0.5, "hits": 1, "misses": 1, "evictions": 0,
         "plans": 1, "occupancy": 0.0625}
    )
    records.append(
        {"kind": "event", "event": "batch", "t": 9.5, "queries": 10,
         "failures": 1, "workers": 0, "wall_s": 0.1,
         "cache_hit_rate": 0.75, "plan_occupancy": 0.25}
    )
    return records


class TestDashboardState:
    def test_counts_and_window_percentiles(self):
        state = DashboardState(window_s=100.0)
        state.ingest_all(sample_records())
        snap = state.snapshot()
        assert snap["solves"] == 10
        assert snap["failures"] == 1
        assert snap["window_count"] == 10
        assert snap["p50_s"] == 0.005
        assert snap["p99_s"] == 0.010
        assert snap["max_s"] == 0.010
        assert snap["cache_hit_rate"] == 0.75
        assert snap["plan_occupancy"] == 0.25
        assert snap["gap_max"] == 0.45

    def test_window_evicts_old_latencies(self):
        state = DashboardState(window_s=3.0)
        state.ingest_all(sample_records())
        snap = state.snapshot()
        # Events at t=7,8,9 remain ((9-3, 9] half-open window).
        assert snap["window_count"] == 3
        assert snap["p50_s"] == 0.001 * 9  # the t=8 observation
        # Totals are cumulative, not windowed.
        assert snap["solves"] == 10

    def test_throughput_uses_covered_span(self):
        state = DashboardState(window_s=100.0)
        state.ingest_all(sample_records())
        snap = state.snapshot()
        # 10 observations over 9.5 seconds of trace time.
        assert snap["throughput_qps"] == 10 / 9.5

    def test_serial_latency_metric_also_counted(self):
        # A single engine.solve event (no batch index) counts too.
        state = DashboardState(window_s=10.0)
        state.ingest(solve_event(1.0, 0.002))
        assert state.snapshot()["window_count"] == 1

    def test_acts_as_hub_subscriber(self):
        from repro.observability.live import TelemetryHub

        state = DashboardState(window_s=60.0)
        hub = TelemetryHub([state], clock=lambda: 2.0)
        hub.publish({"kind": "event", "event": "solve", "duration_s": 0.004})
        assert state.snapshot()["p50_s"] == 0.004

    def test_cache_gauges_follow_freshest_totals(self):
        # A cache event published on a miss must not outlive the batch
        # summary that follows it, nor a batch summary a later miss.
        state = DashboardState(window_s=100.0)
        state.ingest_all(sample_records())
        snap = state.snapshot()
        assert (snap["cache_hit_rate"], snap["plan_occupancy"]) == (0.75, 0.25)
        state.ingest({"kind": "event", "event": "cache", "t": 10.0,
                      "action": "miss", "hit_rate": 0.7, "occupancy": 0.3125})
        snap = state.snapshot()
        assert (snap["cache_hit_rate"], snap["plan_occupancy"]) == (0.7, 0.3125)

    def test_empty_state_renders(self):
        state = DashboardState()
        out = render_dashboard(state)
        assert "solves 0" in out


class TestRenderDashboard:
    def test_panel_contents(self):
        state = DashboardState(window_s=100.0)
        state.ingest_all(sample_records())
        out = render_dashboard(state)
        assert "workload=batch" in out
        assert "solves 10 (1 failed)" in out
        assert "p50 5.000 ms" in out
        assert "p99 10.000 ms" in out
        assert "cache hits" in out and "75.0%" in out
        assert "plan occupancy" in out and "25.0%" in out
        assert "optimality gap" in out
        assert "query latency" in out  # sparkline present

    def test_gauge_dash_when_unobserved(self):
        state = DashboardState()
        out = render_dashboard(state)
        assert "cache hits       -" in out


class TestEventsLine:
    def test_matches_top_once_numbers(self):
        # The acceptance contract: report --trace and top agree because
        # they share DashboardState + nearest_rank.
        records = sample_records()
        line = events_line(records)
        state = DashboardState(window_s=math.inf)
        state.ingest_all(records)
        snap = state.snapshot()
        assert f"p50={1e3 * snap['p50_s']:.3f}ms" in line
        assert f"p99={1e3 * snap['p99_s']:.3f}ms" in line
        assert "10 solves (1 failed)" in line
        assert "cache hit rate=0.75" in line
        assert "gap max=0.450" in line

    def test_empty_for_span_only_trace(self):
        records = [
            {"kind": "meta", "schema": 1},
            {"kind": "span", "path": "solve", "duration_s": 0.1},
        ]
        assert events_line(records) == ""


class TestFollowTrace:
    def test_yields_only_complete_lines(self):
        handle = io.StringIO('{"a": 1}\n{"b": 2}\n{"torn')
        lines = list(follow_trace(handle, poll_s=0.01, idle_limit=0.0))
        assert lines == ['{"a": 1}', '{"b": 2}']

    def test_torn_line_completes_on_next_read(self):
        class GrowingFile:
            def __init__(self):
                self.chunks = ['{"a"', ': 1}\n', ""]

            def read(self):
                return self.chunks.pop(0) if self.chunks else ""

        lines = list(
            follow_trace(GrowingFile(), poll_s=0.01, idle_limit=0.02)
        )
        assert lines == ['{"a": 1}']

    def test_blank_lines_skipped(self):
        handle = io.StringIO('{"a": 1}\n\n   \n{"b": 2}\n')
        lines = list(follow_trace(handle, poll_s=0.01, idle_limit=0.0))
        assert lines == ['{"a": 1}', '{"b": 2}']
