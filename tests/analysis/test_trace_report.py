"""Unit tests for trace-report rendering, incl. plan-cache telemetry."""

import pytest

from repro.analysis.trace_report import plan_cache_line, render_trace_report
from repro.observability import (
    RingBufferSubscriber,
    TelemetryHub,
    Tracer,
    fold_events,
)


def test_plan_cache_line_absent_without_plan_metrics():
    tracer = Tracer()
    with tracer.span("engine_solve", n=4):
        pass
    records = tracer.records()
    assert plan_cache_line(fold_events(records)) == ""
    assert "compiled plans" not in render_trace_report(records)


def test_plan_cache_line_summarizes_engine_metrics():
    pytest.importorskip("numpy")
    from repro.engine import PartitionEngine
    from repro.graphs.generators import random_chain

    ring = RingBufferSubscriber()
    engine = PartitionEngine(hub=TelemetryHub([ring]))
    chain = random_chain(30, rng=3)
    wmax = chain.max_vertex_weight()
    engine.solve_sweep(chain, [2.0 * wmax, 3.0 * wmax, 2.0 * wmax])
    engine.solve_sweep(chain, [4.0 * wmax])
    line = plan_cache_line(engine.metrics)
    assert line.startswith("compiled plans:")
    assert "plans=1" in line
    assert "hits=1" in line and "misses=1" in line
    assert "sweeps=2" in line and "queries=4" in line
    assert "4.0 queries/plan" in line
    # The report folds the streamed events into the engine's numbers.
    assert line in render_trace_report(ring.events())


def test_report_ignores_the_metric_kind_of_old_files():
    records = [
        {"kind": "meta", "schema": 2},
        {"kind": "metric", "type": "counter", "name": "engine.plan.sweeps",
         "value": 7},
    ]
    report = render_trace_report(records)
    assert "engine.plan.sweeps" not in report
    assert "compiled plans" not in report
