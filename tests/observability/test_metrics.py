"""Unit tests for :mod:`repro.observability.metrics`."""

import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge(self):
        g = Gauge("depth")
        g.set(7)
        g.set(3)
        assert g.value == 3

    def test_histogram_summary(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 10.0
        assert h.mean == 2.5
        assert (h.min, h.max) == (1.0, 4.0)
        summary = h.summary()
        assert summary["p50"] == 2.0
        assert summary["p90"] == 4.0
        assert summary["p99"] == 4.0

    def test_empty_histogram(self):
        h = Histogram("lat")
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0
        assert h.summary()["count"] == 0

    def test_nearest_rank_percentile(self):
        h = Histogram("lat", values=[float(v) for v in range(1, 101)])
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 3

    def test_same_name_different_kinds(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.gauge("x").set(2)
        assert reg.counter("x").value == 1
        assert reg.gauge("x").value == 2

    def test_records_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc()
        reg.counter("a.count").inc()
        reg.gauge("z.depth").set(1)
        reg.histogram("m.lat").observe(0.1)
        records = reg.records()
        assert [r["name"] for r in records] == [
            "a.count", "b.count", "z.depth", "m.lat",
        ]
        assert [r["type"] for r in records] == [
            "counter", "counter", "gauge", "histogram",
        ]
        assert all(r["kind"] == "metric" for r in records)
        assert records[-1]["summary"]["count"] == 1

    def test_empty_registry(self):
        reg = MetricsRegistry()
        assert len(reg) == 0
        assert reg.records() == []


class TestEmit:
    """``MetricsRegistry.emit``: the one fold from events to instruments."""

    def events(self):
        return [
            {"kind": "event", "event": "cache", "action": "miss",
             "plans": 1, "occupancy": 0.0625},
            {"kind": "event", "event": "plan", "queries": 3, "cache": "miss",
             "structures_built": 2, "structures_reused": 1},
            {"kind": "event", "event": "plan", "queries": 1, "cache": "hit",
             "structures_built": 0, "structures_reused": 1},
            {"kind": "event", "event": "cache", "action": "evict",
             "plans": 16, "occupancy": 1.0},
            {"kind": "event", "event": "solve", "index": 0,
             "duration_s": 0.5, "optimality_gap": 0.25},
            {"kind": "event", "event": "solve", "duration_s": 0.125},
            {"kind": "event", "event": "batch", "queries": 2, "failures": 1,
             "workers": 2, "wall_s": 0.75},
            {"kind": "event", "event": "something-else"},
        ]

    def test_fold_table(self):
        reg = MetricsRegistry()
        for event in self.events():
            reg.emit(event)
        counters = {n: c.value for n, c in reg.counters.items()}
        assert counters == {
            "engine.plan.cache.hits": 1,
            "engine.plan.cache.misses": 1,
            "engine.plan.cache.evictions": 1,
            "engine.plan.sweeps": 2,
            "engine.plan.queries": 4,
            "engine.plan.structures.built": 2,
            "engine.plan.structures.reused": 2,
            "engine.queries": 1,
            "engine.batch.batches": 1,
            "engine.batch.queries": 2,
            "engine.batch.failures": 1,
        }
        gauges = {n: g.value for n, g in reg.gauges.items()}
        assert gauges == {
            "engine.plan.cache.plans": 16,
            "engine.plan.cache.occupancy": 1.0,
            "engine.batch.workers": 2,
            "engine.batch.queue_depth": 2,
        }
        values = {n: h.values for n, h in reg.histograms.items()}
        assert values == {
            "engine.plan.sweep_batch_size": [3.0, 1.0],
            "engine.batch.query_latency_s": [0.5],
            "engine.query_latency_s": [0.125],
            "solve.optimality_gap": [0.25],
            "engine.batch.wall_s": [0.75],
        }

    def test_registry_is_a_hub_subscriber(self):
        from repro.observability.live import TelemetryHub

        reg = MetricsRegistry()
        hub = TelemetryHub([reg])
        for event in self.events():
            hub.publish(event)
        hub.close()
        direct = MetricsRegistry()
        for event in self.events():
            direct.emit(event)
        assert reg.records() == direct.records()


class TestFloatExactness:
    def test_histogram_values_kept_verbatim(self):
        h = Histogram("lat")
        h.observe(0.1)
        h.observe(0.2)
        assert h.sum == pytest.approx(0.3)
        assert h.values == [0.1, 0.2]
