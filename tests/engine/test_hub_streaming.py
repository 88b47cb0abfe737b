"""Engine ↔ telemetry-hub integration: live events while batches run."""

import json

import pytest

from repro.engine import PartitionEngine
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain
from repro.observability import (
    RingBufferSubscriber,
    StreamingJsonlSink,
    TelemetryHub,
    read_trace,
)


def queries(count=6, n=24):
    out = []
    for i in range(count):
        chain = random_chain(n, rng=i)
        out.append(
            {"alpha": list(chain.alpha), "beta": list(chain.beta),
             "bound": 4.0 * chain.max_vertex_weight(), "tag": f"q{i}"}
        )
    return out


def jsonl(records):
    return [json.dumps(record) for record in records]


#: One batch of every objective on two chains, plus an infeasible bound.
MIXED = [
    {**record, "objective": objective}
    for record in queries(2)
    for objective in ("bandwidth", "bottleneck", "processors",
                      "bottleneck+processors", "bottleneck+bandwidth")
] + [{"alpha": [5.0, 5.0], "beta": [1.0], "bound": 1.0, "tag": "bad"}]


class TestHubWiring:
    def test_default_engine_has_disabled_hub(self):
        engine = PartitionEngine()
        assert engine.hub is None
        assert engine.tracer is None

    def test_default_engine_matches_hub_engine(self):
        # Off and on differ only in who else hears the events: the
        # answers and the engine's own registry come out the same.
        plain = PartitionEngine()
        ring = RingBufferSubscriber()
        hubbed = PartitionEngine(hub=TelemetryHub([ring]))
        answers = [
            [r.to_json() for r in engine.solve_jsonl(jsonl(MIXED))]
            for engine in (plain, hubbed)
        ]
        assert answers[0] == answers[1]
        assert sum('"error"' in line for line in answers[0]) == 1
        assert ring.events()
        counters = [
            {name: c.value for name, c in engine.metrics.counters.items()}
            for engine in (plain, hubbed)
        ]
        assert counters[0] == counters[1]
        assert counters[0]["engine.batch.queries"] == len(MIXED)

    def test_hub_threads_into_cache(self):
        pytest.importorskip("numpy")
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        chain = random_chain(24, rng=0)
        engine.solve(chain, 4.0 * chain.max_vertex_weight())
        engine.solve(chain, 4.0 * chain.max_vertex_weight())
        cache_events = [e for e in ring.events() if e.get("event") == "cache"]
        assert [e["action"] for e in cache_events] == ["miss"]
        assert cache_events[0]["misses"] == 1

    def test_no_events_when_hub_absent(self):
        engine = PartitionEngine()
        engine.solve_jsonl(jsonl(queries(2)))
        # Nothing to assert beyond "it ran" — no hub, nothing published.
        assert engine.hub is None


class TestBatchStreaming:
    def solve(self, workers=0, count=6):
        ring = RingBufferSubscriber()
        hub = TelemetryHub([ring])
        engine = PartitionEngine(hub=hub)
        results = engine.solve_jsonl(jsonl(queries(count)),
                                     max_workers=workers)
        return ring.events(), results

    def test_serial_batch_publishes_per_query_solve_events(self):
        events, results = self.solve(workers=0)
        solves = [e for e in events if e.get("event") == "solve"]
        assert len(solves) == len(results) == 6
        assert {e["tag"] for e in solves} == {f"q{i}" for i in range(6)}
        assert all(e["ok"] for e in solves)
        assert all(e["duration_s"] >= 0.0 for e in solves)
        assert all("t" in e for e in events)

    def test_batch_summary_event_last(self):
        events, _ = self.solve()
        (batch,) = [e for e in events if e.get("event") == "batch"]
        assert batch["queries"] == 6
        assert batch["failures"] == 0
        assert "cache_hit_rate" in batch
        assert "plan_occupancy" in batch
        assert events[-1] is batch

    def test_latency_metric_event_per_query(self):
        # Each query's latency rides on its solve event, and the engine
        # registry folds exactly those: one observation per query.
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        engine.solve_jsonl(jsonl(queries(6)))
        solves = [e for e in ring.events() if e.get("event") == "solve"]
        latency = engine.metrics.histogram("engine.batch.query_latency_s")
        assert latency.count == len(solves) == 6
        assert latency.values == [e["duration_s"] for e in solves]

    def test_pool_batch_streams_each_result(self):
        events, results = self.solve(workers=2)
        solves = [e for e in events if e.get("event") == "solve"]
        assert len(solves) == len(results) == 6
        assert {e["tag"] for e in solves} == {f"q{i}" for i in range(6)}

    def test_infeasible_query_streams_not_ok(self):
        chain = Chain([5.0, 5.0], [1.0])
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        engine.solve_jsonl(jsonl([
            {"alpha": list(chain.alpha), "beta": list(chain.beta),
             "bound": 1.0, "tag": "bad"}
        ]))
        (solve,) = [e for e in ring.events() if e.get("event") == "solve"]
        assert solve["ok"] is False
        assert solve["error"]


class TestSingleSolveEvents:
    def test_solve_publishes_event_and_latency(self):
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        chain = random_chain(32, rng=0)
        engine.solve(chain, 4.0 * chain.max_vertex_weight())
        kinds = [e.get("event") for e in ring.events()]
        assert kinds == ["cache", "plan", "solve"]
        (solve,) = [e for e in ring.events() if e["event"] == "solve"]
        latency = engine.metrics.histogram("engine.query_latency_s")
        assert latency.values == [solve["duration_s"]]
        assert engine.metrics.counter("engine.queries").value == 1

    def test_optimality_gap_streams_under_verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        chain = random_chain(32, rng=0)
        engine.solve(chain, 4.0 * chain.max_vertex_weight())
        (solve,) = [e for e in ring.events() if "optimality_gap" in e]
        assert 0.0 <= solve["optimality_gap"] <= 1.0
        gaps = engine.metrics.histogram("solve.optimality_gap")
        assert gaps.values == [solve["optimality_gap"]]

    def test_no_gap_event_without_verify(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        chain = random_chain(32, rng=0)
        engine.solve(chain, 4.0 * chain.max_vertex_weight())
        assert not [e for e in ring.events() if "optimality_gap" in e]
        assert "solve.optimality_gap" not in engine.metrics.histograms


class TestStreamedTraceFile:
    def test_streamed_file_is_valid_schema_v2(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        with StreamingJsonlSink(path, meta={"workload": "batch"}) as sink:
            engine = PartitionEngine(hub=TelemetryHub([sink]))
            engine.solve_jsonl(jsonl(queries(4)))
        records = read_trace(path)
        assert records[0]["kind"] == "meta"
        assert records[0]["schema"] == 2
        kinds = {r.get("event") for r in records if r["kind"] == "event"}
        assert kinds == {"solve", "plan", "cache", "batch"}

    def test_file_parseable_while_batch_is_mid_flight(self, tmp_path):
        # The crash-safety contract end-to-end: after every published
        # event the file on disk is complete lines only.
        path = str(tmp_path / "stream.jsonl")
        seen_counts = []
        sink = StreamingJsonlSink(path)

        class Spy:
            def emit(self, event):
                # Re-read the file *during* the batch at each event.
                seen_counts.append(len(read_trace(path)))

            def close(self):
                pass

        hub = TelemetryHub([sink, Spy()])
        engine = PartitionEngine(hub=hub)
        engine.solve_jsonl(jsonl(queries(3)))
        hub.close()
        assert seen_counts  # spy actually ran mid-batch
        # Each snapshot had the header plus every event published so far.
        assert seen_counts == sorted(seen_counts)
        assert seen_counts[0] >= 1

    def test_gap_histogram_lands_in_batch_stats(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        engine = PartitionEngine()
        engine.solve_jsonl(jsonl(queries(3)))
        stats = engine.last_batch_stats
        assert stats is not None
        gap_summary = stats.as_dict()["optimality_gap"]
        assert gap_summary is not None
        assert gap_summary["count"] == 3
        assert 0.0 <= gap_summary["max"] <= 1.0


class TestEachFactOnce:
    """The engine reports each fact once, and the registry is the fold
    of exactly the events it streamed."""

    def solve(self, workers, tracer=None):
        from repro.observability import MetricsRegistry

        ring = RingBufferSubscriber()
        engine = PartitionEngine(tracer=tracer, hub=TelemetryHub([ring]))
        # 4 chains x 3 bounds: repeated chains, so the cache hits.
        records = queries(4)
        lines = jsonl([dict(r, bound=(2 + i) * r["bound"] / 4.0)
                       for i in range(3) for r in records])
        engine.solve_jsonl(lines, max_workers=workers)
        folded = MetricsRegistry()
        for event in ring.events():
            folded.emit(event)
        return engine, ring.events(), folded

    def test_traced_serial_stream_counts(self):
        from repro.observability import Tracer

        engine, events, _ = self.solve(0, tracer=Tracer())
        kinds = [(e["event"], e.get("action")) for e in events]
        assert kinds.count(("solve", None)) == 12
        assert kinds.count(("plan", None)) == 12
        assert kinds.count(("cache", "miss")) == 4
        assert kinds.count(("batch", None)) == 1
        assert len(events) == 29

    @pytest.mark.parametrize("workers", [0, 2])
    def test_stream_folds_to_registry(self, workers):
        engine, events, folded = self.solve(workers)
        assert folded.records() == engine.metrics.records()
        counter = engine.metrics.counter
        lookups = (counter("engine.plan.cache.hits").value
                   + counter("engine.plan.cache.misses").value)
        # Plan-cache lookups summed across the parent or the workers.
        assert lookups == counter("engine.plan.sweeps").value
        assert "engine.batch.cache_hits" not in engine.metrics.counters
