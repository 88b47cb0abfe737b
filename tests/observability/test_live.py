"""Unit tests for :mod:`repro.observability.live` — hub, sinks, rings."""

import json

import pytest

from repro.observability.live import (
    NULL_HUB,
    CallbackSubscriber,
    NullTelemetryHub,
    RingBufferSubscriber,
    StreamingJsonlSink,
    TelemetryHub,
    TRACE_SCHEMA_VERSION,
)


class TestNullHub:
    def test_disabled_and_inert(self):
        assert NULL_HUB.enabled is False
        NULL_HUB.publish({"kind": "event"})
        NULL_HUB.close()

    def test_subscribe_refused(self):
        with pytest.raises(RuntimeError):
            NULL_HUB.subscribe(RingBufferSubscriber())

    def test_shared_singleton(self):
        assert isinstance(NULL_HUB, NullTelemetryHub)
        assert NullTelemetryHub.enabled is False


class TestTelemetryHub:
    def test_fans_out_in_subscription_order(self):
        order = []
        hub = TelemetryHub(clock=lambda: 1.0)
        hub.subscribe(CallbackSubscriber(lambda e: order.append(("a", e))))
        hub.subscribe(CallbackSubscriber(lambda e: order.append(("b", e))))
        hub.publish({"kind": "event", "event": "x"})
        assert [name for name, _ in order] == ["a", "b"]

    def test_stamps_monotonic_t(self):
        ticks = iter([5.0, 6.0])
        hub = TelemetryHub(clock=lambda: next(ticks))
        ring = RingBufferSubscriber()
        hub.subscribe(ring)
        hub.publish({"kind": "event", "event": "x"})
        hub.publish({"kind": "event", "event": "y", "t": 42.0})
        first, second = ring.events()
        assert first["t"] == 5.0
        assert second["t"] == 42.0  # caller-provided t wins

    def test_raising_subscriber_dropped_not_fatal(self):
        def boom(event):
            raise RuntimeError("sink died")

        hub = TelemetryHub(clock=lambda: 0.0)
        ring = RingBufferSubscriber()
        hub.subscribe(CallbackSubscriber(boom))
        hub.subscribe(ring)
        hub.publish({"kind": "event", "event": "a"})
        hub.publish({"kind": "event", "event": "b"})
        assert len(ring) == 2  # healthy subscriber kept receiving
        assert len(hub.subscribers) == 1
        assert "sink died" in hub.errors[0]

    def test_close_closes_subscribers(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        sink = StreamingJsonlSink(path)
        hub = TelemetryHub([sink])
        hub.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"kind": "event"})


class TestStreamingJsonlSink:
    def test_writes_v2_header_then_lines(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with StreamingJsonlSink(path, meta={"workload": "t"}) as sink:
            sink.emit({"kind": "event", "event": "x", "t": 1.0})
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["schema"] == TRACE_SCHEMA_VERSION
        assert lines[0]["stream"] is True
        assert lines[0]["workload"] == "t"
        assert lines[1]["event"] == "x"
        assert sink.lines_written == 2

    def test_each_line_complete_and_flushed(self, tmp_path):
        # Crash-safety contract: the file is parseable after every emit,
        # without waiting for close().
        path = str(tmp_path / "s.jsonl")
        sink = StreamingJsonlSink(path)
        sink.emit({"kind": "event", "event": "x", "t": 1.0})
        raw = open(path).read()
        assert raw.endswith("\n")
        assert len(raw.splitlines()) == 2
        sink.close()

    def test_resume_appends_without_second_header(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with StreamingJsonlSink(path) as sink:
            sink.emit({"kind": "event", "event": "x", "t": 1.0})
        with StreamingJsonlSink(path, resume=True) as sink:
            sink.emit({"kind": "event", "event": "y", "t": 2.0})
        lines = [json.loads(line) for line in open(path)]
        assert [r["kind"] for r in lines] == ["meta", "event", "event"]

    def test_resume_on_missing_file_writes_header(self, tmp_path):
        path = str(tmp_path / "fresh.jsonl")
        with StreamingJsonlSink(path, resume=True):
            pass
        (header,) = [json.loads(line) for line in open(path)]
        assert header["kind"] == "meta"


class TestRingBufferSubscriber:
    def test_bounded_keeps_newest(self):
        ring = RingBufferSubscriber(capacity=3)
        for i in range(10):
            ring.emit({"kind": "event", "i": i})
        assert [e["i"] for e in ring.events()] == [7, 8, 9]
        assert len(ring) == ring.capacity == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBufferSubscriber(capacity=0)
