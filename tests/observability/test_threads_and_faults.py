"""Telemetry under 8 racing threads and under injected faults.

The race tests drive the observability shared state (``TelemetryHub``,
``MetricsRegistry`` and its instruments, a spilling ``Histogram`` and
``StreamingJsonlSink``) from 8 threads through
:func:`tests.conftest.hammer` and audit exact end states: each event
arrives exactly once, no counter update is lost, histogram bucket mass
equals the observation count, and every sink line is whole JSON.
``ProfileSampler``'s threaded ``stop()`` is covered by
``test_concurrent_stop_from_many_threads`` in ``test_profiler.py``.

The fault tests raise at one subscriber, sink handle, span body or
instrument at a time, assert the faulted site was reached, and certify
recovery: locks free from another thread, raising subscribers dropped
and recorded, torn sinks resumable with one header, failed sink
construction closing its handle, and the canonical query re-solved
bit-identically.
"""

import io
import json
import math
import warnings

import pytest

from repro.engine import PartitionEngine
from repro.observability import live as live_mod
from repro.observability.export import read_trace
from repro.observability.live import (
    CallbackSubscriber,
    RingBufferSubscriber,
    StreamingJsonlSink,
    TelemetryHub,
)
from repro.observability.metrics import EXACT_LIMIT, Histogram, MetricsRegistry
from repro.observability.spans import Tracer
from tests.conftest import (
    CANONICAL_BOUND,
    InjectedFault,
    assert_recovers,
    canonical_chain,
    hammer,
    lock_released,
    raise_on_first_call,
)

THREADS = 8
OPS_PER_THREAD = 100
TOTAL_OPS = THREADS * OPS_PER_THREAD
SEED = 20260808


def _hammer(op):
    hammer(op, threads=THREADS, ops_per_thread=OPS_PER_THREAD, seed=SEED)


class TestRaces:
    def test_telemetry_hub(self):
        """Publish from all threads: a ring buffer and a counting
        callback each receive every event exactly once, stamped."""
        ring = RingBufferSubscriber(capacity=2 * TOTAL_OPS)
        # A bare read-modify-write on purpose: the hub's lock serializes
        # the fan-out, and this count equalling the op total is the proof.
        seen_count = [0]

        def count(event):
            seen_count[0] = seen_count[0] + 1

        hub = TelemetryHub([ring, CallbackSubscriber(count)])

        def op(tid, i, rng):
            hub.publish({"kind": "event", "event": "race", "tid": tid, "seq": i})

        _hammer(op)
        assert not hub.errors
        events = [e for e in ring.events() if e.get("event") == "race"]
        assert len(events) == TOTAL_OPS
        assert seen_count[0] == TOTAL_OPS
        assert len({(e["tid"], e["seq"]) for e in events}) == TOTAL_OPS
        assert all("t" in e for e in events)

    def test_metrics_registry(self):
        """Counters equal the exact op totals (the lost-update check),
        also where an event fold and ``inc`` update the same counter,
        the gauge holds a value some thread wrote, get-or-create mints no
        duplicates, and the histogram matches the observation multiset."""
        registry = MetricsRegistry()
        expected_obs = [
            [float(tid * OPS_PER_THREAD + i) % 97 + 0.5 for i in range(OPS_PER_THREAD)]
            for tid in range(THREADS)
        ]
        plan_event = {
            "kind": "event", "event": "plan", "n": 4, "queries": 3,
            "cache": "miss", "structures_built": 1, "structures_reused": 2,
            "outcome": "miss",
        }

        def op(tid, i, rng):
            registry.counter("race.ops").inc()
            registry.counter("race.weighted").inc(2.0)
            registry.gauge("race.last_tid").set(float(tid))
            registry.histogram("race.latency").observe(expected_obs[tid][i])
            registry.emit(plan_event)
            registry.counter("engine.plan.sweeps").inc()

        _hammer(op)
        assert registry.counter("race.ops").value == TOTAL_OPS
        assert registry.counter("race.weighted").value == 2.0 * TOTAL_OPS
        assert registry.counter("engine.plan.sweeps").value == 2 * TOTAL_OPS
        assert registry.counter("engine.plan.queries").value == 3 * TOTAL_OPS
        assert registry.counter("engine.plan.structures.reused").value == 2 * TOTAL_OPS
        assert registry.histogram("engine.plan.sweep_batch_size").count == TOTAL_OPS
        assert 0.0 <= registry.gauge("race.last_tid").value < THREADS
        assert (
            len(registry.counters), len(registry.gauges), len(registry.histograms)
        ) == (7, 1, 2)
        hist = registry.histogram("race.latency")
        assert hist.count == TOTAL_OPS
        flat = [v for row in expected_obs for v in row]
        assert (hist.min, hist.max) == (min(flat), max(flat))
        if hist.exact:
            assert hist.sum == math.fsum(flat)

    def test_histogram_spill(self):
        """Race one histogram across its exact-to-bucketed spill while
        other threads read percentiles: a torn spill would double- or
        drop-count whole batches."""
        hist = Histogram("race.spill")
        assert TOTAL_OPS > EXACT_LIMIT, "the run must cross the spill boundary"

        def op(tid, i, rng):
            hist.observe(float(tid + 1) * 10.0 + (i % 7))
            if i % 16 == 0:
                hist.percentile(95)  # race the memo against writers

        _hammer(op)
        assert hist.count == TOTAL_OPS
        assert not hist.exact
        mass = hist._zero + sum(hist._pos.values()) + sum(hist._neg.values())
        assert mass == TOTAL_OPS
        assert hist.min == 10.0
        assert hist.max == THREADS * 10.0 + 6.0

    def test_streaming_sink(self, tmp_path):
        """Concurrent writers on one sink: every line is whole JSON,
        every record lands once, and a ``resume=True`` reopen hammered
        again appends without a second header."""
        path = str(tmp_path / "race.jsonl")
        sink = StreamingJsonlSink(path, meta={"source": "race-hammer"})
        padding = "x" * 64  # long enough that a torn write splits JSON

        def op(tid, i, rng):
            sink.emit(
                {"kind": "event", "event": "race", "tid": tid, "seq": i,
                 "pad": padding}
            )

        _hammer(op)
        sink.close()
        assert sink.lines_written == TOTAL_OPS + 1  # + meta header

        def parse_all():
            with open(path, "r", encoding="utf-8") as fh:
                return [json.loads(line) for line in fh]

        records = parse_all()
        assert records[0].get("kind") == "meta"
        pairs = {(r["tid"], r["seq"]) for r in records if r.get("event") == "race"}
        assert len(pairs) == TOTAL_OPS

        resumed = StreamingJsonlSink(path, resume=True)

        def op2(tid, i, rng):
            resumed.emit({"kind": "event", "event": "race2", "tid": tid, "seq": i})

        _hammer(op2)
        resumed.close()
        records = parse_all()
        assert sum(1 for r in records if r.get("kind") == "meta") == 1
        second = {(r["tid"], r["seq"]) for r in records if r.get("event") == "race2"}
        assert len(second) == TOTAL_OPS
        assert len(records) == 2 * TOTAL_OPS + 1


class _FaultyHandle:
    """Proxy for a sink's file handle that tears a write or fails a
    flush: ``io.TextIOWrapper`` is a C type, so its methods cannot be
    patched, and the sink's ``_fh`` is swapped for this instead."""

    def __init__(self, real, *, tear_write_at=0, fail_flush_at=0):
        self._real = real
        self._tear_write_at = tear_write_at
        self._fail_flush_at = fail_flush_at
        self.writes = 0
        self.flushes = 0

    def write(self, text):
        self.writes += 1
        if self.writes == self._tear_write_at:
            # Half the bytes land (a short write), then the device
            # fails: the disk-full torn record.
            self._real.write(text[: len(text) // 2])
            self._real.flush()
            raise InjectedFault("injected torn write (disk full)")
        return self._real.write(text)

    def flush(self):
        self.flushes += 1
        if self.flushes == self._fail_flush_at:
            raise InjectedFault("injected flush fault")
        self._real.flush()

    def close(self):
        self._real.close()


def _is_json(line):
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


class TestFaults:
    def test_hub_subscriber_fault_drops_and_records(self):
        """A subscriber raising mid-solve is dropped and recorded in
        ``hub.errors``; the hub lock comes free and the solve, and a
        bit-identical re-solve, complete untouched."""

        class _Bomb:
            def emit(self, event):
                raise InjectedFault("injected subscriber fault")

        hub = TelemetryHub()
        bomb = _Bomb()
        hub.subscribe(bomb)
        engine = PartitionEngine(hub=hub)
        assert engine.solve(canonical_chain(), CANONICAL_BOUND).weight > 0
        assert bomb not in hub.subscribers
        assert any("_Bomb" in err for err in hub.errors), hub.errors
        assert lock_released(hub._lock)
        assert_recovers(engine)

    def test_sink_torn_write_resumes(self, tmp_path):
        """A write torn mid-line leaves one torn final line; ``read_trace``
        warns and keeps the committed prefix; a ``resume=True`` reopen
        drops the torn tail and appends with no second header, so the
        resumed trace reads clean with no warning."""
        path = str(tmp_path / "torn.jsonl")
        sink = StreamingJsonlSink(path, meta={"source": "fault-test"})
        sink.emit({"kind": "event", "event": "solve", "seq": 0})
        proxy = _FaultyHandle(sink._fh, tear_write_at=1)
        sink._fh = proxy
        with pytest.raises(InjectedFault):
            sink.emit({"kind": "event", "event": "solve", "seq": 1, "pad": "x" * 64})
        assert proxy.writes == 1
        assert lock_released(sink._lock)
        sink.close()

        with open(path, "r", encoding="utf-8") as fh:
            torn_lines = fh.read().splitlines()
        assert len(torn_lines) == 3 and not _is_json(torn_lines[2]), torn_lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            torn_records = read_trace(path)
        assert any(
            issubclass(w.category, UserWarning) and "torn tail" in str(w.message)
            for w in caught
        )
        assert len(torn_records) == 2 and torn_records[1]["seq"] == 0

        resumed = StreamingJsonlSink(path, resume=True)
        resumed.emit({"kind": "event", "event": "solve", "seq": 2})
        resumed.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = read_trace(path)
        assert sum(1 for r in records if r.get("kind") == "meta") == 1
        assert [r["seq"] for r in records if r.get("event") == "solve"] == [0, 2]

    def test_sink_flush_fault(self, tmp_path):
        """A raising flush leaves the sink closeable and the committed
        prefix parseable."""
        path = str(tmp_path / "flush.jsonl")
        sink = StreamingJsonlSink(path)
        sink.emit({"kind": "event", "event": "solve", "seq": 0})
        proxy = _FaultyHandle(sink._fh, fail_flush_at=1)
        sink._fh = proxy
        with pytest.raises(InjectedFault):
            sink.emit({"kind": "event", "event": "solve", "seq": 1})
        assert proxy.flushes == 1
        assert lock_released(sink._lock)
        sink.close()
        with open(path, "r", encoding="utf-8") as fh:
            committed = fh.read().splitlines()[:2]
        assert all(_is_json(line) for line in committed), committed

    def test_sink_init_fault_closes_its_handle(self, tmp_path, monkeypatch):
        """A failed header write during construction closes the handle
        the constructor just opened."""
        opened = []
        real_open = io.open

        def spying_open(*args, **kwargs):
            handle = real_open(*args, **kwargs)
            opened.append(handle)
            return handle

        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(
                StreamingJsonlSink, "_write_line",
                raise_on_first_call(StreamingJsonlSink._write_line, calls),
            )
            patch.setattr(live_mod.io, "open", spying_open)
            with pytest.raises(InjectedFault):
                StreamingJsonlSink(str(tmp_path / "init.jsonl"))
        assert calls
        assert len(opened) == 1
        assert opened[0].closed

    def test_hub_close_fault(self, tmp_path):
        """A subscriber whose ``close`` raises leaves the hub lock free
        and the other subscribers closeable directly."""

        class _CloseBomb:
            closes = 0

            def emit(self, event):
                pass

            def close(self):
                self.closes += 1
                raise InjectedFault("injected close fault")

        path = str(tmp_path / "close.jsonl")
        bomb = _CloseBomb()
        sink = StreamingJsonlSink(path)
        hub = TelemetryHub(subscribers=(bomb, sink))
        hub.publish({"kind": "event", "event": "solve", "seq": 0})
        with pytest.raises(InjectedFault):
            hub.close()
        assert bomb.closes == 1
        assert lock_released(hub._lock)
        sink.close()  # a direct close still works
        with open(path, "r", encoding="utf-8") as fh:
            assert all(_is_json(line) for line in fh.read().splitlines())

    def test_tracer_span_fault_unwinds(self):
        """A raise inside a span body closes the span and leaves the
        tracer reusable, with the engine still bit-identical."""
        tracer = Tracer()
        with pytest.raises(InjectedFault):
            with tracer.span("faulted-phase", n=60):
                raise InjectedFault("injected span-body fault")
        assert not tracer._stack
        with tracer.span("recovery-phase"):
            pass
        assert len(tracer.roots) == 2
        assert_recovers(PartitionEngine(tracer=tracer))

    def test_traced_solve_fault_unwinds(self, monkeypatch):
        """A solve faulted under an enabled tracer unwinds its span
        stack, and the next traced solve succeeds."""
        import repro.engine.plan as plan_mod

        calls = []
        monkeypatch.setattr(
            plan_mod, "structure_sweep",
            raise_on_first_call(plan_mod.structure_sweep, calls),
        )
        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        with pytest.raises(InjectedFault):
            engine.solve(canonical_chain(), CANONICAL_BOUND)
        monkeypatch.undo()
        assert calls
        assert not tracer._stack
        assert_recovers(engine)

    def test_metrics_observe_fault(self, monkeypatch):
        """A raising histogram observation releases the instrument's
        lock, and later observations land."""
        registry = MetricsRegistry()
        hist = registry.histogram("fault_latency_seconds")
        hist.observe(0.25)
        calls = []
        monkeypatch.setattr(
            Histogram, "observe", raise_on_first_call(Histogram.observe, calls)
        )
        with pytest.raises(InjectedFault):
            hist.observe(0.5)
        hist.observe(0.75)
        monkeypatch.undo()
        assert len(calls) == 2
        assert lock_released(hist._lock)
        assert hist.count == 2
