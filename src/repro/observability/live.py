"""Push-based live telemetry: the hub, sinks and ring buffers.

Spans and a metrics registry buffer in memory and dump one JSONL file
at exit; a long-running batch also needs the opposite shape: the engine
*pushes* each event as it happens, and pluggable subscribers decide
what to do with it — stream it to disk (:class:`StreamingJsonlSink`),
keep a bounded recent window in memory (:class:`RingBufferSubscriber`),
fold it into instruments
(:meth:`repro.observability.metrics.MetricsRegistry.emit`) or into the
``repro top`` dashboard.

Telemetry off is ``hub=None``, as tracing off is ``tracer=None``: the
engine tests ``hub is not None`` before it publishes, so disabled
telemetry costs one comparison and a branch.

Events are plain dicts with a ``"kind": "event"`` discriminator — the
trace schema v2 record type (see :mod:`repro.observability.export`).
A monotonic timestamp ``"t"`` is stamped at publish time.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, TextIO

#: Trace schema version, bumped when the record layout changes
#: incompatibly.  v1 (PR 2): ``meta``/``span``/``metric`` records.
#: v2 (this module): adds the ``event`` record kind for live streams.
#: Defined here (the leaf module of
#: the package) so both spans and export can import it cycle-free;
#: :mod:`repro.observability.export` re-exports it.
TRACE_SCHEMA_VERSION = 2

Event = Dict[str, Any]


class TelemetrySubscriber:
    """Interface for hub subscribers.  Subclass or duck-type."""

    __slots__ = ()

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources.  Default: nothing to do."""


class TelemetryHub:
    """Fan events out to subscribers as they happen.

    The hub itself is dumb on purpose: it stamps a monotonic timestamp
    and calls each subscriber's ``emit`` synchronously, in subscription
    order, on the publishing thread.  Subscribers own their buffering
    and durability policies.  A subscriber that raises is dropped from
    the fan-out (telemetry must never take down a solve) and the error
    is remembered on :attr:`errors`.

    **Thread safety.**  One reentrant ``_lock`` serializes
    publish/subscribe/close, so events from concurrent solver threads
    fan out whole — subscribers see one complete event at a time,
    never an interleaving.  The lock is held
    *during* the fan-out: emit handlers therefore run serialized, and a
    handler may publish back into the hub (the lock is reentrant)
    without deadlocking.  Keep handlers short — they sit on the hot
    publish path by design.
    """

    __slots__ = ("errors", "_subscribers", "_clock", "_lock")

    def __init__(
        self,
        subscribers: Sequence[TelemetrySubscriber] = (),
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.errors: List[str] = []
        self._subscribers: List[TelemetrySubscriber] = list(subscribers)
        self._clock = clock
        self._lock = threading.RLock()

    def subscribe(self, subscriber: TelemetrySubscriber) -> None:
        with self._lock:
            self._subscribers.append(subscriber)

    @property
    def subscribers(self) -> Sequence[TelemetrySubscriber]:
        with self._lock:
            return tuple(self._subscribers)

    def publish(self, event: Event) -> None:
        """Stamp ``t`` (monotonic seconds) and fan out to subscribers."""
        if "t" not in event:
            event["t"] = self._clock()
        with self._lock:
            # A snapshot, so a failing subscriber can be dropped mid-loop.
            for subscriber in tuple(self._subscribers):
                try:
                    subscriber.emit(event)
                except Exception as exc:
                    # Subscriber isolation: any exception is recorded in
                    # hub.errors and the subscriber dropped.
                    self._subscribers.remove(subscriber)
                    self.errors.append(f"{type(subscriber).__name__}: {exc}")

    def close(self) -> None:
        with self._lock:
            for subscriber in self._subscribers:
                subscriber.close()


def _truncate_torn_tail(path: str) -> int:
    """Drop a trailing partial line (no final newline) from ``path``.

    The streaming sink's commit marker is the line terminator: a crash
    mid-write leaves at most one unterminated tail record, which a
    resuming producer must not append fresh data onto.  Returns the
    number of bytes dropped (0 when the file is empty or ends cleanly).
    """
    with open(path, "rb+") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        if size == 0:
            return 0
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return 0
        # Scan backwards for the last committed line end.
        keep = 0
        pos = size
        chunk = 4096
        while pos > 0:
            start = max(0, pos - chunk)
            fh.seek(start)
            data = fh.read(pos - start)
            newline = data.rfind(b"\n")
            if newline != -1:
                keep = start + newline + 1
                break
            pos = start
        fh.truncate(keep)
        return size - keep


class StreamingJsonlSink(TelemetrySubscriber):
    """Crash-safe streaming JSONL sink: one complete line per event.

    Writes are line-buffered — each event is serialized to a single
    ``\\n``-terminated line and flushed immediately, so a crash can tear
    at most the final line (which schema-v2 ``read_trace`` tolerates).
    A fresh (or empty) file gets a schema-v2 meta header first; with
    ``resume=True`` an existing non-empty file is appended to without a
    second header, so a restarted producer continues the same trace.
    The line terminator is the commit marker: on resume, a trailing
    *unterminated* record (the torn tail a crash mid-write leaves) is
    truncated away first — it was never committed — so a resumed trace
    is fully well-formed JSONL, not a torn record with fresh data glued
    onto it.

    Writes serialize on the sink's own ``_lock``: even when the sink is
    shared by several hubs (or written directly from several threads),
    records land whole — serialization, write, flush and the
    ``lines_written`` count are one atomic step per event.
    """

    __slots__ = ("path", "lines_written", "_fh", "_lock")

    def __init__(
        self,
        path: str,
        *,
        meta: Optional[Dict[str, Any]] = None,
        resume: bool = False,
    ) -> None:
        self.path = path
        self.lines_written = 0
        self._lock = threading.RLock()
        if resume and os.path.exists(path):
            _truncate_torn_tail(path)
        fresh = not resume or not (
            os.path.exists(path) and os.path.getsize(path) > 0
        )
        mode = "w" if fresh else "a"
        self._fh: Optional[TextIO] = io.open(
            path, mode, encoding="utf-8", buffering=1
        )
        try:
            if fresh:
                header: Dict[str, Any] = {
                    "kind": "meta",
                    "schema": TRACE_SCHEMA_VERSION,
                    "stream": True,
                }
                if meta:
                    header.update(meta)
                self._write_line(header)
        except BaseException:
            # A failed header write (disk full, unserializable meta)
            # must not leak the just-opened handle.
            self.close()
            raise

    def _write_line(self, record: Dict[str, Any]) -> None:
        with self._lock:
            fh = self._fh
            if fh is None:
                raise ValueError(f"streaming sink {self.path!r} is closed")
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            self.lines_written += 1

    def emit(self, event: Event) -> None:
        self._write_line(event)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "StreamingJsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RingBufferSubscriber(TelemetrySubscriber):
    """Bounded in-memory event buffer: keeps the most recent events.

    O(capacity) memory no matter how long the producer runs.
    """

    __slots__ = ("_events",)

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"ring buffer capacity must be positive, got {capacity}")
        self._events: Deque[Event] = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        maxlen = self._events.maxlen
        assert maxlen is not None
        return maxlen

    def emit(self, event: Event) -> None:
        self._events.append(event)

    def events(self) -> List[Event]:
        """Snapshot of buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class CallbackSubscriber(TelemetrySubscriber):
    """Adapter: wrap a plain callable as a subscriber (handy in tests)."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[Event], None]) -> None:
        self._fn = fn

    def emit(self, event: Event) -> None:
        self._fn(event)
