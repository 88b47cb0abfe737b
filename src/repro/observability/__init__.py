"""Unified tracing, metrics and live telemetry for the partitioning stack.

Five pieces, layered next to :mod:`repro.instrumentation` at the
foundation of the package (nothing here imports above it):

- :mod:`repro.observability.spans` — :class:`Tracer`/:class:`Span`
  nested phase timing with embedded op-counters (tracing off is
  ``tracer=None``);
- :mod:`repro.observability.metrics` — :class:`MetricsRegistry` of
  counters, gauges and hybrid exact/log-bucketed percentile
  :class:`Histogram` instruments, and :meth:`MetricsRegistry.emit`, the
  one fold from engine events to instruments;
- :mod:`repro.observability.live` — the push-based
  :class:`TelemetryHub` with pluggable subscribers: crash-safe
  streaming JSONL (:class:`StreamingJsonlSink`), bounded
  :class:`RingBufferSubscriber` (telemetry off is ``hub=None``);
- :mod:`repro.observability.profiler` — :class:`ProfileSampler`, a
  stdlib stack-sampling profiler emitting collapsed-stack flamegraph
  input (``repro run --profile``);
- :mod:`repro.observability.export` — reading the JSONL trace format
  (schema v3) that the streaming sink writes for ``repro run
  --trace`` and ``repro batch --trace``/``--stream``, the one fold of
  its events that ``repro report --trace`` and ``repro metrics export``
  read, and the Prometheus text renderer.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - names for type checkers only
    from repro.observability.export import (
        TRACE_SCHEMA_VERSION,
        aggregate_spans,
        event_records,
        fold_events,
        read_trace,
        render_prometheus,
        span_records,
    )
    from repro.observability.live import (
        CallbackSubscriber,
        RingBufferSubscriber,
        StreamingJsonlSink,
        TelemetryHub,
        TelemetrySubscriber,
    )
    from repro.observability.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        nearest_rank,
    )
    from repro.observability.profiler import ProfileSampler
    from repro.observability.spans import Span, Tracer

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.observability.export": ("TRACE_SCHEMA_VERSION", "aggregate_spans", "event_records",
                                   "fold_events", "read_trace", "render_prometheus",
                                   "span_records"),
    "repro.observability.live": ("CallbackSubscriber", "RingBufferSubscriber",
                                 "StreamingJsonlSink", "TelemetryHub",
                                 "TelemetrySubscriber"),
    "repro.observability.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                                    "nearest_rank"),
    "repro.observability.profiler": ("ProfileSampler",),
    "repro.observability.spans": ("Span", "Tracer"),
})

__all__ = [
    "CallbackSubscriber",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfileSampler",
    "RingBufferSubscriber",
    "Span",
    "StreamingJsonlSink",
    "TRACE_SCHEMA_VERSION",
    "TelemetryHub",
    "TelemetrySubscriber",
    "Tracer",
    "aggregate_spans",
    "event_records",
    "fold_events",
    "nearest_rank",
    "read_trace",
    "render_prometheus",
    "span_records",
]
