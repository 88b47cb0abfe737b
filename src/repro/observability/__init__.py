"""Unified tracing, metrics and live telemetry for the partitioning stack.

Five pieces, layered next to :mod:`repro.instrumentation` at the
foundation of the package (nothing here imports above it):

- :mod:`repro.observability.spans` — :class:`Tracer`/:class:`Span`
  nested phase timing with embedded op-counters and a zero-overhead
  disabled mode (:data:`NULL_TRACER`);
- :mod:`repro.observability.metrics` — :class:`MetricsRegistry` of
  counters, gauges and hybrid exact/log-bucketed percentile
  :class:`Histogram` instruments, and :meth:`MetricsRegistry.emit`, the
  one fold from engine events to instruments;
- :mod:`repro.observability.live` — the push-based
  :class:`TelemetryHub` with pluggable subscribers: crash-safe
  streaming JSONL (:class:`StreamingJsonlSink`), bounded
  :class:`RingBufferSubscriber`, plus a zero-overhead
  :data:`NULL_HUB`;
- :mod:`repro.observability.profiler` — :class:`ProfileSampler`, a
  stdlib stack-sampling profiler emitting collapsed-stack flamegraph
  input (``repro run --profile``);
- :mod:`repro.observability.export` — the JSONL trace format (schema
  v2) written by ``repro run --trace``/``repro batch --trace``,
  streamed by ``repro batch --stream``, read by ``repro report
  --trace``/``repro top``, and the Prometheus text renderer behind
  ``repro metrics export``.
"""

from repro.observability.export import (
    TRACE_SCHEMA_VERSION,
    aggregate_spans,
    event_records,
    metric_records,
    read_trace,
    render_prometheus,
    render_prometheus_records,
    span_records,
    trace_records,
    write_trace,
)
from repro.observability.live import (
    NULL_HUB,
    CallbackSubscriber,
    NullTelemetryHub,
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
from repro.observability.spans import NULL_SPAN, NULL_TRACER, NullSpan, Span, Tracer

__all__ = [
    "CallbackSubscriber",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_HUB",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTelemetryHub",
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
    "metric_records",
    "nearest_rank",
    "read_trace",
    "render_prometheus",
    "render_prometheus_records",
    "span_records",
    "trace_records",
    "write_trace",
]
