"""Trace serialization: JSONL writing, reading, aggregation, Prometheus.

A *trace file* is newline-delimited JSON with four record kinds,
distinguishable by their ``kind`` field (schema v2):

- ``{"kind": "meta", ...}`` — one optional header describing the run
  (workload, arguments, schema version);
- ``{"kind": "span", "path": "bandwidth_min/temp_s_sweep", ...}`` —
  one per span, depth-first (see :meth:`Tracer.records`);
- ``{"kind": "metric", "type": "counter" | "gauge" | "histogram", ...}``
  — one per registry instrument (see :meth:`MetricsRegistry.records`);
- ``{"kind": "event", "event": "solve" | "plan" | "cache" | "batch",
  "t": <monotonic seconds>, ...}`` — live-streamed records pushed
  through a :class:`~repro.observability.live.TelemetryHub` *while* a
  run executes (new in v2); folding them with
  :meth:`~repro.observability.metrics.MetricsRegistry.emit` gives the
  ``metric`` records of the same run.

**v1 → v2 migration.**  v2 is a superset: every v1 file is a valid v2
file (v1 simply contains no ``event`` records).  Histogram records
carry a ``summary``, never the observations behind it.  Readers
should dispatch on ``kind`` and ignore kinds they don't know; that is
what :func:`read_trace` consumers here do, so v1 traces remain fully
inspectable with ``repro report --trace``.

``repro run --trace``/``repro batch --trace`` write this format,
``repro batch --stream`` streams the ``event`` form live, and
``repro report --trace``/``repro top --trace`` ingest it, so traces
captured in production can be inspected offline with no repo state
beyond the file.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.observability.live import TRACE_SCHEMA_VERSION
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Tracer

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "trace_records",
    "write_trace",
    "read_trace",
    "span_records",
    "metric_records",
    "event_records",
    "aggregate_spans",
    "render_prometheus",
    "render_prometheus_records",
]


def trace_records(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    extra_spans: Optional[Iterable[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Assemble the full record list for one trace file.

    ``extra_spans`` accepts already-serialized span records (e.g. the
    per-worker spans a batch shipped back) and is appended after the
    tracer's own spans, preserving caller order.
    """
    records: List[Dict[str, Any]] = []
    header: Dict[str, Any] = {"kind": "meta", "schema": TRACE_SCHEMA_VERSION}
    if meta:
        header.update(meta)
    records.append(header)
    if tracer is not None:
        records.extend(tracer.records())
    if extra_spans is not None:
        records.extend(extra_spans)
    if metrics is not None:
        records.extend(metrics.records())
    return records


def write_trace(
    path: str,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    extra_spans: Optional[Iterable[Dict[str, Any]]] = None,
) -> int:
    """Write a trace JSONL file; returns the number of records written."""
    records = trace_records(tracer, metrics, meta, extra_spans)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return len(records)


def read_trace(source: Union[str, Iterable[str]]) -> List[Dict[str, Any]]:
    """Read trace records from a path or an iterable of JSONL lines.

    Raises :class:`ValueError` naming the offending line number on a
    malformed record (mirroring ``repro batch`` input handling) — with
    one deliberate exception: a malformed *final* line is treated as a
    torn tail (a live stream interrupted mid-write, e.g. by a crash or
    by reading while the producer is running), skipped with a
    :class:`UserWarning` instead of failing, so streamed traces are
    always inspectable.  A producer that reopens the file with
    ``StreamingJsonlSink(path, resume=True)`` truncates that torn tail
    before appending (the newline is the commit marker), so resumed
    traces parse clean end to end — certified by
    ``test_sink_torn_write_resumes`` in
    ``tests/observability/test_threads_and_faults.py``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    last_content = 0
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            last_content = lineno
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError("not a kind-tagged object")
        except (ValueError, RecursionError) as exc:
            if lineno == last_content:
                warnings.warn(
                    f"trace has a torn tail record on line {lineno} "
                    f"(interrupted stream?); skipping it: {exc!s}",
                    UserWarning,
                    stacklevel=2,
                )
                break
            raise ValueError(
                f"invalid trace record on line {lineno}: {exc!s}"
            ) from exc
        records.append(record)
    return records


def span_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("kind") == "span"]


def metric_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("kind") == "metric"]


def event_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Live-streamed ``event`` records (schema v2)."""
    return [r for r in records if r.get("kind") == "event"]


def aggregate_spans(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-phase rollup of span records, in first-seen path order.

    Each row aggregates every span sharing a ``path``: call count,
    total/mean wall-clock, summed op-counts and pooled trace extrema.
    This is the table ``repro report`` prints.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for record in span_records(records):
        path = record["path"]
        row = rows.get(path)
        if row is None:
            row = rows[path] = {
                "path": path,
                "depth": record.get("depth", path.count("/")),
                "calls": 0,
                "total_s": 0.0,
                "counts": {},
                "traces": {},
            }
        row["calls"] += 1
        row["total_s"] += record.get("duration_s", 0.0)
        for name, value in record.get("counts", {}).items():
            row["counts"][name] = row["counts"].get(name, 0) + value
        for name, summary in record.get("traces", {}).items():
            pooled = row["traces"].get(name)
            if pooled is None:
                row["traces"][name] = dict(summary)
            else:
                total = pooled["mean"] * pooled["count"] + (
                    summary["mean"] * summary["count"]
                )
                pooled["count"] += summary["count"]
                pooled["mean"] = total / pooled["count"] if pooled["count"] else 0.0
                pooled["max"] = max(pooled["max"], summary["max"])
    out = list(rows.values())
    for row in out:
        row["mean_s"] = row["total_s"] / row["calls"] if row["calls"] else 0.0
    return out


# ----------------------------------------------------------------------
# Prometheus text-format exposition
# ----------------------------------------------------------------------

#: Histogram summary quantiles exposed to Prometheus, as
#: (quantile label, summary key) pairs.
_PROM_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.95", "p95"), ("0.99", "p99"))


def _prom_name(name: str) -> str:
    """Sanitize a dotted instrument name into a Prometheus metric name."""
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not safe or safe[0].isdigit():
        safe = "_" + safe
    return "repro_" + safe


def _prom_number(value: float) -> str:
    """Format a sample value; integral floats print without exponent."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus_records(records: Iterable[Mapping[str, Any]]) -> str:
    """Render metric records to Prometheus text exposition format.

    Counters become ``<name>_total`` counters, gauges stay gauges, and
    histograms are exposed as Prometheus *summary* families (quantile
    series from the nearest-rank percentiles, plus ``_sum``/``_count``).
    Input is the :func:`metric_records` shape, so a registry snapshot
    and a trace file read back render identically.
    """
    lines: List[str] = []
    for record in records:
        if record.get("kind") != "metric":
            continue
        kind = record.get("type")
        name = _prom_name(str(record.get("name", "")))
        if kind == "counter":
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_prom_number(record.get('value', 0.0))}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_number(record.get('value', 0.0))}")
        elif kind == "histogram":
            summary = record.get("summary", {})
            lines.append(f"# TYPE {name} summary")
            for quantile, key in _PROM_QUANTILES:
                lines.append(
                    f'{name}{{quantile="{quantile}"}} '
                    f"{_prom_number(summary.get(key, 0.0))}"
                )
            lines.append(f"{name}_sum {_prom_number(summary.get('sum', 0.0))}")
            lines.append(f"{name}_count {_prom_number(summary.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_prometheus(metrics: MetricsRegistry) -> str:
    """Render a live registry to Prometheus text exposition format."""
    return render_prometheus_records(metrics.records())
