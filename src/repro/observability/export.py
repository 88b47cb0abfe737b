"""Trace files: reading, filtering, folding, and Prometheus text.

A *trace file* is newline-delimited JSON with three record kinds,
distinguishable by their ``kind`` field (schema v3):

- ``{"kind": "meta", "schema": 3, ...}`` — one header describing the
  run (workload, arguments, schema version);
- ``{"kind": "event", "event": "solve" | "plan" | "cache" | "batch",
  "t": <monotonic seconds>, ...}`` — the engine's telemetry events, as
  its :class:`~repro.observability.live.TelemetryHub` published them;
- ``{"kind": "span", "path": "chain_group/plan_solve_bounds", ...}`` —
  one per span (see :meth:`Tracer.records`): a traced batch's spans,
  reported with each chain group, or a ``repro run`` solve's.

Every writer is a :class:`~repro.observability.live.StreamingJsonlSink`:
``repro batch --trace``/``--stream`` put the same records in every
file they name, as the batch runs, and ``repro run --trace`` writes its
spans the same way.  Every number a reader prints comes from one fold:
:func:`fold_events`, :meth:`MetricsRegistry.emit
<repro.observability.metrics.MetricsRegistry.emit>` over the file's
events — ``repro report --trace``'s metrics table and plan-cache line,
``repro metrics export``; ``repro top`` reads the events directly.

**Migration.**  v1 and v2 files also carry ``metric`` records (one per
registry instrument, written at exit).  Readers ignore them, as they
ignore any kind they don't know, and fold the ``event`` records
instead; a v1 file, which has no events, shows its spans only.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Dict, Iterable, List, Union

from repro.observability.live import TRACE_SCHEMA_VERSION
from repro.observability.metrics import MetricsRegistry

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "read_trace",
    "span_records",
    "event_records",
    "fold_events",
    "aggregate_spans",
    "render_prometheus",
]


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


def event_records(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [r for r in records if r.get("kind") == "event"]


def fold_events(records: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """The registry a trace's ``event`` records fold into through
    :meth:`MetricsRegistry.emit` — the engine's own fold, so a reader
    gets the numbers the engine's registry held.

    Raises :class:`ValueError` naming the first malformed event.
    """
    registry = MetricsRegistry()
    for event in event_records(records):
        try:
            registry.emit(event)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"malformed {event.get('event')!r} event: {exc!r}"
            ) from exc
    return registry


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


def render_prometheus(metrics: MetricsRegistry) -> str:
    """Render a registry to Prometheus text exposition format.

    Counters become ``<name>_total`` counters, gauges stay gauges, and
    histograms are exposed as Prometheus *summary* families (quantile
    series from the nearest-rank percentiles, plus ``_sum``/``_count``).
    """
    lines: List[str] = []
    for record in metrics.records():
        kind = record["type"]
        name = _prom_name(record["name"])
        if kind == "counter":
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_prom_number(record['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_number(record['value'])}")
        else:
            summary = record["summary"]
            lines.append(f"# TYPE {name} summary")
            for quantile, key in _PROM_QUANTILES:
                lines.append(
                    f'{name}{{quantile="{quantile}"}} {_prom_number(summary[key])}'
                )
            lines.append(f"{name}_sum {_prom_number(summary['sum'])}")
            lines.append(f"{name}_count {_prom_number(summary['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")
