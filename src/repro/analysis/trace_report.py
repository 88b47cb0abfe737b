"""Human-readable rendering of trace files — ``repro report --trace``.

Takes a trace's record list (re-read from a JSONL trace file, or a
tracer's records) and prints the per-phase breakdown: one row per span
path with call counts, wall-clock and the paper's op-counts, followed
by the instruments its events fold into
(:func:`~repro.observability.export.fold_events`).  Rendering lives in
:mod:`repro.analysis` — the observability layer stores and
aggregates; presentation is an analysis concern.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.analysis.tables import render_table
from repro.observability.export import aggregate_spans, fold_events, span_records
from repro.observability.metrics import MetricsRegistry


def phase_table(records: Iterable[Dict[str, Any]]) -> str:
    """The per-phase breakdown table for a record list."""
    rows = aggregate_spans(records)
    if not rows:
        return "(no spans in trace)"
    table_rows: List[List[Any]] = []
    for row in rows:
        indent = "  " * row["depth"]
        name = indent + row["path"].rsplit("/", 1)[-1]
        ops = sum(row["counts"].values())
        temp_s = row["traces"].get("temp_s_len")
        table_rows.append(
            [
                name,
                row["calls"],
                row["total_s"],
                1e3 * row["mean_s"],
                row["counts"].get("search_steps", 0),
                ops,
                temp_s["mean"] if temp_s else "-",
                temp_s["max"] if temp_s else "-",
            ]
        )
    return render_table(
        ["phase", "calls", "total s", "mean ms", "search steps", "ops",
         "mean |TEMP_S|", "max |TEMP_S|"],
        table_rows,
        "Per-phase breakdown",
    )


def metrics_table(registry: MetricsRegistry) -> str:
    """Counters/gauges first, then histogram percentiles."""
    metrics = registry.records()
    if not metrics:
        return ""
    scalar_rows = [
        [m["name"], m["type"], m["value"]]
        for m in metrics
        if m["type"] in ("counter", "gauge")
    ]
    histo_rows = [
        [m["name"], m["summary"]["count"], m["summary"]["mean"],
         m["summary"]["p50"], m["summary"]["p90"], m["summary"]["p95"],
         m["summary"]["p99"], m["summary"]["max"]]
        for m in metrics
        if m["type"] == "histogram"
    ]
    parts = []
    if scalar_rows:
        parts.append(
            render_table(["metric", "type", "value"], scalar_rows, "Metrics")
        )
    if histo_rows:
        parts.append(
            render_table(
                ["histogram", "count", "mean", "p50", "p90", "p95", "p99",
                 "max"],
                histo_rows,
                "Latency / distribution metrics",
            )
        )
    return "\n\n".join(parts)


def figure2_line(records: Iterable[Dict[str, Any]]) -> str:
    """One-line cost-model summary when a traced solve is present."""
    for record in span_records(records):
        attrs = record.get("attrs", {})
        if "p_log_q" in attrs:
            return (
                f"cost model: n={attrs.get('n', '?')} p={attrs.get('p')} "
                f"q={attrs.get('q', 0):.2f} p log q={attrs.get('p_log_q', 0):.1f}"
            )
    return ""


def plan_cache_line(registry: MetricsRegistry) -> str:
    """One-line compiled-plan telemetry summary, when plans were used.

    Reads the ``engine.plan.*`` instruments of a registry: the
    plan-cache counters and gauges (resident plans, hits/misses/
    evictions, a miss being a compile) and the sweep counters, condensed
    into the number a capacity planner cares about — how many queries
    each compiled plan amortized.
    """
    scalars = {
        name: instrument.value
        for instruments in (registry.counters, registry.gauges)
        for name, instrument in instruments.items()
        if name.startswith("engine.plan.")
    }
    if not scalars:
        return ""
    compiled = scalars.get("engine.plan.cache.misses", 0)
    queries = scalars.get("engine.plan.queries", 0)
    amortized = f"{queries / compiled:.1f}" if compiled else "-"
    return (
        "compiled plans: "
        f"plans={scalars.get('engine.plan.cache.plans', 0):g} "
        f"hits={scalars.get('engine.plan.cache.hits', 0):g} "
        f"misses={scalars.get('engine.plan.cache.misses', 0):g} "
        f"evictions={scalars.get('engine.plan.cache.evictions', 0):g} | "
        f"sweeps={scalars.get('engine.plan.sweeps', 0):g} "
        f"queries={queries:g} "
        f"structures built={scalars.get('engine.plan.structures.built', 0):g} "
        f"reused={scalars.get('engine.plan.structures.reused', 0):g} | "
        f"{amortized} queries/plan"
    )


def render_trace_report(records: Iterable[Dict[str, Any]]) -> str:
    """The full ``repro report --trace`` output for a record list.

    Raises :class:`ValueError` naming a malformed event."""
    records = list(records)
    registry = fold_events(records)
    meta = next((r for r in records if r.get("kind") == "meta"), None)
    parts: List[str] = []
    if meta:
        described = {
            k: v
            for k, v in meta.items()
            if k not in ("kind", "schema") and not isinstance(v, (dict, list))
        }
        if described:
            parts.append(
                "trace: "
                + ", ".join(f"{k}={v}" for k, v in sorted(described.items()))
            )
    line = figure2_line(records)
    if line:
        parts.append(line)
    plans = plan_cache_line(registry)
    if plans:
        parts.append(plans)
    # Summarize the per-query events with the same math ``repro top``
    # uses so both agree.
    from repro.analysis.top import events_line

    events = events_line(records)
    if events:
        parts.append(events)
    parts.append(phase_table(records))
    metrics = metrics_table(registry)
    if metrics:
        parts.append(metrics)
    return "\n\n".join(parts)
