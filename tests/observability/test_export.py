"""Unit tests for :mod:`repro.observability.export`."""

import json

import pytest

from repro.observability.export import (
    TRACE_SCHEMA_VERSION,
    aggregate_spans,
    event_records,
    fold_events,
    read_trace,
    render_prometheus,
    span_records,
)
from repro.observability.live import StreamingJsonlSink
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Tracer

#: One ``plan`` event, as the engine reports a compiling three-bound call.
PLAN = {"kind": "event", "event": "plan", "n": 10, "queries": 3,
        "cache": "miss", "structures_built": 2, "structures_reused": 1,
        "outcome": "miss"}


def sample_tracer():
    tracer = Tracer()
    with tracer.span("root", n=100) as root:
        root.add("queries")
        with tracer.span("sweep") as sweep:
            sweep.add("search_steps", 10)
            sweep.trace("temp_s_len", 2.0)
    return tracer


class TestAssembly:
    def test_header_first_with_schema(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with StreamingJsonlSink(path, meta={"workload": "test"}) as sink:
            for record in sample_tracer().records():
                sink.emit(record)
        records = read_trace(path)
        assert records[0] == {
            "kind": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "stream": True,
            "workload": "test",
        }
        assert TRACE_SCHEMA_VERSION == 3
        assert [r["kind"] for r in records[1:]] == ["span", "span"]


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with StreamingJsonlSink(path, meta={"workload": "round-trip"}) as sink:
            for record in sample_tracer().records():
                sink.emit(record)
            sink.emit(PLAN)
        records = read_trace(path)
        assert len(records) == sink.lines_written == 4
        assert [r["kind"] for r in records] == ["meta", "span", "span", "event"]
        assert records[0]["workload"] == "round-trip"
        (sweep,) = [r for r in records if r.get("name") == "sweep"]
        assert sweep["counts"] == {"search_steps": 10}
        assert sweep["traces"]["temp_s_len"]["max"] == 2.0
        assert records[3] == PLAN

    def test_read_from_lines_skips_blank(self):
        lines = [
            json.dumps({"kind": "meta", "schema": 1}),
            "",
            "   ",
            json.dumps({"kind": "span", "path": "x"}),
        ]
        records = read_trace(lines)
        assert [r["kind"] for r in records] == ["meta", "span"]


class TestMalformedInput:
    def test_bad_json_mid_file_names_line_number(self):
        lines = [
            json.dumps({"kind": "meta", "schema": 1}),
            "{not json",
            json.dumps({"kind": "span", "path": "x"}),
        ]
        with pytest.raises(ValueError, match="line 2"):
            read_trace(lines)

    def test_untagged_record_mid_file_names_line_number(self):
        lines = [
            json.dumps({"kind": "meta", "schema": 1}),
            json.dumps([1, 2]),
            json.dumps({"kind": "span", "path": "x"}),
        ]
        with pytest.raises(ValueError, match="line 2"):
            read_trace(lines)

    def test_torn_tail_warns_and_skips(self):
        # A truncated final line is how a live stream looks mid-write;
        # it must not make the whole trace unreadable.
        lines = [
            json.dumps({"kind": "meta", "schema": 1}),
            json.dumps({"kind": "span", "path": "x"}),
            '{"kind": "event", "event": "metr',
        ]
        with pytest.warns(UserWarning, match="torn tail.*line 3"):
            records = read_trace(lines)
        assert [r["kind"] for r in records] == ["meta", "span"]

    def test_torn_tail_after_trailing_blanks(self):
        lines = [json.dumps({"kind": "meta", "schema": 1}), "{not json", "", "  "]
        with pytest.warns(UserWarning, match="line 2"):
            assert [r["kind"] for r in read_trace(lines)] == ["meta"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(str(tmp_path / "nope.jsonl"))


#: A ``metric`` record as schema v1/v2 files carry them.
OLD_METRIC = {"kind": "metric", "type": "counter",
              "name": "engine.plan.sweeps", "value": 99}


class TestFilters:
    def test_span_and_metric_filters(self):
        records = [*sample_tracer().records(), OLD_METRIC, PLAN]
        assert len(span_records(records)) == 2
        assert event_records(records) == [PLAN]
        # The fold reads events only: a v1/v2 metric record is ignored.
        folded = fold_events(records)
        assert folded.counter("engine.plan.sweeps").value == 1
        direct = MetricsRegistry()
        direct.emit(PLAN)
        assert folded.records() == direct.records()


class TestFoldEvents:
    def test_malformed_event_names_its_kind(self):
        with pytest.raises(ValueError, match="malformed 'plan' event"):
            fold_events([{"kind": "event", "event": "plan"}])

    def test_prometheus_renders_the_fold(self):
        text = render_prometheus(fold_events([PLAN, OLD_METRIC]))
        assert "repro_engine_plan_sweeps_total 1.0" in text
        assert "repro_engine_plan_cache_misses_total 1.0" in text
        assert 'repro_engine_plan_sweep_batch_size{quantile="0.5"} 3.0' in text
        assert "repro_engine_plan_sweep_batch_size_count 1" in text


class TestAggregateSpans:
    def test_rollup_sums_calls_counts_and_traces(self):
        records = []
        for duration, steps, temps in ((0.5, 4, [1.0, 3.0]), (1.5, 6, [5.0])):
            records.append(
                {
                    "kind": "span",
                    "path": "solve/sweep",
                    "depth": 1,
                    "duration_s": duration,
                    "counts": {"search_steps": steps},
                    "traces": {
                        "temp_s_len": {
                            "count": len(temps),
                            "mean": sum(temps) / len(temps),
                            "max": max(temps),
                        }
                    },
                }
            )
        (row,) = aggregate_spans(records)
        assert row["calls"] == 2
        assert row["total_s"] == 2.0
        assert row["mean_s"] == 1.0
        assert row["counts"] == {"search_steps": 10}
        # Pooled mean is the mean of all 3 observations, not mean-of-means.
        pooled = row["traces"]["temp_s_len"]
        assert pooled["count"] == 3
        assert pooled["mean"] == pytest.approx(3.0)
        assert pooled["max"] == 5.0

    def test_first_seen_path_order(self):
        records = [
            {"kind": "span", "path": "b", "duration_s": 0.0, "counts": {}},
            {"kind": "span", "path": "a", "duration_s": 0.0, "counts": {}},
            {"kind": "span", "path": "b", "duration_s": 0.0, "counts": {}},
        ]
        assert [row["path"] for row in aggregate_spans(records)] == ["b", "a"]

    def test_non_span_records_ignored(self):
        assert aggregate_spans([{"kind": "meta"}, {"kind": "metric"}]) == []
