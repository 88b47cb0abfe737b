"""Unit tests for :mod:`repro.observability.spans`."""

import time

from repro.observability.spans import Tracer


class TestSpanNesting:
    def test_with_blocks_build_the_tree(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                with tracer.span("leaf"):
                    pass
            with tracer.span("b"):
                pass
        assert tracer.roots == [root]
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in a.children] == ["leaf"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_out_of_order_exit_does_not_corrupt_stack(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Exit the outer span first; the stack must still drain.
        outer.__exit__(None, None, None)
        with tracer.span("next"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "next"]

    def test_duration_measured(self):
        tracer = Tracer()
        with tracer.span("sleepy") as span:
            time.sleep(0.01)
        assert span.duration_s >= 0.009
        assert tracer.total_seconds() >= 0.009

    def test_attrs_counts_and_traces(self):
        tracer = Tracer()
        with tracer.span("phase", n=100) as span:
            span.set("p", 7)
            span.add("search_steps")
            span.add("search_steps", 4)
            span.trace("temp_s_len", 2.0)
            span.trace("temp_s_len", 4.0)
        assert span.attrs == {"n": 100, "p": 7}
        assert span.counter.get("search_steps") == 5
        assert span.counter.trace_mean("temp_s_len") == 3.0


class TestIntrospection:
    def build(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("b"):
                pass
        return tracer

    def test_iter_spans_depth_first(self):
        tracer = self.build()
        assert [s.name for s in tracer.iter_spans()] == [
            "root", "a", "leaf", "b",
        ]

    def test_find(self):
        tracer = self.build()
        assert tracer.find("leaf").name == "leaf"
        assert tracer.find("missing") is None

    def test_records_paths_depth_order(self):
        tracer = self.build()
        records = tracer.records()
        assert [r["path"] for r in records] == [
            "root", "root/a", "root/a/leaf", "root/b",
        ]
        assert [r["depth"] for r in records] == [0, 1, 2, 1]
        assert [r["order"] for r in records] == [0, 1, 2, 3]
        assert all(r["kind"] == "span" for r in records)

    def test_records_carry_counts_and_trace_summaries(self):
        tracer = Tracer()
        with tracer.span("sweep") as span:
            span.add("search_steps", 12)
            for v in (1.0, 3.0):
                span.trace("temp_s_len", v)
        (record,) = tracer.records()
        assert record["counts"] == {"search_steps": 12}
        assert record["traces"]["temp_s_len"] == {
            "count": 2, "mean": 2.0, "max": 3.0,
        }

    def test_records_are_json_plain(self):
        import json

        tracer = self.build()
        json.dumps(tracer.records())  # must not raise
