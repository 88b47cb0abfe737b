"""CLI smoke tests (argument wiring, not output values)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.exitcodes import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION
from repro.graphs.chain import Chain
from repro.verify.certificates import check_chain_partition


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            ["fig2"],
            ["fig2w"],
            ["compare"],
            ["linear"],
            ["temps"],
            ["tree"],
            ["realtime"],
            ["circuit"],
            ["run"],
            ["analyze"],
        ):
            args = parser.parse_args(command)
            assert callable(args.func)


class TestExecution:
    def test_tree_command(self, capsys):
        assert main(["tree", "--n", "60", "--k-ratio", "4"]) == 0
        out = capsys.readouterr().out
        assert "processors" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--n", "200", "--ratio", "2", "8", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "p log q" in out
        assert "max p log q" in out

    def test_fig2w_small(self, capsys):
        assert main(["fig2w", "--n", "200", "--wmax", "5", "20", "--reps", "1"]) == 0
        assert "w_max" in capsys.readouterr().out

    def test_temps_small(self, capsys):
        assert main(["temps", "--n", "300", "--ratio", "4", "--reps", "1"]) == 0
        assert "TEMP_S" in capsys.readouterr().out

    def test_linear_small(self, capsys):
        assert main(["linear", "--n", "300", "600", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "linear fit" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--n", "300", "--reps", "1"]) == 0
        assert "paper" in capsys.readouterr().out

    def test_realtime_command(self, capsys):
        assert main(["realtime", "--n", "40"]) == 0
        assert "deadline" in capsys.readouterr().out

    def test_circuit_command(self, capsys):
        assert main(["circuit", "--n", "24", "--end-time", "500"]) == 0
        assert "processors" in capsys.readouterr().out

    def test_ring_command(self, capsys):
        assert main(["ring", "--n", "120"]) == 0
        out = capsys.readouterr().out
        assert "exact circular partition" in out
        assert "heuristic/exact ratio" in out

    def test_pareto_command(self, capsys):
        assert main(["pareto", "--n", "40", "--max-processors", "4"]) == 0
        assert "Pareto" in capsys.readouterr().out

    def test_sync_command(self, capsys):
        assert main(["sync", "--n", "24", "--end-time", "500"]) == 0
        out = capsys.readouterr().out
        assert "TW rollbacks" in out
        assert "identical committed results" in out

    def test_fig2plot_command(self, capsys):
        assert main(["fig2plot", "--n", "300", "--ratio", "2", "16",
                     "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "p log q" in out
        assert "|" in out  # the canvas rendered


class TestRunCommand:
    def test_run_prints_phase_breakdown(self, capsys):
        assert main(["run", "--n", "200", "--k-ratio", "4"]) == 0
        out = capsys.readouterr().out
        assert "Per-phase breakdown" in out
        assert "temp_s_sweep" in out
        assert "cost model:" in out

    def test_run_with_baseline(self, capsys):
        assert main(["run", "--n", "150", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "nicol_dp_sweep" in out

    def test_run_writes_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert main(["run", "--n", "120", "--trace", str(trace)]) == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records[0]["kind"] == "meta"
        kinds = {r["kind"] for r in records}
        assert "span" in kinds
        paths = [r.get("path") for r in records if r["kind"] == "span"]
        assert any(p and p.startswith("bandwidth_min") for p in paths)


class TestBatchErrorPaths:
    """Satellite: the ``repro batch`` failure modes users actually hit."""

    @pytest.mark.parametrize(
        "bad_line, locale",
        [
            pytest.param(b"{this is not json", None, id="not_json"),
            # 400 digits overflow a float.
            pytest.param(b'{"alpha": [1' + b"0" * 400 + b'], "beta": [], "bound": 2}',
                         None, id="overflowing_int"),
            pytest.param(b'{"alpha": [1, 2], "beta": [1], "bound": 5, "tag": "\xff"}',
                         None, id="not_utf8"),
            # On stdin too, whatever the locale's encoding would forgive.
            pytest.param(b'{"alpha": [1, 2], "beta": [1], "bound": 5, "tag": "\xff"}',
                         "C", id="not_utf8_stdin_c_locale"),
            pytest.param(b'{"alpha": ' + b"[" * 100_000 + b"]" * 100_000 + b', "bound": 2}',
                         None, id="nested_too_deep"),
            # Nothing but arrays of numbers and a number is read as one.
            pytest.param(b'{"alpha": "123", "beta": [1, 1], "bound": 9}',
                         None, id="string_weights"),
            pytest.param(b'{"alpha": [true, 1], "beta": [1], "bound": 9}',
                         None, id="bool_weight"),
            pytest.param(b'{"alpha": [1, 1], "beta": [1], "bound": "9"}',
                         None, id="string_bound"),
            pytest.param(b'{"alpha": {"1": 2, "3": 4}, "beta": [1], "bound": 9}',
                         None, id="object_weights"),
            pytest.param(b'{"alpha": [1, 1], "beta": [1], "bound": true}',
                         None, id="bool_bound"),
            # A tag is a string or null, an objective a string.
            pytest.param(b'{"alpha": [1, 1], "beta": [1], "bound": 9, "tag": {"a": [1]}}',
                         None, id="object_tag"),
            pytest.param(b'{"alpha": [1, 1], "beta": [1], "bound": 9, "objective": ["x"]}',
                         None, id="list_objective"),
            # A bare \r ends no record: both input routes count lines at
            # "\n" only, as the non-UTF-8 message does.
            pytest.param(b'{"alpha": [1, 1], "beta": [1], "bound": 9}\r'
                         b'{"alpha": [1, 1], "beta": [1], "bound": "9"}',
                         None, id="bare_cr_input"),
            pytest.param(b'{"alpha": [1, 1], "beta": [1], "bound": 9}\r'
                         b'{"alpha": [1, 1], "beta": [1], "bound": "9"}',
                         "C", id="bare_cr_stdin"),
        ],
    )
    def test_malformed_jsonl_line_exits_2_naming_line(
        self, tmp_path, capsys, bad_line, locale
    ):
        payload = (json.dumps({"alpha": [1, 1], "beta": [1], "bound": 2}).encode()
                   + b"\n" + bad_line + b"\n")
        if locale is not None:
            env = {k: v for k, v in os.environ.items()
                   if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
            env["LC_ALL"] = locale
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
            proc = subprocess.run([sys.executable, "-m", "repro", "batch"], input=payload,
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 2
            assert "line 2" in proc.stderr.decode()
            assert proc.stdout == b""  # nothing half-written on a parse error
            return
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        inp.write_bytes(payload)
        code = main(["batch", "--input", str(inp), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert not out.exists()  # nothing half-written on a parse error

    def test_crlf_records_read_as_lf(self, tmp_path):
        records = [json.dumps({"alpha": [4, 3, 5, 2, 6], "beta": [7, 1, 9, 2],
                               "bound": k}) for k in (9, 12)]
        outputs = []
        for ending in ("\n", "\r\n"):
            inp = tmp_path / "queries.jsonl"
            out = tmp_path / f"results{len(ending)}.jsonl"
            inp.write_bytes((ending.join(records) + ending).encode())
            assert main(["batch", "--input", str(inp), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_partial_failure_exits_1(self, tmp_path, capsys):
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        records = [
            {"alpha": [1, 1, 1], "beta": [1, 1], "bound": 2, "tag": "ok"},
            {"alpha": [5.0, 1.0], "beta": [2.0], "bound": 0.5, "tag": "bad"},
        ]
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(["batch", "--input", str(inp), "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "1/2 queries failed" in err
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [("error" in row) for row in rows] == [False, True]

    def test_infinite_optimum_is_a_query_error(self, tmp_path, capsys):
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        chain = {"alpha": [1, 1, 1], "beta": [1e308, 1e308]}
        records = [dict(chain, bound=2, tag="ok"),
                   dict(chain, bound=1, tag="overflow")]
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(["batch", "--input", str(inp), "--output", str(out)])
        assert code == 1
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["weight"] == 1e308
        assert "overflows float64" in rows[1]["error"]

    def test_tenth_weight_pipeline_query_is_answered(self, tmp_path, capsys):
        # Algorithm 2.1 merges component {2, 3, 4} to exactly K = 2.3; a
        # re-sum in vertex order lands a rounding step above it.
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        query = {"alpha": [1.6, 1.4, 1.3, 0.1, 0.9], "beta": [3, 2, 9, 9],
                 "bound": 2.3, "objective": "bottleneck+processors"}
        inp.write_text(json.dumps(query) + "\n")
        assert main(["batch", "--input", str(inp), "--output", str(out)]) == 0
        (row,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert (row["cut"], row["weight"]) == ([0, 1], 5.0)
        chain = Chain(query["alpha"], query["beta"])
        report = check_chain_partition(chain, row["cut"], 2.3,
                                       claimed_weight=row["weight"])
        assert report.ok, report.violations

    def test_empty_cut_weighs_float_zero_under_every_objective(self, tmp_path, capsys):
        # The tree objectives weigh the cut with Chain.cut_weight; an
        # empty cut must still be the float 0.0 that bandwidth reports.
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        objectives = ["bandwidth", "bottleneck", "processors",
                      "bottleneck+processors", "bottleneck+bandwidth"]
        inp.write_text("".join(
            json.dumps({"alpha": [1, 2], "beta": [3], "bound": 5, "objective": o}) + "\n"
            for o in objectives
        ))
        assert main(["batch", "--input", str(inp), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [json.loads(line)["objective"] for line in lines] == objectives
        assert all('"cut": [], "weight": 0.0,' in line for line in lines)

    def test_empty_input_file_exits_0(self, tmp_path, capsys):
        inp = tmp_path / "empty.jsonl"
        out = tmp_path / "results.jsonl"
        inp.write_text("")
        assert main(["batch", "--input", str(inp), "--output", str(out)]) == 0
        assert out.read_text() == ""

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["batch", "--input", str(tmp_path / "nope.jsonl"),
             "--output", "-"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_without_kernels_exits_2_naming_what_is_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        args = _batch_without_kernels(tmp_path, monkeypatch)
        assert main(args) == EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("batch: ") and "NumPy" in line and "gcc" in line


class TestTraceReportCommand:
    def run_batch_with_trace(self, tmp_path, workers="0"):
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        trace = tmp_path / "trace.jsonl"
        records = [
            {"alpha": [1.0] * 12, "beta": [1.0] * 11, "bound": 3.0,
             "tag": f"q{i}"}
            for i in range(4)
        ]
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(
            ["batch", "--input", str(inp), "--output", str(out),
             "--workers", workers, "--trace", str(trace)]
        )
        return code, trace

    def test_batch_trace_then_report(self, tmp_path, capsys):
        code, trace = self.run_batch_with_trace(tmp_path)
        assert code == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(["report", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase breakdown" in out
        assert "engine.batch.queries" in out

    def test_batch_trace_parallel_collects_worker_spans(self, tmp_path):
        code, trace = self.run_batch_with_trace(tmp_path, workers="2")
        assert code == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        worker_spans = [
            r for r in records
            if r["kind"] == "span" and "query_index" in r
        ]
        assert sorted({r["query_index"] for r in worker_spans}) == [0, 1, 2, 3]

    def test_report_trace_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["report", "--trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "report:" in capsys.readouterr().err

    def test_report_trace_malformed_midfile_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            '{"kind": "meta"}\nnot json\n{"kind": "span", "path": "x"}\n'
        )
        code = main(["report", "--trace", str(trace)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_report_trace_nested_too_deep_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "deep.jsonl"
        trace.write_text(
            '{"kind": "meta"}\n'
            + '{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}\n"
            + '{"kind": "span", "path": "x"}\n'
        )
        code = main(["report", "--trace", str(trace)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_report_trace_torn_tail_tolerated(self, tmp_path, capsys):
        # A malformed *last* record is an interrupted stream, not a bad
        # file: warn, skip it, and report on what did land.
        trace = tmp_path / "torn.jsonl"
        trace.write_text('{"kind": "meta"}\n{"kind": "spa')
        with pytest.warns(UserWarning, match="torn tail"):
            code = main(["report", "--trace", str(trace)])
        assert code == 0


class TestOneTelemetryStream:
    """``batch --stream S --trace T``: the stream folds to the trace's
    numbers, and ``top`` and ``metrics export`` read the same facts."""

    @pytest.fixture(scope="class")
    def queries(self, tmp_path_factory):
        # The CI smoke file: 4 chains x 8 bounds, 32 queries.
        import random

        rng = random.Random(0)
        chains = [([rng.randint(1, 10) for _ in range(200)],
                   [rng.randint(1, 5) for _ in range(199)]) for _ in range(4)]
        path = tmp_path_factory.mktemp("stream") / "queries.jsonl"
        with open(path, "w") as fh:
            for i in range(32):
                alpha, beta = chains[i % 4]
                fh.write(json.dumps({"alpha": alpha, "beta": beta,
                                     "bound": (2 + i // 4) * max(alpha),
                                     "tag": f"q{i}"}) + "\n")
        return path

    def run(self, queries, tmp_path, workers):
        stream, trace = tmp_path / "S.jsonl", tmp_path / "T.jsonl"
        code = main(["batch", "--input", str(queries),
                     "--output", str(tmp_path / "out.jsonl"),
                     "--workers", workers,
                     "--stream", str(stream), "--trace", str(trace)])
        assert code == 0
        return str(stream), str(trace)

    @staticmethod
    def instruments(records):
        scalars, histograms = {}, {}
        for record in records:
            if record["type"] == "histogram":
                histograms[record["name"]] = record["summary"]
            else:
                scalars[(record["type"], record["name"])] = record["value"]
        return scalars, histograms

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_stream_folds_to_trace_metrics(self, queries, tmp_path, workers,
                                           capsys):
        from repro.observability import (
            MetricsRegistry, event_records, metric_records, read_trace,
        )

        stream, trace = self.run(queries, tmp_path, workers)
        folded = MetricsRegistry()
        for event in event_records(read_trace(stream)):
            folded.emit(event)
        got_scalars, got_hists = self.instruments(folded.records())
        want_scalars, want_hists = self.instruments(
            metric_records(read_trace(trace)))
        assert got_scalars == want_scalars
        assert set(got_hists) == set(want_hists)
        for name, summary in want_hists.items():
            assert got_hists[name]["count"] == summary["count"]
            assert got_hists[name]["sum"] == pytest.approx(
                summary["sum"], rel=1e-12)
        # Plan-cache lookups appear under one name, summed across workers.
        names = {name for _, name in want_scalars}
        assert ("counter", "engine.plan.cache.hits") in want_scalars
        assert not any(n.startswith("engine.batch.cache") for n in names)

        capsys.readouterr()
        assert main(["metrics", "export", "--trace", stream]) == 0
        from_stream = capsys.readouterr().out
        assert main(["metrics", "export", "--trace", trace]) == 0
        from_trace = capsys.readouterr().out

        def totals(text):
            return [line for line in text.splitlines()
                    if line.split(" ")[0].endswith("_total")]

        assert totals(from_stream) == totals(from_trace)
        assert len(totals(from_trace)) >= 9

    @pytest.mark.parametrize("workers", ["0", "2"])
    def test_top_matches_batch_meta(self, queries, tmp_path, workers, capsys):
        from repro.observability import read_trace

        stream, trace = self.run(queries, tmp_path, workers)
        batch = read_trace(trace)[0]["batch"]
        capsys.readouterr()
        assert main(["top", "--trace", stream, "--once"]) == 0
        out = capsys.readouterr().out
        assert f"solves {batch['queries']} ({batch['failures']} failed)" in out
        rate = batch["cache"]["hit_rate"]
        assert f"{100.0 * rate:5.1f}%" in out.split("cache hits")[1].splitlines()[0]

    def test_malformed_event_exits_2(self, tmp_path, capsys):
        stream = tmp_path / "old.jsonl"
        stream.write_text(
            '{"kind": "meta", "schema": 2}\n'
            '{"kind": "event", "event": "plan", "action": "sweep"}\n'
        )
        assert main(["metrics", "export", "--trace", str(stream)]) == 2
        assert "malformed 'plan' event" in capsys.readouterr().err

    def test_serial_stream_reports_each_fact_once(self, queries, tmp_path,
                                                  capsys):
        from collections import Counter

        from repro.observability import read_trace

        stream, _ = self.run(queries, tmp_path, "0")
        records = read_trace(stream)
        assert records[0]["kind"] == "meta"
        kinds = Counter(r["event"] for r in records[1:])
        assert kinds == {"solve": 32, "plan": 32, "cache": 4, "batch": 1}
        capsys.readouterr()
        main(["top", "--trace", stream, "--once"])
        assert " 87.5%" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_clean_on_src_tree(self, capsys):
        assert main(["analyze"]) == 0
        assert "analyze: clean" in capsys.readouterr().err

    def test_analyze_reports_findings_and_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "engine" / "leaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def load(path):\n"
            "    fh = open(path)\n"
            "    data = fh.read()\n"
            "    fh.close()\n"
            "    return data\n"
        )
        assert main(["analyze", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "leaky.py:2:10: REPRO020" in out

    def test_analyze_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main(["analyze", str(tmp_path)]) == 2
        assert "analyze:" in capsys.readouterr().err

    def test_analyze_parses_each_file_once(self, tmp_path, monkeypatch, capsys):
        import ast

        # Files in and out of the hotpath/faults package scopes: every
        # pass runs over some of them.
        for package in ("core", "engine", "observability", "analysis"):
            pkg = tmp_path / "repro" / package
            pkg.mkdir(parents=True)
            (pkg / "mod.py").write_text("def f(x):\n    return x\n")
        (tmp_path / "repro" / "cli.py").write_text("def main():\n    pass\n")
        (tmp_path / "fixture.py").write_text("X = 1\n")
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["analyze", "--json", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(parsed) == 6 == len(set(parsed))
        assert report["contracts"]["files"] == 6
        assert report["hotpath"]["files"] == 3  # core, engine, fixture
        assert report["faults"]["files"] == 4  # all but analysis, cli

    def test_analyze_complexity_renders_gate(self, capsys):
        code = main(
            [
                "analyze",
                "--complexity",
                "--scales",
                "128,256,512",
                "--reps",
                "1",
            ]
        )
        assert code == 0
        assert "complexity gate passed" in capsys.readouterr().out

    def test_analyze_complexity_json_flag_emits_report(self, capsys):
        code = main(
            [
                "analyze",
                "--complexity",
                "--json",
                "--scales",
                "128,256,512",
                "--reps",
                "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        gate = payload["complexity"]
        assert gate["passed"] is True
        names = {probe["name"] for probe in gate["probes"]}
        assert "core.bandwidth_min" in names


# ----------------------------------------------------------------------
# Exit sites the tests above leave out: each returns its documented code
# ----------------------------------------------------------------------

MALFORMED_TRACE = '{"kind": "meta"}\nnot json\n{"kind": "span", "path": "x"}\n'


def _run_verify_fails(tmp_path, monkeypatch):
    from repro.verify import VerificationError, runtime

    def fail(*args, **kwargs):
        raise VerificationError(
            check_chain_partition(Chain([5.0, 5.0], [1.0]), [], 6.0)
        )

    # --verify sets REPRO_VERIFY; setenv first so the test restores it.
    monkeypatch.setenv("REPRO_VERIFY", "1")
    monkeypatch.setattr(runtime, "verify_cache_solve", fail)
    return ["run", "--n", "50", "--verify"]


def _batch_stream_unwritable(tmp_path, monkeypatch):
    inp = tmp_path / "queries.jsonl"
    inp.write_text('{"alpha": [1, 1], "beta": [1], "bound": 9}\n')
    return ["batch", "--input", str(inp), "--output", str(tmp_path / "out"),
            "--stream", str(tmp_path / "missing" / "stream.jsonl")]


def _batch_without_kernels(tmp_path, monkeypatch):
    """A bandwidth query with no native library and no importable NumPy."""
    from repro.engine import native

    inp = tmp_path / "queries.jsonl"
    inp.write_text('{"alpha": [4, 3, 5, 2, 6], "beta": [7, 1, 9, 2], "bound": 9}\n')
    monkeypatch.setattr(native, "load_sweep", lambda: None)
    monkeypatch.setitem(sys.modules, "numpy", None)  # every ``import numpy`` fails
    return ["batch", "--input", str(inp), "--output", str(tmp_path / "out")]


def _report_claims(passed):
    def setup(tmp_path, monkeypatch):
        from repro.analysis import report

        monkeypatch.setattr(
            report, "run_report",
            lambda quick=True: [report.ClaimResult("claim", passed, "", 0.0)],
        )
        return ["report"]

    return setup


def _with_trace(command, content, *flags):
    """``command --trace FILE flags``: FILE holds ``content``, or is
    missing when ``content`` is None."""
    def setup(tmp_path, monkeypatch):
        trace = tmp_path / "trace.jsonl"
        if content is not None:
            trace.write_text(content)
        return [*command, "--trace", str(trace), *flags]

    return setup


def _mutate_bad_baseline(tmp_path, monkeypatch):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("not json")
    return ["mutate", "--quiet", "--baseline", str(baseline)]


def _mutate_setup_error(tmp_path, monkeypatch):
    from repro.verify import mutate

    def fail(**kwargs):
        raise mutate.MutationSetupError("no test file")

    monkeypatch.setattr(mutate, "run_mutation_analysis", fail)
    return ["mutate", "--quiet"]


def _mutate_passes(tmp_path, monkeypatch):
    from repro.verify import mutate

    monkeypatch.setattr(mutate, "run_mutation_analysis",
                        lambda **kwargs: {"passed": True, "failures": []})
    return ["mutate", "--quiet", "--json"]


def _ratchet_without_benchmarks(tmp_path, monkeypatch):
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text("{}")
    return ["ratchet", str(snapshot), str(snapshot)]


@pytest.mark.parametrize(
    "setup, expected",
    [
        pytest.param(_run_verify_fails, EXIT_VERIFICATION, id="run_verify_fails"),
        pytest.param(_batch_stream_unwritable, EXIT_USAGE,
                     id="batch_stream_unwritable"),
        pytest.param(_batch_without_kernels, EXIT_USAGE,
                     id="batch_without_kernels"),
        pytest.param(_report_claims(True), EXIT_OK, id="report_claims_pass"),
        pytest.param(_report_claims(False), EXIT_FAILURE, id="report_claims_fail"),
        pytest.param(_with_trace(["top"], None, "--once"), EXIT_USAGE,
                     id="top_once_missing"),
        pytest.param(_with_trace(["top"], MALFORMED_TRACE, "--once"), EXIT_USAGE,
                     id="top_once_malformed"),
        pytest.param(_with_trace(["top"], None), EXIT_USAGE, id="top_follow_missing"),
        pytest.param(_with_trace(["top"], "", "--interval", "0.01", "--idle-limit", "0"),
                     EXIT_OK, id="top_follow_idle"),
        pytest.param(_with_trace(["metrics", "export"], None), EXIT_USAGE,
                     id="metrics_missing"),
        pytest.param(_with_trace(["metrics", "export"], MALFORMED_TRACE), EXIT_USAGE,
                     id="metrics_malformed"),
        pytest.param(_with_trace(["metrics", "export"], ""), EXIT_FAILURE,
                     id="metrics_no_records"),
        pytest.param(_mutate_bad_baseline, EXIT_USAGE, id="mutate_bad_baseline"),
        pytest.param(lambda tmp_path, monkeypatch: [
                         "mutate", "--quiet", "--modules", "repro.no_such_module"],
                     EXIT_USAGE, id="mutate_unknown_module"),
        pytest.param(_mutate_setup_error, EXIT_USAGE, id="mutate_setup_error"),
        pytest.param(_mutate_passes, EXIT_OK, id="mutate_passes"),
        pytest.param(_ratchet_without_benchmarks, EXIT_USAGE,
                     id="ratchet_without_benchmarks"),
    ],
)
def test_exit_site_returns_its_documented_code(
    setup, expected, tmp_path, monkeypatch, capsys
):
    assert main(setup(tmp_path, monkeypatch)) == expected
