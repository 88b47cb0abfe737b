"""Command-line entry points: ``python -m repro <experiment>``.

Each subcommand regenerates one of the paper's evaluation artifacts as
an ASCII table (see DESIGN.md's experiment index):

- ``fig2``      — the Figure-2 sweep (p, q, p log q vs K and n);
- ``fig2w``     — Figure-2 weight-range sweep (vs max module weight);
- ``compare``   — wall-clock comparison of the bandwidth algorithms;
- ``linear``    — the bounded-K/w linear-average-case experiment;
- ``temps``     — the Appendix-B TEMP_S queue-length measurement;
- ``tree``      — bottleneck + processor minimization demo on a tree;
- ``realtime``  — the Section-3 real-time planning demo;
- ``circuit``   — the Section-3 distributed-simulation demo.

Production entry points:

- ``batch``     — solve a JSONL stream of independent ``(chain, bound,
  objective)`` queries through the cached, vectorized
  :class:`repro.engine.PartitionEngine`, optionally fanned across a
  process pool; results come back in input order.
- ``run``       — solve one generated workload under the observability
  tracer and print the per-phase breakdown (spans, op-counts, the
  paper's ``p``/``q``/``p log q``); ``--trace FILE`` writes the spans
  as JSONL.
- ``report --trace FILE`` — re-render a previously captured trace
  (from ``run --trace`` or ``batch --trace``) without re-running
  anything.
- ``top --trace FILE`` — live dashboard over a streaming trace
  (``batch --stream``): throughput, windowed latency percentiles,
  cache/plan gauges.  ``--once`` prints a single frame.
- ``metrics export --trace FILE`` — Prometheus text-format rendering
  of the instruments a trace's events fold into.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import List, Optional

from repro.exitcodes import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
)


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.analysis.figure2 import figure2_sweep, headline_claims
    from repro.analysis.tables import render_table

    ns = [int(x) for x in args.n]
    ratios = [float(x) for x in args.ratio]
    points = figure2_sweep(ns, ratios, repetitions=args.reps)
    rows = [
        [p.n, p.ratio, p.p, p.q, p.p_log_q, p.n_log_n,
         p.plogq_over_nlogn, p.mean_prime_length, p.mean_temp_s_len]
        for p in points
    ]
    print(
        render_table(
            ["n", "K/wmax", "p", "q", "p log q", "n log n",
             "ratio", "prime len", "mean |TEMP_S|"],
            rows,
            "Figure 2 — prime-subpath statistics vs K",
        )
    )
    print()
    for n, claim in headline_claims(points).items():
        print(
            f"n={n}: max p log q = {claim['max_p_log_q']:.0f} "
            f"({100 * claim['max_ratio_of_nlogn']:.0f}% of n log n), "
            f"low at extreme K: {claim['low_at_extremes']}"
        )
    return EXIT_OK


def _cmd_fig2w(args: argparse.Namespace) -> int:
    from repro.analysis.figure2 import figure2_weight_sweep
    from repro.analysis.tables import render_table

    points = figure2_weight_sweep(
        args.n, [float(w) for w in args.wmax], ratio=args.k_ratio,
        repetitions=args.reps,
    )
    rows = [
        [p.w_max, p.bound, p.p, p.q, p.p_log_q, p.mean_prime_length]
        for p in points
    ]
    print(
        render_table(
            ["w_max", "K", "p", "q", "p log q", "prime len"],
            rows,
            f"Figure 2 — effect of max module weight (n={args.n})",
        )
    )
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import runtime_comparison
    from repro.analysis.tables import render_table
    from repro.baselines import (
        bandwidth_min_deque,
        bandwidth_min_dp,
        bandwidth_min_nlogn,
    )
    from repro.core import bandwidth_min
    from repro.core.recurrence import bandwidth_min_naive

    algorithms = {
        "paper O(n+p log q)": bandwidth_min,
        "nicol O(n log n)": bandwidth_min_nlogn,
        "deque O(n)": bandwidth_min_deque,
        "naive recurrence": bandwidth_min_naive,
    }
    if args.include_quadratic:
        algorithms["dp O(n^2)"] = bandwidth_min_dp
    ns = [int(x) for x in args.n]
    rows = runtime_comparison(algorithms, ns, ratio=args.k_ratio,
                              repetitions=args.reps)
    headers = ["n"] + list(algorithms) + ["optimum"]
    print(
        render_table(
            headers,
            [[row[h] for h in headers] for row in rows],
            f"Bandwidth minimization wall time (s), K = {args.k_ratio} * wmax",
        )
    )
    return EXIT_OK


def _cmd_linear(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import linear_average_case
    from repro.analysis.tables import render_table

    ns = [int(x) for x in args.n]
    points, linear_fit, nlogn_fit = linear_average_case(
        ns, ratio=args.k_ratio, repetitions=args.reps
    )
    rows = [[p.n, p.operations, p.wall_time, p.p, p.q] for p in points]
    print(
        render_table(
            ["n", "operations", "seconds", "p", "q"],
            rows,
            f"Linear-average-case experiment, K/wmax = {args.k_ratio}",
        )
    )
    print()
    print(f"linear fit : ops ~ {linear_fit.a:.3f} n + {linear_fit.b:.1f} "
          f"(R^2 = {linear_fit.r_squared:.5f})")
    print(f"nlogn fit  : ops ~ {nlogn_fit.a:.3f} n log n + {nlogn_fit.b:.1f} "
          f"(R^2 = {nlogn_fit.r_squared:.5f})")
    return EXIT_OK


def _cmd_temps(args: argparse.Namespace) -> int:
    from repro.analysis.complexity import temp_s_length_experiment
    from repro.analysis.tables import render_table

    points = temp_s_length_experiment(
        [int(x) for x in args.n],
        [float(x) for x in args.ratio],
        repetitions=args.reps,
    )
    rows = [
        [p.n, p.ratio, p.q, p.log2_q, p.mean_temp_s_len, p.max_temp_s_len]
        for p in points
    ]
    print(
        render_table(
            ["n", "K/wmax", "q", "log2 q", "mean |TEMP_S|", "max |TEMP_S|"],
            rows,
            "Appendix B — TEMP_S queue length vs log q",
        )
    )
    return EXIT_OK


def _cmd_tree(args: argparse.Namespace) -> int:
    from repro.core import partition_tree
    from repro.graphs.generators import random_tree

    tree = random_tree(args.n, rng=args.seed, integer_weights=True)
    bound = args.k_ratio * tree.max_vertex_weight()
    plan = partition_tree(tree, bound)
    print(f"tree: n={tree.num_vertices}, total weight {tree.total_vertex_weight():g}")
    print(plan.summary())
    partition = plan.partition()
    print(f"component weights: {[round(w, 1) for w in partition.component_weights]}")
    return EXIT_OK


def _cmd_realtime(args: argparse.Namespace) -> int:
    from repro.graphs.generators import random_chain
    from repro.machine import SharedBus, SharedMemoryMachine
    from repro.realtime import RealTimeTask, build_schedule, plan_realtime_task
    from repro.realtime.planner import compare_objectives

    rng_chain = random_chain(args.n, rng=args.seed,
                             vertex_range=(1, 10), edge_range=(1, 100))
    task = RealTimeTask(
        "demo", rng_chain.alpha, rng_chain.beta,
        deadline=args.k_ratio * max(rng_chain.alpha),
    )
    machine = SharedMemoryMachine(64, interconnect=SharedBus(bandwidth=10.0))
    for plan in compare_objectives(task, machine):
        print(f"[{plan.objective}] {plan.summary()}")
    plan = plan_realtime_task(task, machine)
    schedules = build_schedule(plan, machine)
    print(f"stages: {len(schedules)}, worst slack "
          f"{min(s.slack for s in schedules):.2f}")
    return EXIT_OK


def _cmd_circuit(args: argparse.Namespace) -> int:
    from repro.core import bandwidth_min
    from repro.desim import LogicSimulator, circuit_supergraph, simulate_partitioned
    from repro.desim.netlists import ring_counter

    circuit = ring_counter(args.n)
    profile = LogicSimulator(circuit).run(args.end_time)
    supergraph = circuit_supergraph(circuit, activity=profile.activity())
    bound = args.k_ratio * supergraph.chain.max_vertex_weight()
    cut = bandwidth_min(supergraph.chain, bound)
    assignment = supergraph.assignment_from_cut(cut.cut_indices)
    run = simulate_partitioned(circuit, assignment, args.end_time)
    print(f"circuit: {circuit!r}")
    print(f"partition: {run.num_processors} processors, "
          f"{run.cross_messages} cross / {run.local_messages} local messages, "
          f"imbalance {run.load_imbalance:.2f}")
    return EXIT_OK


def _cmd_ring(args: argparse.Namespace) -> int:
    from repro.core.bandwidth import bandwidth_min
    from repro.core.ring import ring_bandwidth_min
    from repro.graphs.ring import Ring
    from repro.instrumentation.rng import spawn_rng

    rng = spawn_rng(args.seed, "ring", args.n)
    alpha = [rng.uniform(1, 10) for _ in range(args.n)]
    beta = [rng.uniform(1, 100) for _ in range(args.n)]
    ring = Ring(alpha, beta)
    bound = args.k_ratio * ring.max_vertex_weight()
    exact = ring_bandwidth_min(ring, bound)
    # Heuristic: break at the lightest edge first, then solve the chain.
    lightest = min(range(ring.num_edges), key=lambda i: ring.beta[i])
    chain = ring.open_at(lightest)
    heuristic_weight = ring.edge_weight(lightest) + bandwidth_min(
        chain, bound
    ).weight
    print(f"ring: n={ring.num_tasks}, K={bound:.1f}")
    print(f"exact circular partition : weight {exact.weight:.2f} "
          f"({len(exact.cut_indices)} cuts, "
          f"{exact.candidates_tried} candidates tried)")
    print(f"break-lightest heuristic : weight {heuristic_weight:.2f}")
    gap = heuristic_weight / exact.weight if exact.weight else 1.0
    print(f"heuristic/exact ratio    : {gap:.4f}")
    return EXIT_OK


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.core.inverse import tree_pareto_frontier
    from repro.graphs.generators import random_tree

    tree = random_tree(args.n, rng=args.seed, integer_weights=True)
    rows = tree_pareto_frontier(tree, args.max_processors)
    print(
        render_table(
            ["processors", "best bound K", "components", "bottleneck",
             "bandwidth"],
            [[r["processors"], r["bound"], r["components"], r["bottleneck"],
              r["bandwidth"]] for r in rows],
            f"Processor/bound Pareto frontier (tree n={args.n}, "
            f"total {tree.total_vertex_weight():g})",
        )
    )
    return EXIT_OK


def _cmd_sync(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.core.bandwidth import bandwidth_min
    from repro.desim import (
        LogicSimulator,
        ParallelLogicSimulator,
        TimeWarpSimulator,
        circuit_supergraph,
    )
    from repro.desim.netlists import ring_counter

    circuit = ring_counter(args.n)
    profile = LogicSimulator(circuit).run(args.end_time)
    supergraph = circuit_supergraph(circuit, activity=profile.activity())
    cut = bandwidth_min(
        supergraph.chain, args.k_ratio * supergraph.chain.max_vertex_weight()
    )
    k = cut.num_components
    placements = {
        "algorithm 4.1": supergraph.assignment_from_cut(cut.cut_indices),
        "round robin": [g % k for g in range(circuit.num_gates)],
    }
    rows = []
    for name, assignment in placements.items():
        conservative = ParallelLogicSimulator(circuit, assignment).run(
            args.end_time
        )
        optimistic = TimeWarpSimulator(circuit, assignment).run(args.end_time)
        assert optimistic.final_values == conservative.final_values
        rows.append([
            name,
            conservative.cross_messages,
            conservative.windows,
            optimistic.rollbacks,
            optimistic.events_rolled_back,
            f"{100 * optimistic.wasted_fraction:.1f}%",
            optimistic.anti_messages,
        ])
    print(render_table(
        ["placement", "cross msgs", "cons. windows", "TW rollbacks",
         "TW rolled-back", "TW wasted", "TW anti-msgs"],
        rows,
        f"Synchronization cost on {k} LPs (identical committed results)",
    ))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.trace_report import render_trace_report
    from repro.core.bandwidth import bandwidth_min
    from repro.graphs.generators import random_chain
    from repro.observability import StreamingJsonlSink, Tracer

    if args.verify:
        from repro.verify.runtime import enable_verification

        enable_verification()
    chain = random_chain(args.n, rng=args.seed)
    bound = args.k_ratio * chain.max_vertex_weight()
    tracer = Tracer()
    sampler = None
    if args.profile:
        from repro.observability import ProfileSampler

        sampler = ProfileSampler()
        sampler.start()
    try:
        result = bandwidth_min(chain, bound, search=args.search, tracer=tracer)
    finally:
        if sampler is not None:
            sampler.stop()
    if args.verify:
        from repro.verify import VerificationError
        from repro.verify.runtime import verify_cache_solve

        try:
            verify_cache_solve(chain, bound, result)
        except VerificationError as exc:
            print(f"verification FAILED:\n{exc}", file=sys.stderr)
            return EXIT_VERIFICATION
        print("verification: certificate + backend cross-check OK")
    if args.baseline:
        from repro.baselines.nicol import bandwidth_min_nlogn

        baseline = bandwidth_min_nlogn(chain, bound, tracer=tracer)
        assert baseline.weight == result.weight
    meta = {
        "workload": "random_chain",
        "n": args.n,
        "k_ratio": args.k_ratio,
        "seed": args.seed,
        "search": args.search,
    }
    print(
        f"bandwidth_min: n={args.n}, K={bound:.2f} -> "
        f"weight {result.weight:.4f}, {result.num_components} components"
    )
    print()
    spans = tracer.records()
    print(render_trace_report([{"kind": "meta", **meta}, *spans]))
    if args.trace:
        with StreamingJsonlSink(args.trace, meta=meta) as sink:
            for record in spans:
                sink.emit(record)
        print(f"\nwrote {sink.lines_written} trace records to {args.trace}",
              file=sys.stderr)
    if sampler is not None:
        stacks = sampler.write_collapsed(args.profile)
        print(
            f"wrote {stacks} collapsed stacks ({sampler.samples} samples) "
            f"to {args.profile}",
            file=sys.stderr,
        )
    return EXIT_OK


def _undecodable_line(path: str, stdin: bytes) -> int:
    """The number of the first line of ``path`` (``-``: the bytes read
    from stdin) that is not UTF-8.

    UTF-8 never encodes a newline byte inside a character, so each
    line decodes on its own."""
    with io.BytesIO(stdin) if path == "-" else open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import os

    from repro.engine import PartitionEngine
    from repro.engine.kernels import KernelUnavailableError

    paths = [path for path in (args.stream, args.trace) if path]
    if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        print(f"batch: --trace and --stream both name {args.trace}; "
              "each file gets the same records, so name one",
              file=sys.stderr)
        return EXIT_USAGE
    if args.verify:
        # Sets REPRO_VERIFY=1 for this process; process-pool workers
        # inherit it, so every query self-certifies in the worker that
        # solved it and failures land in per-query 'error' fields.
        from repro.verify.runtime import enable_verification

        enable_verification()
    # Every file named by --stream or --trace gets the same records as
    # the batch runs; --trace also turns tracing on, so they hold each
    # chain group's spans next to the events.
    hub = tracer = None
    if paths:
        from repro.observability import StreamingJsonlSink, TelemetryHub

        hub = TelemetryHub()
        for path in paths:
            try:
                hub.subscribe(StreamingJsonlSink(
                    path, meta={"workload": "batch", "input": args.input},
                ))
            except OSError as exc:
                hub.close()
                print(f"batch: cannot stream to {path}: {exc}",
                      file=sys.stderr)
                return EXIT_USAGE
    if args.trace:
        from repro.observability import Tracer

        tracer = Tracer()
    engine = PartitionEngine(tracer=tracer, hub=hub)
    stdin = b""
    # Records end at "\n" only, as _undecodable_line counts them: a bare
    # "\r" stays inside its line, and json.loads skips a trailing "\r".
    try:
        if args.input == "-":
            # Bytes, decoded as a file is: strict UTF-8 whatever the locale.
            stdin = sys.stdin.buffer.read()
            lines = io.TextIOWrapper(
                io.BytesIO(stdin), encoding="utf-8", newline="\n"
            ).readlines()
        else:
            with open(args.input, "r", encoding="utf-8", newline="\n") as handle:
                lines = handle.readlines()
    except UnicodeDecodeError as exc:
        print(f"batch: cannot read {args.input}: line "
              f"{_undecodable_line(args.input, stdin)} is not UTF-8: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"batch: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        results = engine.solve_jsonl(lines, max_workers=args.workers)
    except (ValueError, KernelUnavailableError) as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if hub is not None:
            hub.close()
            for sink in hub.subscribers:
                print(f"batch: streamed {sink.lines_written} records to "
                      f"{sink.path}", file=sys.stderr)
    payload = "\n".join(r.to_json() for r in results)
    if args.output == "-":
        if payload:
            print(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            if payload:
                handle.write(payload + "\n")
    failed = sum(1 for r in results if not r.ok)
    if failed:
        print(
            f"batch: {failed}/{len(results)} queries failed "
            "(see 'error' fields)",
            file=sys.stderr,
        )
    return EXIT_OK if not failed else EXIT_FAILURE


def _cmd_report(args: argparse.Namespace) -> int:
    if args.trace:
        from repro.analysis.trace_report import render_trace_report
        from repro.observability import read_trace

        try:
            report = render_trace_report(read_trace(args.trace))
        except OSError as exc:
            print(f"report: cannot read {args.trace}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"report: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(report)
        return EXIT_OK
    from repro.analysis.report import render_report, run_report

    claims = run_report(quick=not args.full)
    print(render_report(claims))
    return EXIT_OK if all(c.passed for c in claims) else EXIT_FAILURE


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a streaming trace (or one frame with --once)."""
    import json
    import time

    from repro.analysis.top import (
        DashboardState,
        follow_trace,
        render_dashboard,
    )

    state = DashboardState(window_s=args.window)
    if args.once:
        from repro.observability import read_trace

        try:
            records = read_trace(args.trace)
        except OSError as exc:
            print(f"top: cannot read {args.trace}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"top: {exc}", file=sys.stderr)
            return EXIT_USAGE
        state.ingest_all(records)
        print(render_dashboard(state))
        return EXIT_OK
    try:
        handle = open(args.trace, "r", encoding="utf-8")
    except OSError as exc:
        print(f"top: cannot read {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    next_draw = 0.0
    try:
        with handle:
            for line in follow_trace(
                handle,
                poll_s=min(args.interval, 0.5),
                idle_limit=args.idle_limit,
            ):
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    state.ingest(record)
                now = time.monotonic()
                if now >= next_draw:
                    # ANSI clear + home, then the fresh frame.
                    print("\x1b[2J\x1b[H" + render_dashboard(state),
                          flush=True)
                    next_draw = now + args.interval
    except KeyboardInterrupt:
        pass
    print(render_dashboard(state))
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render the instruments a trace's events fold into in Prometheus
    text format."""
    from repro.observability import fold_events, read_trace, render_prometheus

    try:
        registry = fold_events(read_trace(args.trace))
    except OSError as exc:
        print(f"metrics: cannot read {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"metrics: {args.trace}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not len(registry):
        print(f"metrics: no events in {args.trace}", file=sys.stderr)
        return EXIT_FAILURE
    sys.stdout.write(render_prometheus(registry))
    return EXIT_OK


def _cmd_fig2plot(args: argparse.Namespace) -> int:
    from repro.analysis.ascii_plot import ascii_plot
    from repro.analysis.figure2 import figure2_sweep

    ns = [int(x) for x in args.n]
    ratios = [float(x) for x in args.ratio]
    points = figure2_sweep(ns, ratios, repetitions=args.reps)
    series = {}
    for n in ns:
        series[f"p log q (n={n})"] = [
            (p.ratio, max(p.p_log_q, 0.1)) for p in points if p.n == n
        ]
        series[f"n log n (n={n})"] = [
            (p.ratio, p.n_log_n) for p in points if p.n == n
        ]
    print(
        ascii_plot(
            series,
            log_x=True,
            log_y=True,
            title="Figure 2: p log q vs n log n over K/wmax (log-log)",
        )
    )
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Static + empirical analyzer gate (contracts, concurrency,
    hotpath, faults; ``--all`` adds the empirical complexity gate)."""
    import json
    from pathlib import Path

    from repro.verify.passes import ANALYZE_SECTIONS, analyze

    if args.paths:
        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            for p in missing:
                print(f"analyze: no such path: {p}", file=sys.stderr)
            return EXIT_USAGE
    else:
        import repro

        paths = [Path(repro.__file__).resolve().parent]

    # No explicit selection runs the static passes; --complexity adds
    # (or, alone, restricts to) the empirical gate; --all merges every
    # pass into one report so CI runs one step instead of three.  Each
    # static pass's flag is named after its report section.
    sections = [name for name in ANALYZE_SECTIONS if getattr(args, name)]
    if args.all or not (sections or args.complexity):
        sections = list(ANALYZE_SECTIONS)
    run_complexity = args.complexity or args.all
    # Schema version of the --json payload; bump on breaking changes so
    # downstream tooling (CI gates, dashboards) can evolve safely.
    report: dict = {"version": 2}
    findings = []
    try:
        results = analyze(paths, sections)
    except SyntaxError as exc:
        print(
            f"analyze: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    for name, (found, checked) in results.items():
        findings.extend(found)
        report[name] = {
            "files": checked,
            "findings": [f.render() for f in found],
        }

    gate = None
    if run_complexity:
        from repro.verify.empirical import run_complexity_gate

        gate = run_complexity_gate(
            scales=[int(s) for s in args.scales.split(",")],
            reps=args.reps,
            tolerance=args.tol,
            seed=args.seed,
        )
        report["complexity"] = gate.as_dict()

    failed = bool(findings) or (gate is not None and not gate.passed)
    report["passed"] = not failed
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if gate is not None:
            print(gate.render())
        if not failed:
            parts = [
                k for k in (*ANALYZE_SECTIONS, "complexity") if k in report
            ]
            print(f"analyze: clean ({', '.join(parts)})", file=sys.stderr)
    return EXIT_FAILURE if failed else EXIT_OK


def _cmd_mutate(args: argparse.Namespace) -> int:
    """Mutation-analysis gate: seed solver bugs, demand the stack kills them."""
    import json
    from pathlib import Path

    from repro.verify.mutate import (
        MutationSetupError,
        UnknownModuleError,
        compare_to_baseline,
        render_report,
        run_mutation_analysis,
    )

    baseline = None
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        try:
            baseline = json.loads(baseline_path.read_text())
        except (OSError, ValueError) as exc:
            print(f"mutate: cannot read baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE

    progress = None if args.quiet else (
        lambda message: print(message, file=sys.stderr)
    )
    try:
        report = run_mutation_analysis(
            modules=args.modules,
            budget=args.budget,
            seed=args.seed,
            progress=progress,
        )
    except UnknownModuleError as exc:
        print(f"mutate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MutationSetupError as exc:
        print(f"mutate: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if baseline is not None:
        regressions = compare_to_baseline(report, baseline)
        if regressions:
            report["failures"].extend(regressions)
            report["passed"] = False

    if args.json:
        print(json.dumps(report, indent=2))
        for failure in report["failures"]:
            print(f"mutate: FAIL: {failure}", file=sys.stderr)
    else:
        print(render_report(report))
    return EXIT_OK if report["passed"] else EXIT_FAILURE


def _cmd_ratchet(args: argparse.Namespace) -> int:
    """Benchmark-ratchet gate: fresh speedups must hold the baseline."""
    import json

    from repro.analysis.ratchet import compare_snapshots, render_comparison

    snapshots = []
    for label, path in (("baseline", args.baseline), ("fresh", args.fresh)):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
        except OSError as exc:
            print(f"ratchet: cannot read {label} {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except ValueError as exc:
            print(f"ratchet: invalid JSON in {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        rows, failures = compare_snapshots(
            snapshots[0], snapshots[1], tolerance=args.tolerance
        )
    except ValueError as exc:
        print(f"ratchet: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(
            json.dumps(
                {"rows": rows, "failures": failures, "passed": not failures},
                indent=2,
            )
        )
    else:
        print(render_comparison(rows, failures))
    return EXIT_FAILURE if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Ray & Jiang (ICDCS 1994) — experiment CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig2", help="Figure-2 sweep")
    p.add_argument("--n", nargs="+", default=["1000", "4000"])
    p.add_argument("--ratio", nargs="+",
                   default=["1.2", "2", "4", "8", "16", "40", "100", "300"])
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("fig2w", help="Figure-2 weight-range sweep")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--wmax", nargs="+", default=["2", "5", "10", "30", "100", "300"])
    p.add_argument("--k-ratio", type=float, default=4.0)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_fig2w)

    p = sub.add_parser("compare", help="algorithm wall-time comparison")
    p.add_argument("--n", nargs="+", default=["1000", "10000", "100000"])
    p.add_argument("--k-ratio", type=float, default=4.0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--include-quadratic", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("linear", help="linear-average-case experiment")
    p.add_argument("--n", nargs="+",
                   default=["2000", "4000", "8000", "16000", "32000"])
    p.add_argument("--k-ratio", type=float, default=3.0)
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_linear)

    p = sub.add_parser("temps", help="Appendix-B TEMP_S length experiment")
    p.add_argument("--n", nargs="+", default=["4000"])
    p.add_argument("--ratio", nargs="+",
                   default=["2", "8", "32", "128", "512"])
    p.add_argument("--reps", type=int, default=3)
    p.set_defaults(func=_cmd_temps)

    p = sub.add_parser("tree", help="tree partitioning demo")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--k-ratio", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("realtime", help="real-time planning demo (Section 3)")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--k-ratio", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_realtime)

    p = sub.add_parser("circuit", help="distributed simulation demo (Section 3)")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k-ratio", type=float, default=8.0)
    p.add_argument("--end-time", type=float, default=2000.0)
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("ring", help="circular task graph partitioning")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--k-ratio", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("pareto", help="processor/bound trade-off for a tree")
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--max-processors", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser(
        "sync", help="conservative vs Time Warp synchronization comparison"
    )
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k-ratio", type=float, default=6.0)
    p.add_argument("--end-time", type=float, default=1500.0)
    p.set_defaults(func=_cmd_sync)

    p = sub.add_parser(
        "run",
        help="solve one traced workload and print the per-phase breakdown",
        description=(
            "Generate a random chain, solve it with Algorithm 4.1 under "
            "the observability tracer, and print the per-phase span "
            "breakdown (wall-clock, search steps, TEMP_S lengths, p/q/"
            "p log q).  --trace writes the spans as JSONL for later "
            "'repro report --trace' inspection."
        ),
    )
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k-ratio", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--search", choices=["binary", "linear"], default="binary")
    p.add_argument("--baseline", action="store_true",
                   help="also run the traced Nicol O(n log n) baseline")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write span records to FILE as JSONL")
    p.add_argument("--verify", action="store_true",
                   help="self-certify the solve (REPRO_VERIFY=1): check "
                        "the paper-invariant certificate and cross-check "
                        "against the pure-Python reference")
    p.add_argument("--profile", default=None, metavar="FILE",
                   help="sample thread stacks during the solve and write "
                        "collapsed-stack flamegraph input to FILE")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "batch",
        help="solve a JSONL stream of partitioning queries via the engine",
        description=(
            "Each input line is a JSON object with 'alpha' (list), 'beta' "
            "(list, optional for n=1), 'bound' (number) and optional "
            "'objective' (default 'bandwidth') and 'tag'.  One JSON result "
            "per line is emitted in input order; infeasible queries carry "
            "an 'error' field instead of failing the batch."
        ),
    )
    p.add_argument("--input", default="-", help="query JSONL file, '-' = stdin")
    p.add_argument("--output", default="-", help="result JSONL file, '-' = stdout")
    p.add_argument("--workers", type=int, default=0,
                   help="process-pool width, one task per chain; 0 = "
                        "serial in-process (default)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="trace the batch: write its events and each chain "
                        "group's spans to FILE as JSONL as the batch runs")
    p.add_argument("--verify", action="store_true",
                   help="self-certify every query (sets REPRO_VERIFY=1; "
                        "failures land in per-query 'error' fields)")
    p.add_argument("--stream", default=None, metavar="FILE",
                   help="stream telemetry events (and, with --trace, "
                        "spans) to FILE as the batch runs (watch live with "
                        "'repro top --trace')")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "report",
        help="run every experiment and print PASS/FAIL verdicts, or "
             "render a trace file",
    )
    p.add_argument("--full", action="store_true",
                   help="larger instances (slower, closer to EXPERIMENTS.md)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="render the per-phase breakdown of a trace JSONL "
                        "instead of running experiments")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "top",
        help="live dashboard over a streaming trace file",
        description=(
            "Follow a (possibly still-growing) trace JSONL and "
            "render throughput, windowed latency percentiles, cache hit "
            "ratio, plan-cache occupancy and the optimality-gap gauge.  "
            "--once reads the file once and prints a single frame; the "
            "windowed percentiles use the same nearest-rank definition "
            "as 'repro report --trace', so the two agree on a finished "
            "run."
        ),
    )
    p.add_argument("--trace", required=True, metavar="FILE",
                   help="trace JSONL to follow (from batch --stream or "
                        "--trace)")
    p.add_argument("--once", action="store_true",
                   help="render one frame from the current file and exit")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between redraws when following (default 1)")
    p.add_argument("--window", type=float, default=30.0,
                   help="sliding-window width in seconds (default 30)")
    p.add_argument("--idle-limit", type=float, default=None, metavar="S",
                   help="stop after S seconds without new data "
                        "(default: follow until interrupted)")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "metrics",
        help="export a trace's instruments (Prometheus text format)",
        description=(
            "Render the instruments the events of a trace JSONL fold "
            "into as Prometheus text exposition format on stdout."
        ),
    )
    p.add_argument("action", choices=["export"],
                   help="'export' renders Prometheus text format")
    p.add_argument("--trace", required=True, metavar="FILE",
                   help="trace JSONL (from batch --trace or --stream)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("fig2plot", help="ASCII plot of the Figure-2 curves")
    p.add_argument("--n", nargs="+", default=["2000"])
    p.add_argument("--ratio", nargs="+",
                   default=["1.2", "2", "4", "8", "16", "40", "100", "300"])
    p.add_argument("--reps", type=int, default=2)
    p.set_defaults(func=_cmd_fig2plot)

    p = sub.add_parser(
        "analyze",
        help="complexity-contract, concurrency-safety, hot-path and "
        "determinism analyzer (REPRO009, REPRO011, REPRO013, "
        "REPRO016-REPRO019, REPRO023)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/trees to analyze (default: the installed repro package)",
    )
    p.add_argument(
        "--contracts", action="store_true",
        help="run only the complexity contract pass (REPRO011)",
    )
    p.add_argument(
        "--concurrency", action="store_true",
        help="run only the shared-state concurrency pass (REPRO013)",
    )
    p.add_argument(
        "--hotpath", action="store_true",
        help="run only the hot-path allocation/dispatch pass "
        "(REPRO016-REPRO019)",
    )
    p.add_argument(
        "--faults", action="store_true",
        help="run only the determinism pass (REPRO023)",
    )
    p.add_argument(
        "--complexity", action="store_true",
        help="run the empirical complexity gate (REPRO009)",
    )
    p.add_argument(
        "--all", action="store_true",
        help="run every pass (static + empirical complexity gate) in "
        "one merged report",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument(
        "--scales", default="512,1024,2048,4096,8192",
        help="comma-separated workload sizes for --complexity",
    )
    p.add_argument("--reps", type=int, default=2,
                   help="instances per scale for --complexity")
    p.add_argument("--tol", type=float, default=0.25,
                   help="allowed excess over the declared growth exponent")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed for --complexity")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "ratchet",
        help="benchmark-ratchet gate: compare a fresh BENCH snapshot "
             "against the committed baseline",
        description=(
            "Compare the speedup fields of a freshly measured benchmark "
            "snapshot (REPRO_BENCH_SNAPSHOT=fresh.json python -m pytest "
            "benchmarks -k engine) against the committed baseline and "
            "exit 1 when any speedup fell more than --tolerance below "
            "its baseline value.  Absolute medians are reported but "
            "never gated — only host-relative ratios ratchet."
        ),
    )
    p.add_argument("baseline", help="committed snapshot (BENCH_engine.json)")
    p.add_argument("fresh", help="freshly measured snapshot")
    p.add_argument("--tolerance", type=float, default=0.20,
                   help="allowed relative drop per speedup (default 0.20)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_ratchet)

    p = sub.add_parser(
        "mutate",
        help="mutation-analysis gate: prove the tests kill seeded solver "
             "bugs",
        description=(
            "Seed semantic faults into the solver modules with domain-aware "
            "AST operators, run each mutant in a fork sandbox (import, then "
            "the module's targeted test files; a hang or a dead child counts "
            "as a kill), and report the kill matrix and per-package mutation "
            "scores.  Exit 1 when a score falls below its threshold or "
            "regresses against --baseline."
        ),
    )
    p.add_argument(
        "--modules", nargs="+", default=None, metavar="MOD",
        help="mutation targets (default: the full registry; see "
             "repro.verify.mutate.TARGETS)",
    )
    p.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="cap the total number of mutants via deterministic seeded "
             "sampling (default: all sites)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed (default 0)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (schema-versioned)")
    p.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="committed earlier --json report; fail if any per-package "
             "score (or the overall score) regressed",
    )
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-mutant progress on stderr")
    p.set_defaults(func=_cmd_mutate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
