"""The four workloads: one client, one thread, closed loop, serial engine.

Each workload has a timed form (tracing off; end-to-end metrics) and a
traced form that replays the same path layer by layer through public
``repro`` calls and reports per-layer self times and counts.  Why each
workload exists is recorded in README.md next to this file.
"""

import os
import shutil
import time

import checks
import inputs
from harness import (
    WORK,
    LayerClock,
    Segments,
    Tally,
    cli_batch_argv,
    measure_startup,
    peak_rss_mb,
    percentile,
    startup_argv,
)
from speedprobe import SpeedProbe

from repro import Chain, PartitionEngine, PartitionQuery, Tree, partition_tree
from repro.core.bottleneck import bottleneck_min
from repro.core.processor_min import processor_min
from repro.engine import kernels
from repro.observability import RingBufferSubscriber, TelemetryHub, Tracer

#: Queries (cold_solve) and trees (tree_partition) per timed segment,
#: sized so that a segment takes a few tenths of a second.
COLD_SEGMENT = 8
TREE_SEGMENT = 2 * len(inputs.TREE_SHAPES)
#: bound_grid's set-up pass is timed in chunks of this many queries; a
#: timed segment is GRID_PASSES passes over the whole grid.
WARMUP_CHUNK = 8
GRID_PASSES = 2
#: Every REFERENCE_EVERY-th chain answer is also solved by the pure-Python
#: reference and compared bit for bit.
REFERENCE_EVERY = 8
#: Traced runs count work over a fixed prefix of the input stream, so
#: that counts repeat exactly for a seed: this many queries (cold_solve),
#: trees (tree_partition), passes (bound_grid) or invocations
#: (jsonl_mixed).  A traced run always gets through its window.
COUNT_WINDOW = {"cold_solve": 16, "bound_grid": 4, "jsonl_mixed": 1,
                "tree_partition": 12}
#: Largest share of the traced end-to-end time that the leaf layers'
#: self times may leave unexplained.
UNATTRIBUTED_BOUND = 0.15

#: Leaf layers per workload: their self times should add up to the
#: traced end-to-end time, give or take the unattributed residual.
LEAVES = {
    "cold_solve": ("graphs.chain_build_s", "graphs.fingerprint_s",
                   "kernels.freeze_s", "kernels.prime_windows_s",
                   "kernels.edge_reduction_s", "kernels.sweep_s"),
    "bound_grid": ("graphs.fingerprint_s", "plan.solve_bounds_s",
                   "batch.dispatch_s"),
    "jsonl_mixed": ("cli.startup_s", "json.decode_s", "graphs.fingerprint_s",
                    "plan.compile_s", "plan.solve_bounds_s", "batch.dispatch_s",
                    "json.encode_s"),
    "tree_partition": ("core.bottleneck_min_s", "graphs.tree_contract_s",
                       "core.processor_min_s"),
}

#: Every per-layer metric and its unit; a workload that does not run a
#: layer reports 0 for it.  Times are per query answered.
PER_LAYER = {
    "kernels.freeze_s": "s/q",
    "kernels.prime_windows_s": "s/q",
    "kernels.edge_reduction_s": "s/q",
    "kernels.sweep_s": "s/q",
    "kernels.primes": "count",
    "kernels.reduced_edges": "count",
    "graphs.chain_build_s": "s/q",
    "graphs.fingerprint_s": "s/q",
    "graphs.tree_contract_s": "s/q",
    "core.bottleneck_min_s": "s/q",
    "core.processor_min_s": "s/q",
    "core.cut_edges": "count",
    "cache.solve_s": "s/q",
    "cache.hits": "count",
    "cache.interval_hits": "count",
    "cache.misses": "count",
    "cache.hit_rate": "ratio",
    "plan.compile_s": "s/plan",
    "plan.solve_bounds_s": "s/q",
    "plan.structures_built": "count",
    "plan.structures_reused": "count",
    "plan.reuse_rate": "ratio",
    "batch.solve_many_s": "s/q",
    "batch.dispatch_s": "s/q",
    "batch.failures": "count",
    "json.decode_s": "s/q",
    "json.encode_s": "s/q",
    "json.bytes_in": "bytes",
    "json.bytes_out": "bytes",
    "cli.startup_s": "s",
    "observability.traced_solve_s": "s/q",
    "observability.hub_solve_s": "s/q",
    "observability.overhead_ratio": "ratio",
    "latency.p50_ms": "ms",
    "latency.p95_ms": "ms",
    "bench.raw_queries_per_s": "q/s",
    "bench.speed_factor": "ratio",
    "bench.probe_spread": "ratio",
    "bench.unattributed_share": "ratio",
}
COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count" or unit == "bytes"]


class Run:
    """State of one benchmark run."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.probe = SpeedProbe()
        self.segments = Segments(self.probe)
        self.startup = None
        self.tally = Tally()
        self.layers = LayerClock()
        self.work = WORK / str(os.getpid())
        self.per_segment = 0
        self.extra_setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.lines = []

    def going(self, done, window):
        """Whether the measuring loop continues: until the deadline, and
        in a traced run at least until the count window is complete."""
        return time.perf_counter() < self.end or (self.trace and done < window)

    def start(self, setup_argv=None):
        """Measure set-up in fresh children running ``setup_argv`` (if
        given), then start the clock."""
        self.work.mkdir(parents=True, exist_ok=True)
        if setup_argv is not None:
            self.startup = measure_startup(self.probe, setup_argv,
                                           self.work / "startup.log")
        self.end = time.perf_counter() + self.seconds

    def traced_segment(self, fn, *args, segments=None):
        """Run ``fn(clock, *args)`` as a segment on a fresh layer clock,
        then fold the clock in at the segment's speed factor."""
        segments = segments or self.segments
        clock = LayerClock()
        out = segments.time(fn, clock, *args)
        self.layers.absorb(clock, segments.factors[-1])
        return out


# ----------------------------------------------------------------------
# cold_solve
# ----------------------------------------------------------------------
def _cold_segment(engine, queries):
    out = []
    for alpha, beta, k in queries:
        try:
            result = engine.solve(Chain(alpha, beta), k)
            out.append((result.cut_indices, result.weight))
        except Exception as exc:  # an unexpected error is a failed operation
            out.append(exc)
    return out


def _check_chain(run, query, answer, reference):
    alpha, beta, k = query
    if isinstance(answer, Exception):
        run.tally.record(False, f"K={k!r}: {answer!r}")
        return
    run.tally.record(*checks.chain_answer(alpha, beta, k, answer[0], answer[1],
                                          reference=reference))


def cold_solve(run):
    run.start(None if run.trace else startup_argv())
    engine = PartitionEngine()
    rng = inputs.generator(run.seed, 1)
    done = 0
    while run.going(done, COUNT_WINDOW["cold_solve"]):
        queries = inputs.cold_queries(rng, COLD_SEGMENT)
        if run.trace:
            answers = run.traced_segment(_cold_traced_segment, engine, queries, done)
        else:
            answers = run.segments.time(_cold_segment, engine, queries)
        for query, answer in zip(queries, answers):
            _check_chain(run, query, answer, done % REFERENCE_EVERY == 0)
            done += 1
    run.per_segment = COLD_SEGMENT
    run.peak_rss_mb = peak_rss_mb()


def _freeze(chain):
    return kernels.prefix_array(chain), kernels.beta_array(chain)


def _edge_reduction(chain, prefix, beta, first, last):
    weights = prefix[last + 1] - prefix[first]
    lo, hi = kernels.membership_intervals(first, last - 1, chain.num_edges)
    return weights, kernels.reduced_edge_arrays(beta, lo, hi)


def _sweep(chain, k, first, last, weights, columns):
    structure = kernels.ArrayPrimeStructure(chain, k, first, last, weights, *columns)
    return kernels.bandwidth_sweep(structure)


def _cold_traced_segment(layers, engine, queries, done):
    window = COUNT_WINDOW["cold_solve"]
    return [_cold_traced(layers, engine, q, done + i < window)
            for i, q in enumerate(queries)]


def _cold_traced(layers, engine, query, counting):
    """The real path (Chain, then engine.solve), then the same solve
    replayed kernel by kernel, then once with a tracer and once with a
    live hub feeding a ring buffer."""
    alpha, beta, k = query
    stats = engine.cache.stats
    before = (stats.hits, stats.interval_hits, stats.misses)
    t0 = time.perf_counter()
    try:
        chain = Chain(alpha, beta)
        t1 = time.perf_counter()
        result = engine.solve(chain, k)
    except Exception as exc:  # an unexpected error is a failed operation
        return exc
    t2 = time.perf_counter()
    layers.add("e2e", t2 - t0)
    layers.add("cache.solve_s", t2 - t1)
    layers.latencies.append(t2 - t0)
    if counting:
        layers.count("cache.hits", stats.hits - before[0])
        layers.count("cache.interval_hits", stats.interval_hits - before[1])
        layers.count("cache.misses", stats.misses - before[2])

    replay = layers.timed("graphs.chain_build_s", Chain, alpha, beta)
    layers.timed("graphs.fingerprint_s", replay.fingerprint)
    prefix, beta_arr = layers.timed("kernels.freeze_s", _freeze, replay)
    first, last = layers.timed("kernels.prime_windows_s", kernels.prime_windows,
                               prefix, k)
    weights, columns = layers.timed("kernels.edge_reduction_s", _edge_reduction,
                                    replay, prefix, beta_arr, first, last)
    cut, weight = layers.timed("kernels.sweep_s", _sweep, replay, k, first, last,
                               weights, columns)
    if counting:
        layers.count("kernels.primes", int(first.shape[0]))
        layers.count("kernels.reduced_edges", int(columns[0].shape[0]))
    if (cut, weight) != (list(result.cut_indices), result.weight):
        return RuntimeError("kernel replay disagrees with engine.solve")

    traced = PartitionEngine(tracer=Tracer())
    hub = PartitionEngine(hub=TelemetryHub([RingBufferSubscriber()]))
    for name, other in (("observability.traced_solve_s", traced),
                        ("observability.hub_solve_s", hub)):
        answer = layers.timed(name, other.solve, Chain(alpha, beta), k)
        if answer.weight != result.weight:
            return RuntimeError(f"{name} disagrees with engine.solve")
    return result.cut_indices, result.weight


# ----------------------------------------------------------------------
# bound_grid
# ----------------------------------------------------------------------
class TimedEngine(PartitionEngine):
    """A serial engine whose plan-routed sweeps are timed from outside.

    ``solve_many`` routes same-chain bandwidth groups to ``solve_sweep``;
    with ``timing`` on, this override times the chain fingerprint, the
    plan-cache lookup (a compile on a miss) and the sweep.  With
    ``timing`` off it is the plain engine.
    """

    def __init__(self, layers):
        super().__init__(max_workers=0)
        self.layers = layers
        self.timing = True

    def solve_sweep(self, chain, bounds, *, return_cuts=False):
        if not self.timing:
            return super().solve_sweep(chain, bounds, return_cuts=return_cuts)
        layers = self.layers
        t0 = time.perf_counter()
        chain.fingerprint()
        t1 = time.perf_counter()
        misses = self.plans.stats.misses
        self.plans.get(chain, metrics=self.metrics, hub=self.hub)
        t2 = time.perf_counter()
        out = super().solve_sweep(chain, bounds, return_cuts=return_cuts)
        t3 = time.perf_counter()
        layers.add("graphs.fingerprint_s", t1 - t0)
        if self.plans.stats.misses > misses:
            layers.add("plan.compile_s", t2 - t1)
            layers.count("plans_compiled", 1)
        else:
            layers.add("plan.solve_bounds_s", t2 - t1)
        layers.add("plan.solve_bounds_s", t3 - t2)
        layers.add("sweep_calls", t3 - t0)
        return out


def _answers(results):
    return [(r.cut_indices, r.weight) if r.ok else RuntimeError(r.error)
            for r in results]


def _plan_counts(layers, engine):
    counter = engine.metrics.counter
    layers.count("plan.structures_built", counter("engine.plan.structures.built").value)
    layers.count("plan.structures_reused", counter("engine.plan.structures.reused").value)
    stats = engine.cache.stats
    layers.count("cache.hits", stats.hits)
    layers.count("cache.interval_hits", stats.interval_hits)
    layers.count("cache.misses", stats.misses)


def bound_grid(run):
    run.start(None if run.trace else startup_argv())
    engine = TimedEngine(run.layers)
    rng = inputs.generator(run.seed, 1)
    chains, grid = inputs.bound_grid(rng)
    queries = []
    plain = []
    for alpha, beta in chains:
        alpha_t, beta_t = tuple(alpha), tuple(beta)
        for k in grid:
            queries.append(PartitionQuery(alpha_t, beta_t, k))
            plain.append((alpha, beta, k))

    # Set-up: the first pass compiles the plans and fills their structure
    # memos, timed one chunk at a time so that its median is steady.
    warm = Segments(run.probe)
    expected = []
    engine.timing = run.trace
    for start in range(0, len(queries), WARMUP_CHUNK):
        chunk = queries[start:start + WARMUP_CHUNK]
        expected.extend(_answers(
            run.traced_segment(_solve_many_on, engine, chunk, segments=warm)))
    for i, (query, answer) in enumerate(zip(plain, expected)):
        _check_chain(run, query, answer, i % REFERENCE_EVERY == 0)
    # Compiles happen only here; every other layer time is per timed pass.
    run.layers.seconds = {"plan.compile_s": run.layers.seconds.get("plan.compile_s", 0.0)}
    run.layers.raw = {}
    run.extra_setup_s = len(warm.walls) * warm.median_adjusted()
    run.lines.append(f"bound_grid warm-up: {len(queries)} queries in "
                     f"{len(warm.walls)} chunks, {run.extra_setup_s:.3f} s adjusted")

    run.end = time.perf_counter() + run.seconds
    passes = 0
    while run.going(passes, COUNT_WINDOW["bound_grid"]):
        orders = [rng.permutation(len(queries)) for _ in range(1 if run.trace else GRID_PASSES)]
        batches = [[queries[i] for i in order] for order in orders]
        if run.trace:
            results = [run.traced_segment(_bound_grid_traced, engine, batches[0], passes)]
        else:
            results = run.segments.time(_grid_passes, engine, batches)
        for order, result in zip(orders, results):
            for got, i in zip(_answers(result), order):
                want = expected[i]
                ok = not isinstance(want, Exception) and got == want
                run.tally.record(ok, f"pass {passes}: answer {i} changed")
            passes += 1
            if run.trace and passes == COUNT_WINDOW["bound_grid"]:
                _plan_counts(run.layers, engine)
    run.per_segment = GRID_PASSES * len(queries)
    run.peak_rss_mb = peak_rss_mb()


def _grid_passes(engine, batches):
    return [engine.solve_many(batch, max_workers=0) for batch in batches]


def _solve_many_on(layers, engine, batch):
    engine.layers = layers
    return engine.solve_many(batch, max_workers=0)


def _bound_grid_traced(layers, engine, batch, passes):
    """Alternate passes: with timing off a pass gives the end-to-end
    time, with timing on the next one gives its layer split."""
    engine.timing = passes % 2 == 1
    t0 = time.perf_counter()
    results = _solve_many_on(layers, engine, batch)
    wall = time.perf_counter() - t0
    if engine.timing:
        layers.add("batch.solve_many_s", wall)
        layers.add("batch.dispatch_s", wall - layers.seconds["sweep_calls"])
        layers.count("layer_queries", len(batch))
    else:
        layers.add("e2e", wall)
        layers.count("e2e_queries", len(batch))
        layers.latencies.extend(r.telemetry["duration_s"] for r in results)
    if passes < COUNT_WINDOW["bound_grid"]:
        layers.count("batch.failures", engine.last_batch_stats.failures)
    return results


# ----------------------------------------------------------------------
# jsonl_mixed
# ----------------------------------------------------------------------
def jsonl_mixed(run):
    run.work.mkdir(parents=True, exist_ok=True)
    empty = run.work / "empty.jsonl"
    empty.write_text("")
    src, dst = run.work / "in.jsonl", run.work / "out.jsonl"
    # Set-up is the CLI on an empty input: start-up, argument parsing and
    # engine construction.  A traced run times one such child next to
    # each invocation instead, so that both see the same host speed.
    run.start(None if run.trace else cli_batch_argv(empty, dst))
    rng = inputs.generator(run.seed, 1)
    rss = []
    replay = Segments(run.probe)
    if run.trace:
        run.startup = Segments(run.probe)
    invocations = 0
    while run.going(invocations, COUNT_WINDOW["jsonl_mixed"]):
        lines, queries = inputs.jsonl_batch(rng)
        run.per_segment = len(lines)
        src.write_text("\n".join(lines) + "\n")
        if dst.exists():
            dst.unlink()
        code, child_rss = run.segments.child(cli_batch_argv(src, dst),
                                             run.work / "batch.log")
        rss.append(child_rss)
        out = dst.read_text() if dst.exists() else ""
        if run.trace:
            run.layers.add("e2e", run.segments.walls[-1], run.segments.factors[-1])
            run.startup.child(cli_batch_argv(empty, run.work / "empty.out"),
                              run.work / "startup.log")
            run.layers.add("cli.startup_s", run.startup.walls[-1], run.startup.factors[-1])
            run.traced_segment(_jsonl_replay, run.tally, src, out, run.work / "replay.jsonl",
                               invocations < COUNT_WINDOW["jsonl_mixed"], segments=replay)
        expected_code = 1 if any(q[2] < max(q[0]) for q in queries) else 0
        out_lines = out.splitlines()
        if code != expected_code or len(out_lines) != len(queries):
            for _ in queries:
                run.tally.record(False, f"repro batch exited {code} "
                                        f"with {len(out_lines)} lines")
        else:
            for i, (query, line) in enumerate(zip(queries, out_lines)):
                run.tally.record(*checks.jsonl_line(i, query, line, reference=True))
        invocations += 1
    run.peak_rss_mb = max(rss)


def _jsonl_replay(layers, tally, src, cli_output, dst, counting):
    """Replay one ``repro batch`` invocation in-process, stage by stage,
    and compare its output with the child's byte for byte."""
    text = src.read_text()
    t0 = time.perf_counter()
    queries = [PartitionQuery.from_json(line) for line in text.splitlines()
               if line.strip()]
    t1 = time.perf_counter()
    engine = TimedEngine(layers)
    results = engine.solve_many(queries, max_workers=0)
    t2 = time.perf_counter()
    payload = "\n".join(r.to_json() for r in results) + "\n"
    dst.write_text(payload)
    t3 = time.perf_counter()
    layers.add("json.decode_s", t1 - t0)
    layers.add("batch.solve_many_s", t2 - t1)
    layers.add("batch.dispatch_s", (t2 - t1) - layers.seconds.get("sweep_calls", 0.0))
    layers.add("json.encode_s", t3 - t2)
    layers.latencies.extend(r.telemetry["duration_s"] for r in results)
    layers.count("e2e_queries", len(queries))
    if counting:
        layers.count("json.bytes_in", len(text.encode()))
        layers.count("json.bytes_out", len(payload.encode()))
        layers.count("batch.failures", engine.last_batch_stats.failures)
        _plan_counts(layers, engine)
    if cli_output != payload:
        tally.failed += 1
        tally.messages.append("in-process replay differs from repro batch output")


# ----------------------------------------------------------------------
# tree_partition
# ----------------------------------------------------------------------
def _tree_segment(trees):
    out = []
    for tree, k in trees:
        try:
            out.append(partition_tree(tree, k))
        except Exception as exc:  # an unexpected error is a failed operation
            out.append(exc)
    return out


def _tree_traced_segment(layers, trees, done):
    """Each tree through partition_tree, then Algorithm 2.1, contraction
    and Algorithm 2.2 replayed one public call per layer."""
    plans = []
    for tree, k in trees:
        t0 = time.perf_counter()
        plan = _tree_segment([(tree, k)])[0]
        wall = time.perf_counter() - t0
        plans.append(plan)
        layers.add("e2e", wall)
        layers.latencies.append(wall)
        if isinstance(plan, Exception):
            continue
        first = layers.timed("core.bottleneck_min_s", bottleneck_min, tree, k)
        final = set()
        if first.cut_edges:
            super_tree, _, origin = layers.timed(
                "graphs.tree_contract_s", tree.contract_components, set(first.cut_edges))
            refined = layers.timed("core.processor_min_s", processor_min, super_tree, k)
            final = {origin[e] for e in refined.cut_edges}
        if final != plan.final_cut:
            plans[-1] = RuntimeError("layer replay disagrees with partition_tree")
        elif done + len(plans) <= COUNT_WINDOW["tree_partition"]:
            layers.count("core.cut_edges", len(final))
    return plans


def tree_partition(run):
    run.start(None if run.trace else startup_argv())
    rng = inputs.generator(run.seed, 1)
    done = 0
    while run.going(done, COUNT_WINDOW["tree_partition"]):
        trees = [(Tree(weights, edges, edge_weights), k)
                 for weights, edges, edge_weights, k in inputs.trees(rng, 2)]
        if run.trace:
            plans = run.traced_segment(_tree_traced_segment, trees, done)
        else:
            plans = run.segments.time(_tree_segment, trees)
        for (tree, k), plan in zip(trees, plans):
            if isinstance(plan, Exception):
                run.tally.record(False, f"tree K={k!r}: {plan!r}")
            else:
                run.tally.record(*checks.tree_answer(tree, k, plan.final_cut,
                                                     plan.bottleneck))
        done += len(trees)
    run.per_segment = TREE_SEGMENT
    run.peak_rss_mb = peak_rss_mb()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
WORKLOADS = {
    "cold_solve": cold_solve,
    "bound_grid": bound_grid,
    "jsonl_mixed": jsonl_mixed,
    "tree_partition": tree_partition,
}


def execute(workload, seed, seconds, trace):
    """Run one workload; returns the finished :class:`Run`."""
    run = Run(workload, seed, seconds, trace)
    try:
        WORKLOADS[workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return run


def end_to_end(run):
    """``queries_per_s`` and ``setup_s`` at reference speed, ``peak_rss_mb``."""
    segments, startup = run.segments, run.startup
    run.lines.append(
        f"{run.workload}: {len(segments.walls)} segments of {run.per_segment} "
        f"queries; raw {run.per_segment / segments.median_raw():.3f} q/s, raw "
        f"start-up {startup.median_raw():.4f} s; speed factor "
        f"{segments.speed_factor():.4f} (start-up {startup.speed_factor():.4f}); "
        f"probe spread {run.probe.spread():.3f}"
    )
    return {
        "queries_per_s": (run.per_segment / segments.median_adjusted(), "q/s"),
        "setup_s": (startup.median_adjusted() + run.extra_setup_s, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }


def per_layer(run):
    """Every :data:`PER_LAYER` metric of a traced run."""
    layers = run.layers
    seconds, counts = layers.seconds, layers.counts
    e2e_queries = counts.get("e2e_queries", len(layers.latencies))
    layer_queries = counts.get("layer_queries", e2e_queries)
    out = {name: 0.0 for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit == "s/q" and name in seconds:
            out[name] = seconds[name] / layer_queries
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    lookups = out["cache.hits"] + out["cache.interval_hits"] + out["cache.misses"]
    out["cache.hit_rate"] = (out["cache.hits"] + out["cache.interval_hits"]) / lookups if lookups else 0.0
    built = out["plan.structures_built"] + out["plan.structures_reused"]
    out["plan.reuse_rate"] = out["plan.structures_reused"] / built if built else 0.0
    if counts.get("plans_compiled"):
        out["plan.compile_s"] = seconds["plan.compile_s"] / counts["plans_compiled"]
    if run.startup is not None:
        out["cli.startup_s"] = run.startup.median_adjusted()
    if out["cache.solve_s"]:
        out["observability.overhead_ratio"] = (
            out["observability.traced_solve_s"] + out["observability.hub_solve_s"]
        ) / (2.0 * out["cache.solve_s"])
    out["latency.p50_ms"] = percentile(layers.latencies, 0.50) * 1e3
    out["latency.p95_ms"] = percentile(layers.latencies, 0.95) * 1e3
    # The residual compares raw times: in jsonl_mixed the child processes
    # and the in-process replay are scaled by different probes.
    e2e = layers.raw.get("e2e", 0.0) / e2e_queries
    leaves = sum(layers.raw.get(name, 0.0) for name in LEAVES[run.workload]) / layer_queries
    out["bench.raw_queries_per_s"] = 1.0 / e2e if e2e else 0.0
    out["bench.speed_factor"] = run.segments.speed_factor()
    out["bench.probe_spread"] = run.probe.spread()
    out["bench.unattributed_share"] = (e2e - leaves) / e2e if e2e else 0.0
    for name in LEAVES[run.workload]:
        run.lines.append(f"  self {name}: {layers.raw.get(name, 0.0) / layer_queries * 1e3:.4f} ms/q raw")
    run.lines.append(f"  traced end-to-end {e2e * 1e3:.4f} ms/q raw; unattributed "
                     f"{out['bench.unattributed_share']:+.4f} (bound {UNATTRIBUTED_BOUND})")
    return {name: (value, PER_LAYER[name]) for name, value in out.items()}
