"""Unit tests for the batched query runner and the ``repro batch`` CLI."""

import json
import random

import pytest

from repro.cli import main
from repro.core.bandwidth import bandwidth_min
from repro.core.bicriteria import lexicographic_chain_partition
from repro.core.feasibility import OptimumOverflowError, PartitioningError
from repro.core.inverse import chain_pareto_frontier, partition_chain_for_processors
from repro.core.pipeline import partition_chain
from repro.engine import OBJECTIVES, PartitionEngine, PartitionQuery, native
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain
from repro.observability import RingBufferSubscriber, TelemetryHub


def make_queries(num=12, seed=100):
    queries = []
    for i in range(num):
        chain = random_chain(20 + 5 * i, rng=seed + i)
        bound = (1.5 + 0.5 * (i % 4)) * chain.max_vertex_weight()
        queries.append(
            PartitionQuery.from_chain(chain, bound, tag=f"q{i}")
        )
    return queries


class TestSolve:
    def test_bandwidth_matches_reference(self):
        engine = PartitionEngine()
        chain = random_chain(80, rng=1)
        bound = 2.0 * chain.max_vertex_weight()
        got = engine.solve(chain, bound)
        ref = bandwidth_min(chain, bound)
        assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)

    def test_other_objectives_delegate(self):
        engine = PartitionEngine()
        chain = random_chain(30, rng=2)
        bound = 2.0 * chain.max_vertex_weight()
        for objective in OBJECTIVES:
            got = engine.solve(chain, bound, objective)
            ref = partition_chain(chain, bound, objective)
            assert got.cut_indices == ref.cut_indices

    def test_unknown_objective(self):
        engine = PartitionEngine()
        chain = random_chain(10, rng=3)
        with pytest.raises(ValueError):
            engine.solve(chain, 100.0, "makespan")


def lexicographic_cases():
    """Seeded ``(alpha, beta, bound)`` cases for ``bottleneck+bandwidth``:
    integer, half-integer, tenth and uniform weights, n = 1 and 2,
    all-equal weights, K = max weight and K >= total weight."""
    rng = random.Random(32)
    draws = {
        "integer": lambda: float(rng.randint(1, 9)),
        "half": lambda: rng.randint(1, 18) / 2,
        "tenth": lambda: rng.randint(1, 40) / 10,
        "uniform": lambda: rng.uniform(0.1, 5.0),
    }
    cases = []
    for draw in draws.values():
        for n in (1, 2, 3, 6, 12, 25):
            for equal in (False, True):
                alpha = [draw() for _ in range(n)]
                beta = [draw() for _ in range(n - 1)]
                if equal:
                    alpha, beta = [alpha[0]] * n, [alpha[0]] * (n - 1)
                top, total = max(alpha), sum(alpha)
                for bound in (top, 1.5 * top, top + 0.1, 2.5 * top, total, 2 * total):
                    cases.append((alpha, beta, bound))
    # ROADMAP item 1's repro: B* keeps edges 0 and 1 cuttable, and every
    # cut through them leaves a last block that the prefix difference
    # puts over K, so both routes report an overflowing optimum.
    cases.append(([2.6, 0.6, 0.6, 2.0], [0.0, 0.0, 9.0], 2.6))
    return cases


def outcome(solve):
    """``(cut, weight.hex())``, or ``(error type, message)``."""
    try:
        result = solve()
    except (PartitioningError, ValueError) as exc:
        return type(exc), str(exc)
    return list(result.cut_indices), result.weight.hex()


@pytest.fixture(params=["native", "numpy"])
def kernel_route(request, monkeypatch):
    """The engine's structure build on ``_sweep.c`` (where it loads) or
    on the NumPy fallback."""
    if request.param == "numpy":
        pytest.importorskip("numpy")
        monkeypatch.setattr(native, "load_sweep", lambda: None)
    return request.param


class TestLexicographic:
    """``bottleneck+bandwidth`` on the engine's structure build answers
    as the reference :func:`lexicographic_chain_partition` does."""

    def test_solve_matches_reference(self, kernel_route):
        engine = PartitionEngine()
        for alpha, beta, bound in lexicographic_cases():
            chain = Chain(alpha, beta)
            want = outcome(lambda: lexicographic_chain_partition(chain, bound).cut)
            got = outcome(lambda: engine.solve(chain, bound, "bottleneck+bandwidth"))
            assert got == want, (alpha, beta, bound)

    def test_batch_matches_reference(self, kernel_route):
        cases = lexicographic_cases()
        queries = [
            PartitionQuery(tuple(alpha), tuple(beta), bound, "bottleneck+bandwidth")
            for alpha, beta, bound in cases
        ]
        results = PartitionEngine().solve_many(queries)
        for (alpha, beta, bound), result in zip(cases, results):
            want = outcome(
                lambda: lexicographic_chain_partition(Chain(alpha, beta), bound).cut
            )
            if isinstance(want[0], type):
                assert result.error == want[1], (alpha, beta, bound)
            else:
                got = (result.cut_indices, result.weight.hex())
                assert result.error is None and got == want, (alpha, beta, bound)

    def test_forbidden_edge_overflow_is_pinned(self, kernel_route):
        chain = Chain([2.6, 0.6, 0.6, 2.0], [0, 0, 9])
        with pytest.raises(OptimumOverflowError):
            lexicographic_chain_partition(chain, 2.6)
        with pytest.raises(OptimumOverflowError):
            PartitionEngine().solve(chain, 2.6, "bottleneck+bandwidth")


class TestSolveMany:
    def test_serial_results_in_order(self):
        engine = PartitionEngine()
        queries = make_queries()
        results = engine.solve_many(queries)
        assert [r.index for r in results] == list(range(len(queries)))
        assert [r.tag for r in results] == [q.tag for q in queries]
        for query, result in zip(queries, results):
            ref = bandwidth_min(query.chain(), query.bound)
            assert result.ok
            assert (result.cut_indices, result.weight) == (
                ref.cut_indices,
                ref.weight,
            )

    def test_parallel_matches_serial(self):
        engine = PartitionEngine()
        queries = make_queries()
        serial = engine.solve_many(queries, max_workers=0)
        parallel = engine.solve_many(queries, max_workers=2)
        assert [r.index for r in parallel] == list(range(len(queries)))
        assert [
            (r.cut_indices, r.weight, r.num_components) for r in parallel
        ] == [(r.cut_indices, r.weight, r.num_components) for r in serial]

    def test_errors_are_per_query(self):
        engine = PartitionEngine()
        chain = random_chain(10, rng=5)
        good = PartitionQuery.from_chain(
            chain, 2.0 * chain.max_vertex_weight(), tag="good"
        )
        bad = PartitionQuery.from_chain(
            chain, 0.1 * chain.max_vertex_weight(), tag="bad"
        )
        results = engine.solve_many([good, bad, good])
        assert [r.ok for r in results] == [True, False, True]
        assert "below the maximum vertex weight" in results[1].error

    def test_jsonl_round_trip(self):
        engine = PartitionEngine()
        queries = make_queries(num=4)
        lines = [
            json.dumps(
                {
                    "alpha": list(q.alpha),
                    "beta": list(q.beta),
                    "bound": q.bound,
                    "tag": q.tag,
                }
            )
            for q in queries
        ]
        results = engine.solve_jsonl(lines)
        direct = engine.solve_many(queries)
        assert [r.to_json() for r in results] == [r.to_json() for r in direct]


class TestBatchCli:
    def test_batch_subcommand(self, tmp_path, capsys):
        chain = random_chain(15, rng=6)
        records = [
            {
                "alpha": list(chain.alpha),
                "beta": list(chain.beta),
                "bound": 2.0 * chain.max_vertex_weight(),
                "tag": "ok",
            },
            {
                "alpha": [5.0, 1.0],
                "beta": [2.0],
                "bound": 0.5,
                "tag": "infeasible",
            },
        ]
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(
            ["batch", "--input", str(inp), "--output", str(out)]
        )
        assert code == 1  # one failed query
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["tag"] for row in rows] == ["ok", "infeasible"]
        assert rows[0]["weight"] == pytest.approx(
            bandwidth_min(chain, records[0]["bound"]).weight
        )
        assert "error" in rows[1]

    def test_batch_pool_matches_serial(self, tmp_path):
        chains = [random_chain(20, rng=61 + c) for c in range(2)]
        records = [
            {
                "alpha": list(chain.alpha),
                "beta": list(chain.beta),
                "bound": (1.5 + 0.5 * i) * chain.max_vertex_weight(),
                "tag": f"s{i}",
            }
            for i in range(4)
            for chain in chains
        ]
        inp = tmp_path / "queries.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        serial_out = tmp_path / "serial.jsonl"
        pool_out = tmp_path / "pool.jsonl"
        assert main(["batch", "--input", str(inp), "--output", str(serial_out)]) == 0
        assert main(
            ["batch", "--workers", "2", "--input", str(inp),
             "--output", str(pool_out)]
        ) == 0
        assert pool_out.read_text() == serial_out.read_text()

    def test_batch_all_ok_exit_zero(self, tmp_path):
        inp = tmp_path / "q.jsonl"
        out = tmp_path / "r.jsonl"
        inp.write_text(
            json.dumps({"alpha": [1, 1, 1], "beta": [1, 1], "bound": 2}) + "\n"
        )
        assert main(["batch", "--input", str(inp), "--output", str(out)]) == 0


class TestPlanGrouping:
    """solve_many's fingerprint grouping through compiled plans."""

    def make_grouped_queries(self, num=12, chains=3, seed=200):
        queries = []
        pool = [random_chain(25 + 10 * c, rng=seed + c) for c in range(chains)]
        for i in range(num):
            chain = pool[i % chains]
            bound = (1.2 + 0.4 * (i % 5)) * chain.max_vertex_weight()
            queries.append(PartitionQuery.from_chain(chain, bound, tag=f"g{i}"))
        return queries

    def per_call(self, queries):
        """Each query through its own fresh engine's ``solve``."""
        rows = []
        for q in queries:
            try:
                result = PartitionEngine().solve(q.chain(), q.bound, q.objective)
            except (ValueError, PartitioningError) as exc:
                rows.append((q.tag, str(exc)))
            else:
                rows.append((q.tag, result.cut_indices, result.weight))
        return rows

    def routed_rows(self, results):
        return [
            (r.tag, r.cut_indices, r.weight) if r.ok else (r.tag, r.error)
            for r in results
        ]

    def test_serial_plan_routing_matches_per_call(self):
        queries = self.make_grouped_queries()
        engine = PartitionEngine()
        routed = engine.solve_many(queries, max_workers=0)
        # One plan call per chain answers all of its bounds.
        assert engine.metrics.counter("engine.plan.sweeps").value == 3
        assert engine.metrics.counter("engine.plan.queries").value == 12
        assert self.routed_rows(routed) == self.per_call(queries)

    def test_plan_routing_shares_one_plan_per_chain(self):
        engine = PartitionEngine()
        engine.solve_many(self.make_grouped_queries(chains=3), max_workers=0)
        assert len(engine.plans) == 3
        assert engine.plans.stats.misses == 3

    def test_mixed_feasibility_and_objectives(self):
        chain = random_chain(20, rng=210)
        wmax = chain.max_vertex_weight()
        queries = [
            PartitionQuery.from_chain(chain, 2.0 * wmax, tag="ok-1"),
            PartitionQuery.from_chain(chain, 0.5 * wmax, tag="infeasible"),
            PartitionQuery.from_chain(
                chain, 2.0 * wmax, objective="processors", tag="procs"
            ),
            PartitionQuery.from_chain(chain, 3.0 * wmax, tag="ok-2"),
        ]
        routed = PartitionEngine().solve_many(queries, max_workers=0)
        assert [r.ok for r in routed] == [True, False, True, True]
        assert self.routed_rows(routed) == self.per_call(queries)

    def test_pool_grouping_preserves_input_order(self):
        # The pool gets one task per chain, so one worker answers all of
        # a chain's queries; results must still come home in input order.
        queries = self.make_grouped_queries(num=9, chains=3)
        parallel = PartitionEngine().solve_many(queries, max_workers=2)
        serial = PartitionEngine().solve_many(queries, max_workers=0)
        assert [r.index for r in parallel] == list(range(len(queries)))
        assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]

    def test_single_query_groups_stay_on_per_call_path(self):
        engine = PartitionEngine()
        chain = random_chain(18, rng=220)
        one = [PartitionQuery.from_chain(chain, 2.0 * chain.max_vertex_weight())]
        results = engine.solve_many(one, max_workers=0)
        assert results[0].ok
        # One one-bound plan call, exactly what engine.solve makes.
        assert engine.metrics.counter("engine.plan.sweeps").value == 1
        assert engine.metrics.counter("engine.plan.queries").value == 1
        assert len(engine.plans) == 1


def traced_batch(queries, workers):
    """A traced ``solve_many``: its results, last batch stats and the
    records its hub saw."""
    from repro.observability import Tracer

    ring = RingBufferSubscriber()
    engine = PartitionEngine(tracer=Tracer(), hub=TelemetryHub([ring]))
    results = engine.solve_many(queries, max_workers=workers)
    return results, engine.last_batch_stats, ring.events()


def spans(records):
    return [r for r in records if r["kind"] == "span"]


class TestBatchTelemetry:
    def test_last_batch_stats_aggregates_serial(self):
        results, batch, records = traced_batch(make_queries(num=6), 0)
        assert batch is not None
        assert batch.queries == 6
        assert batch.failures == 0
        latency = batch.metrics.histogram("engine.batch.query_latency_s")
        assert latency.count == 6
        assert batch.wall_s > 0.0
        # One chain group per query here, its spans in group order.
        groups = [r for r in spans(records) if r["path"] == "chain_group"]
        assert [g["attrs"]["indices"] for g in groups] == [[i] for i in range(6)]
        # The span op-counts and the batch's fold agree.
        sweeps = [r for r in spans(records)
                  if r["path"] == "chain_group/plan_solve_bounds"]
        assert sum(r["counts"]["cache_misses"] for r in sweeps) == 6
        assert batch.metrics.counter("engine.plan.cache.misses").value == 6
        assert all(r.ok for r in results)

    def test_parallel_aggregation_matches_serial_counts(self):
        queries = make_queries(num=8)
        _, a, serial = traced_batch(queries, 0)
        _, b, parallel = traced_batch(queries, 2)
        assert b.workers == 2
        # Deterministic quantities agree across execution modes.
        assert (a.queries, a.failures) == (b.queries, b.failures)
        def counters(batch):
            return {name: c.value for name, c in batch.metrics.counters.items()}

        assert counters(a) == counters(b)
        assert [(r["path"], r["attrs"].get("indices")) for r in spans(serial)] == [
            (r["path"], r["attrs"].get("indices")) for r in spans(parallel)
        ]

    def test_pooled_cache_events_do_not_depend_on_scheduling(self):
        # Six groups on two workers: some worker runs at least two, and
        # each group's cache event must still read its own compile only.
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        engine.solve_many(make_queries(num=6), max_workers=2)
        caches = [e for e in ring.events() if e["event"] == "cache"]
        assert [(e["hits"], e["misses"], e["plans"]) for e in caches] == [
            (0, 1, 1)] * 6

    def test_failures_counted(self):
        from repro.observability import Tracer

        engine = PartitionEngine(tracer=Tracer())
        chain = random_chain(10, rng=21)
        good = PartitionQuery.from_chain(
            chain, 2.0 * chain.max_vertex_weight()
        )
        bad = PartitionQuery.from_chain(
            chain, 0.1 * chain.max_vertex_weight()
        )
        engine.solve_many([good, bad])
        batch = engine.last_batch_stats
        assert (batch.queries, batch.failures) == (2, 1)

    def test_traced_results_identical_to_untraced(self):
        from repro.observability import Tracer

        queries = make_queries(num=5)
        plain = PartitionEngine().solve_many(queries)
        traced = PartitionEngine(tracer=Tracer()).solve_many(queries)
        assert [
            (r.cut_indices, r.weight, r.num_components) for r in traced
        ] == [(r.cut_indices, r.weight, r.num_components) for r in plain]
        # Telemetry rides on the result object but stays off the wire.
        assert [r.to_json() for r in traced] == [r.to_json() for r in plain]
        assert all(set(r.telemetry) == {"duration_s"} for r in traced + plain)

    def test_untraced_engine_records_no_batch_stats(self):
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        engine.solve_many(make_queries(num=3))
        batch = engine.last_batch_stats
        assert batch is not None
        assert batch.queries == 3
        assert spans(ring.events()) == []  # no spans without a tracer

    def test_snapshot_metrics_mirrors_cache_and_batch(self):
        from repro.observability import Tracer

        engine = PartitionEngine(tracer=Tracer())
        engine.solve_many(make_queries(num=4), max_workers=0)
        metrics = engine.metrics
        names = {r["name"] for r in metrics.records()}
        assert "engine.batch.queries" in names
        # Four distinct chains: four compiles, counted under one name.
        assert metrics.counter("engine.plan.cache.misses").value == 4
        assert "engine.batch.cache_misses" not in names
        assert "engine.cache.hits" not in names  # one cache, one name set
        assert "engine.batch.query_latency_s" in names
        assert metrics.counter("engine.batch.queries").value == 4

    def test_engine_solve_traced(self):
        from repro.observability import Tracer

        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        chain = random_chain(60, rng=22)
        bound = 2.0 * chain.max_vertex_weight()
        got = engine.solve(chain, bound)
        assert got.weight == bandwidth_min(chain, bound).weight
        span = tracer.find("engine_solve")
        assert span is not None
        assert span.attrs["n"] == 60
        assert tracer.find("plan_solve_bounds") is not None


class TestOneBatchPath:
    """Serial and pooled batches answer every chain group the same way."""

    def queries(self):
        chains = [random_chain(18 + 6 * c, rng=300 + c) for c in range(3)]
        out = []
        for c, chain in enumerate(chains):
            wmax = chain.max_vertex_weight()
            for objective in OBJECTIVES:
                out.append(PartitionQuery.from_chain(
                    chain, 2.0 * wmax, objective, tag=f"c{c}-{objective}"))
            out.append(PartitionQuery.from_chain(chain, 3.0 * wmax, tag=f"c{c}-3"))
            # A repeated bound and an infeasible one.
            out.append(PartitionQuery.from_chain(chain, 2.0 * wmax, tag=f"c{c}-again"))
            out.append(PartitionQuery.from_chain(chain, 0.5 * wmax, tag=f"c{c}-low"))
        return out

    @staticmethod
    def counters(engine):
        return {
            name: counter.value
            for name, counter in engine.metrics.counters.items()
            if name.startswith(("engine.plan.", "engine.batch."))
        }

    def test_serial_and_pool_make_the_same_calls(self):
        queries = self.queries()
        serial, pooled = PartitionEngine(), PartitionEngine()
        a = serial.solve_many(queries, max_workers=0)
        b = pooled.solve_many(queries, max_workers=2)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]
        assert [r.ok for r in a].count(False) == 3
        assert self.counters(serial) == self.counters(pooled)
        # One plan call per chain for its feasible bandwidth bounds.
        assert serial.metrics.counter("engine.plan.sweeps").value == 3
        assert serial.metrics.counter("engine.plan.queries").value == 9
        assert serial.last_batch_stats.cache_hit_rate == (
            pooled.last_batch_stats.cache_hit_rate)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_traced_batch_makes_the_untraced_calls(self, workers):
        # Tracing observes the batch; it does not change its route.
        queries = self.queries()
        ring = RingBufferSubscriber()
        plain = PartitionEngine(hub=TelemetryHub([ring]))
        want = plain.solve_many(queries, max_workers=workers)
        got, _, records = traced_batch(queries, workers)
        assert [r.to_json() for r in got] == [r.to_json() for r in want]

        def facts(events):
            return [{k: v for k, v in e.items() if k != "t"} for e in events
                    if e.get("event") in ("plan", "cache")]

        assert facts(records) == facts(ring.events())
        assert sum(1 for e in records if e.get("event") == "plan") == 3

    def test_traced_span_paths_agree_serial_and_pooled(self):
        queries = self.queries()
        paths = []
        for workers in (0, 2):
            records = spans(traced_batch(queries, workers)[2])
            paths.append([(r["path"], r["attrs"].get("indices"))
                          for r in records])
        assert paths[0] == paths[1]
        groups = [indices for path, indices in paths[0] if path == "chain_group"]
        assert groups == [list(range(c * 8, c * 8 + 8)) for c in range(3)]
        # Each group: one compile, its sweep, and one-bound calls for
        # the bandwidth queries the sweep could not take.
        assert [path for path, _ in paths[0][:4]] == [
            "chain_group", "chain_group/plan_compile",
            "chain_group/plan_solve_bounds", "chain_group/plan_solve_bounds",
        ]


def content_groups(queries):
    """The chain groups of a batch, keyed on tuple content alone: one
    ``setdefault`` per query, the grouping ``solve_many`` must match."""
    groups = {}
    for index, q in enumerate(queries):
        groups.setdefault((q.alpha, q.beta), []).append(
            (index, q.bound, q.objective, q.tag))
    return [(alpha, beta, members, False)
            for (alpha, beta), members in groups.items()]


def copied(query):
    """``query`` with fresh copies of its weight tuples (``tuple()`` of
    a tuple returns the tuple itself)."""
    return PartitionQuery(tuple(list(query.alpha)), tuple(list(query.beta)),
                          query.bound, query.objective, query.tag)


def stable(events):
    """Hub events without their wall-clock fields."""
    timed = {"t", "duration_s", "wall_s", "latency"}
    return [{k: v for k, v in e.items() if k not in timed} for e in events]


class TestTupleGrouping:
    """solve_many groups by tuple identity, then by content: the same
    groups, in the same order, as grouping on content alone."""

    def shared(self, chain, bounds, prefix):
        """Bandwidth queries on ``chain`` sharing one tuple pair."""
        alpha, beta = tuple(chain.alpha), tuple(chain.beta)
        return [PartitionQuery(alpha, beta, k, tag=f"{prefix}{i}")
                for i, k in enumerate(bounds)]

    def test_shared_pair_is_one_group(self):
        ring = RingBufferSubscriber()
        engine = PartitionEngine(hub=TelemetryHub([ring]))
        chains = [random_chain(30 + c, rng=400 + c) for c in range(2)]
        queries = []
        for c, chain in enumerate(chains):
            wmax = chain.max_vertex_weight()
            queries += self.shared(chain, [f * wmax for f in (1.5, 2.0, 3.0)],
                                   prefix=f"c{c}-")
        results = engine.solve_many(queries, max_workers=0)
        assert all(r.ok for r in results)
        plans = [e for e in ring.events() if e["event"] == "plan"]
        assert [e["queries"] for e in plans] == [3, 3]
        assert engine.metrics.counter("engine.plan.sweeps").value == 2

    def test_equal_copies_join_the_first_group(self, monkeypatch):
        a, b = random_chain(24, rng=410), random_chain(26, rng=411)
        first = self.shared(a, [2.0 * a.max_vertex_weight()], prefix="a")
        other = self.shared(b, [2.0 * b.max_vertex_weight()], prefix="b")
        again = self.shared(a, [3.0 * a.max_vertex_weight()], prefix="a2-")
        assert again[0].alpha is not first[0].alpha
        queries = first + other + again
        tasks = []
        solve_group = PartitionEngine._solve_group

        def recording(engine, task):
            tasks.append(task)
            return solve_group(engine, task)

        monkeypatch.setattr(PartitionEngine, "_solve_group", recording)
        PartitionEngine().solve_many(queries, max_workers=0)
        assert [[m[0] for m in members] for _, _, members, _ in tasks] == [
            [0, 2], [1]]
        assert tasks == content_groups(queries)
        assert tasks[0][0] is first[0].alpha

    def test_generator_of_short_lived_tuples(self):
        # Each query's tuples are fresh and unreferenced once the next
        # query is drawn.  CPython keeps freed tuples of under 20 items
        # for reuse, so with chains A, A, B, B, ... the second B gets
        # the second A's ids unless the batch keeps the tuples alive.
        chains = [random_chain(12, rng=420), random_chain(12, rng=421)]
        bounds = [(1.5 + 0.5 * i) * max(c.max_vertex_weight() for c in chains)
                  for i in range(4)]

        def stream():
            for i in range(8):
                chain = chains[i // 2 % 2]
                yield PartitionQuery(tuple(chain.alpha), tuple(chain.beta),
                                     bounds[i % 4], tag=str(i))

        engine = PartitionEngine()
        results = engine.solve_many(stream(), max_workers=0)
        assert engine.metrics.counter("engine.plan.sweeps").value == 2
        for i, result in enumerate(results):
            ref = bandwidth_min(chains[i // 2 % 2], bounds[i % 4])
            assert (result.tag, result.cut_indices, result.weight) == (
                str(i), ref.cut_indices, ref.weight)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_mixed_batch_matches_content_grouping(self, workers):
        chains = [random_chain(20 + 4 * c, rng=430 + c) for c in range(3)]
        queries = []
        for c, chain in enumerate(chains):
            alpha, beta = tuple(chain.alpha), tuple(chain.beta)
            wmax = chain.max_vertex_weight()
            for objective in OBJECTIVES:
                for k in (2.0 * wmax, 3.0 * wmax, 0.5 * wmax):
                    queries.append(PartitionQuery(alpha, beta, k, objective,
                                                  f"c{c}-{objective}-{k}"))
        # Every other query carries its own copies; the rest share one
        # pair per chain.  Chains interleave in a fixed shuffle.
        queries = [copied(q) if i % 2 else q for i, q in enumerate(queries)]
        queries = [queries[(7 * i) % len(queries)] for i in range(len(queries))]

        def run(batch):
            ring = RingBufferSubscriber()
            engine = PartitionEngine(hub=TelemetryHub([ring]))
            results = engine.solve_many(batch, max_workers=workers)
            return [r.to_json() for r in results], stable(ring.events())

        # With every query on its own copies no two share an id, so the
        # reference batch is grouped on content alone.
        reference = run([copied(q) for q in queries])
        assert run(queries) == reference
        plans = [e["queries"] for e in reference[1] if e["event"] == "plan"]
        assert plans == [2, 2, 2]


class TestInverseWiring:
    def test_chain_pareto_frontier(self):
        chain = random_chain(50, rng=8)
        rows = chain_pareto_frontier(chain, 5)
        assert [row["processors"] for row in rows] == [1, 2, 3, 4, 5]
        # Bounds tighten as the budget grows; bandwidth can only rise.
        bounds = [row["bound"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)
        for row in rows:
            plan = partition_chain_for_processors(chain, row["processors"])
            assert row["bound"] == plan.bound
            assert row["bandwidth"] == plan.bandwidth_cut.weight
