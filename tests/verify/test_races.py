"""Tests for :mod:`repro.verify.races`: the dynamic race hammer.

Two layers: harness mechanics (deterministic op streams, exception
propagation, a *guaranteed* lost-update detection via a barrier-forced
interleaving), and the acceptance runs — 8 threads hammering the
declared shared-state objects with certificate-checked end
states.  The acceptance runs are the dynamic complement of the static
REPRO013 pass: they prove the declared locks actually close the races.
"""

import random
import threading

import pytest

from repro.verify.races import (
    ConcurrencyHarness,
    RaceConditionError,
    hammer_all,
    hammer_histogram,
    hammer_metrics_registry,
    hammer_plan_cache,
    hammer_engine_solve,
    hammer_streaming_sink,
    hammer_telemetry_hub,
)

ACCEPTANCE = ConcurrencyHarness(threads=8, ops_per_thread=100, seed=20260808)


class TestHarness:
    def test_total_ops(self):
        assert ConcurrencyHarness(threads=4, ops_per_thread=25).total_ops == 100

    def test_needs_two_threads(self):
        with pytest.raises(ValueError):
            ConcurrencyHarness(threads=1)
        with pytest.raises(ValueError):
            ConcurrencyHarness(ops_per_thread=0)

    def test_op_streams_are_deterministic(self):
        def draws(seed):
            out = {}
            harness = ConcurrencyHarness(threads=3, ops_per_thread=10, seed=seed)
            lock = threading.Lock()

            def op(tid, i, rng):
                with lock:
                    out.setdefault(tid, []).append(rng.randrange(1000))

            harness.run(op)
            return out

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_op_exception_propagates(self):
        harness = ConcurrencyHarness(threads=2, ops_per_thread=1)

        def op(tid, i, rng):
            raise ValueError(f"boom from {tid}")

        with pytest.raises(RaceConditionError, match="boom"):
            harness.run(op)

    def test_switch_interval_restored(self):
        import sys

        before = sys.getswitchinterval()
        harness = ConcurrencyHarness(threads=2, ops_per_thread=1)
        harness.run(lambda tid, i, rng: None)
        assert sys.getswitchinterval() == before

    def test_detects_forced_lost_update(self):
        """A barrier-forced read-modify-write interleaving must be caught.

        Both threads read the counter, rendezvous, then write back
        ``read + 1`` — a guaranteed (not probabilistic) lost update, so
        the end-state audit deterministically fires.
        """
        harness = ConcurrencyHarness(threads=2, ops_per_thread=1)
        rendezvous = threading.Barrier(2)
        state = {"count": 0}

        def op(tid, i, rng):
            snapshot = state["count"]
            rendezvous.wait()
            state["count"] = snapshot + 1

        harness.run(op)
        assert state["count"] == 1  # one update lost, by construction
        with pytest.raises(RaceConditionError):
            if state["count"] != harness.total_ops:
                raise RaceConditionError("lost update")


class TestAcceptanceHammers:
    """The 8-thread acceptance runs from the issue, one per shared object."""

    def test_engine_solve(self):
        summary = hammer_engine_solve(ACCEPTANCE)
        assert summary["ops"] == 800

    def test_plan_cache(self):
        summary = hammer_plan_cache(ACCEPTANCE)
        assert summary["ops"] == 800
        assert summary["plans_validated"] >= 1

    def test_telemetry_hub(self):
        summary = hammer_telemetry_hub(ACCEPTANCE)
        assert summary["events"] == 800
        assert summary["errors"] == 0

    def test_metrics_registry(self):
        summary = hammer_metrics_registry(ACCEPTANCE)
        assert summary["histogram_count"] == 800

    def test_histogram_spill(self):
        summary = hammer_histogram(ACCEPTANCE)
        assert summary["bucket_mass"] == 800

    def test_streaming_sink(self, tmp_path):
        # Satellite: concurrent writers, no mid-record interleaving, and
        # the resumed file still parses with exactly one header.
        summary = hammer_streaming_sink(ACCEPTANCE, str(tmp_path / "race.jsonl"))
        assert summary["headers"] == 1
        assert summary["lines"] == 2 * 800 + 1

    def test_hammer_all_covers_every_scenario(self, tmp_path):
        small = ConcurrencyHarness(threads=4, ops_per_thread=150, seed=3)
        results = hammer_all(small, sink_path=str(tmp_path / "all.jsonl"))
        assert set(results) == {
            "engine_solve",
            "plan_cache",
            "telemetry_hub",
            "metrics_registry",
            "histogram",
            "streaming_sink",
        }


class TestSeededWorkloads:
    def test_query_workload_reproducible(self):
        # Same seed, same query multiset — the workload half of the
        # determinism contract (the OS owns the interleaving half).
        a = random.Random("5-queries").random()
        b = random.Random("5-queries").random()
        assert a == b
