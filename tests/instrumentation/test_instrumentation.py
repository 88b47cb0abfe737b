"""Unit tests for :mod:`repro.instrumentation`."""

import time

import pytest

from repro.instrumentation.counters import AlgorithmStats, OpCounter
from repro.instrumentation.rng import spawn_rng
from repro.instrumentation.stopwatch import Stopwatch


class TestOpCounter:
    def test_add_and_get(self):
        c = OpCounter()
        c.add("x")
        c.add("x", 4)
        assert c.get("x") == 5
        assert c.get("missing") == 0

    def test_traces(self):
        c = OpCounter()
        for v in (1.0, 3.0, 2.0):
            c.trace("len", v)
        assert c.trace_mean("len") == pytest.approx(2.0)
        assert c.trace_max("len") == 3.0
        assert c.trace_mean("missing") == 0.0
        assert c.trace_max("missing") == 0.0

    def test_as_dict(self):
        c = OpCounter()
        c.add("a")
        assert c.as_dict() == {"a": 1}


class TestAlgorithmStats:
    def test_q_and_plogq(self):
        stats = AlgorithmStats(100)
        stats.p = 10
        stats.q_values = [4, 4, 4, 4]
        assert stats.q == 4.0
        assert stats.p_log_q == pytest.approx(20.0)  # 10 * log2(4)

    def test_plogq_zero_for_small_q(self):
        stats = AlgorithmStats(100)
        stats.p = 10
        stats.q_values = [1, 1]
        assert stats.p_log_q == 0.0

    def test_nlogn(self):
        stats = AlgorithmStats(8)
        assert stats.n_log_n == pytest.approx(24.0)
        assert AlgorithmStats(1).n_log_n == 0.0

    def test_empty_q(self):
        stats = AlgorithmStats(5)
        assert stats.q == 0.0

    def test_as_dict_keys(self):
        keys = set(AlgorithmStats(5).as_dict())
        assert {"n", "p", "q", "p_log_q", "n_log_n"} <= keys


class TestSpawnRng:
    def test_deterministic(self):
        assert spawn_rng(1, "a", 2).random() == spawn_rng(1, "a", 2).random()

    def test_labels_matter(self):
        assert spawn_rng(1, "a").random() != spawn_rng(1, "b").random()

    def test_seed_matters(self):
        assert spawn_rng(1, "a").random() != spawn_rng(2, "a").random()


class TestStopwatch:
    def test_measures(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        assert watch.total >= 0.009

    def test_accumulates(self):
        watch = Stopwatch()
        with watch:
            pass
        first = watch.total
        with watch:
            pass
        assert watch.total >= first

    def test_double_start(self):
        watch = Stopwatch()
        watch.start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()
