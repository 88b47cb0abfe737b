"""Tests for :mod:`repro.verify.faults` — the fault-injection certifier.

The dynamic half of the fault-surface pass (REPRO020/REPRO023 carry
``certifier="repro.verify.faults"`` in the registry): monkeypatch one
instrumented acquire/IO point at a time to raise, then certify that
locks are released, sinks are closed or resumable, and the canonical
query re-solves bit-identically.  The acceptance criterion — at least
10 distinct injected sites — is asserted by :func:`certify_all` and
re-asserted here.
"""

import threading

import pytest

from repro.verify.faults import (
    _CANONICAL_BOUND,
    FaultInjectionError,
    FaultInjectionHarness,
    InjectedFault,
    _canonical_chain,
    _lock_released,
    certify_all,
    certify_batch_query_fault,
    certify_hub_subscriber_fault,
    certify_sink_torn_write,
    certify_structure_compute_fault,
    certify_tracer_span_fault,
)


class TestExceptionTaxonomy:
    def test_injected_fault_is_a_plain_exception(self):
        from repro.core.feasibility import PartitioningError

        assert issubclass(InjectedFault, Exception)
        assert not issubclass(InjectedFault, PartitioningError)

    def test_certification_failures_are_assertion_errors(self):
        assert issubclass(FaultInjectionError, AssertionError)


class TestLockProbe:
    def test_free_lock_reports_released(self):
        assert _lock_released(threading.Lock())
        assert _lock_released(threading.RLock())

    def test_held_lock_reports_held(self):
        lock = threading.Lock()
        lock.acquire()
        try:
            assert not _lock_released(lock, timeout=0.2)
        finally:
            lock.release()

    def test_rlock_held_by_this_thread_reports_held(self):
        """The probe runs from another thread on purpose: a same-thread
        ``RLock.acquire`` would succeed reentrantly and lie."""
        lock = threading.RLock()
        with lock:
            assert not _lock_released(lock, timeout=0.2)
        assert _lock_released(lock)


class TestCanonicalQuery:
    def test_chain_is_deterministic(self):
        a, b = _canonical_chain(), _canonical_chain()
        assert list(a.alpha) == list(b.alpha)
        assert list(a.beta) == list(b.beta)
        assert len(a.alpha) == 60

    def test_canonical_query_is_feasible(self):
        from repro.engine import PartitionEngine

        result = PartitionEngine().solve(_canonical_chain(), _CANONICAL_BOUND)
        assert result.weight <= _CANONICAL_BOUND


class TestInjectPrimitive:
    class _Victim:
        calls = 0

        @staticmethod
        def work(x):
            TestInjectPrimitive._Victim.calls += 1
            return x * 2

    def test_fail_on_call_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultInjectionHarness(fail_on_call=0)

    def test_injection_raises_then_restores(self):
        harness = FaultInjectionHarness()
        victim = self._Victim
        original = victim.work
        with harness.inject(victim, "work") as counter:
            with pytest.raises(InjectedFault):
                victim.work(3)
            assert victim.work(3) == 6  # only the first call raises
        assert victim.work is original
        assert counter["calls"] == 2
        assert harness.injected_sites[-1].endswith(".work")

    def test_unreached_site_is_a_certification_failure(self):
        harness = FaultInjectionHarness()
        with pytest.raises(FaultInjectionError, match="never reached"):
            with harness.inject(self._Victim, "work"):
                pass  # never calls the patched target

    def test_restores_even_when_the_body_raises(self):
        harness = FaultInjectionHarness()
        original = self._Victim.work
        with pytest.raises(RuntimeError):
            with harness.inject(self._Victim, "work"):
                raise RuntimeError("scenario bug")
        assert self._Victim.work is original

    def test_calls_tuple_selects_ordinals(self):
        harness = FaultInjectionHarness()
        victim = self._Victim
        with harness.inject(victim, "work", calls=(2,)):
            assert victim.work(1) == 2
            with pytest.raises(InjectedFault):
                victim.work(1)
            assert victim.work(1) == 2

    def test_wrap_replaces_the_raise(self):
        harness = FaultInjectionHarness()

        def halved(real, call, x):
            return real(x) // 2

        with harness.inject(self._Victim, "work", wrap=halved):
            assert self._Victim.work(5) == 5


class TestScenarios:
    """Spot-check individual scenarios; certify_all covers the rest."""

    def test_structure_fault_recovers(self):
        harness = FaultInjectionHarness()
        summary = certify_structure_compute_fault(harness)
        assert summary["recovered"] is True
        assert len(harness.injected_sites) == 1

    def test_batch_query_fault_isolates_one_query(self):
        harness = FaultInjectionHarness()
        summary = certify_batch_query_fault(harness)
        assert summary["errored_query"] == 1
        assert summary["recovered"] is True

    def test_hub_subscriber_fault_drops_and_records(self):
        harness = FaultInjectionHarness()
        summary = certify_hub_subscriber_fault(harness)
        assert summary["dropped"] is True
        assert "TelemetrySubscriber.emit" in harness.injected_sites

    def test_sink_torn_write_resumes(self, tmp_path):
        harness = FaultInjectionHarness()
        summary = certify_sink_torn_write(
            harness, sink_path=str(tmp_path / "torn.jsonl")
        )
        assert summary["site"] == "StreamingJsonlSink._fh.write"

    def test_tracer_span_fault_unwinds(self):
        harness = FaultInjectionHarness()
        summary = certify_tracer_span_fault(harness)
        assert "Span.body" in harness.injected_sites
        assert summary["spans_closed"] is True


class TestCertifyAll:
    def test_all_scenarios_pass_with_ten_distinct_sites(self, tmp_path):
        harness = FaultInjectionHarness()
        summary = certify_all(harness, sink_dir=str(tmp_path))
        assert len(summary["sites"]) >= 10
        # Every scenario contributed a summary.
        expected = {
            "structure", "sweep", "plan_compile", "batch_query",
            "hub_subscriber", "sink_torn_write", "sink_flush",
            "sink_init", "hub_close", "tracer_span", "traced_solve",
            "metrics_observe", "sites",
        }
        assert set(summary) == expected
