"""Tests for :mod:`repro.verify.allocs`: the allocation certifier.

The harness must be deterministic — budgets committed to
``BENCH_engine.json`` are only meaningful if a re-run reproduces them
bit-for-bit — and the disabled-telemetry paths it certifies must stay
allocation-free at the block level, matching the zero-overhead claims
the REPRO012 guard pattern rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.allocs import (
    AllocationBudgetError,
    AllocationHarness,
    certify_budgets,
    measure_disabled_telemetry,
    measure_prime_structure,
    measure_warm_plan_sweep,
    ratchet_ratio,
)


class TestHarness:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            AllocationHarness(warmup=-1)
        with pytest.raises(ValueError):
            AllocationHarness(iterations=0)
        with pytest.raises(ValueError):
            AllocationHarness(repeats=0)

    def test_total_iterations(self):
        harness = AllocationHarness(warmup=1, iterations=100, repeats=3)
        assert harness.total_iterations == 300

    def test_measure_reports_footprint_fields(self):
        harness = AllocationHarness(warmup=10, iterations=100, repeats=2)
        footprint = harness.measure(lambda: None)
        assert set(footprint) == {"net_blocks", "net_bytes", "peak_bytes"}
        assert footprint["net_blocks"] <= 2

    def test_measure_sees_retained_allocations(self):
        sink = []
        harness = AllocationHarness(warmup=0, iterations=100, repeats=1)
        footprint = harness.measure(lambda: sink.append({}))
        assert footprint["net_blocks"] >= 100
        assert footprint["peak_bytes"] > 0


class TestRatchetRatio:
    def test_within_budget_is_exactly_one(self):
        assert ratchet_ratio(0, 64) == 1.0
        assert ratchet_ratio(64, 64) == 1.0
        assert ratchet_ratio(-5, 64) == 1.0  # clamped

    def test_blown_budget_decays(self):
        assert ratchet_ratio(128, 64) == 0.5
        # >1.25x budget dips under repro ratchet's 20% tolerance floor.
        assert ratchet_ratio(81, 64) < 0.8

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ratchet_ratio(1, 0)


class TestCertifyBudgets:
    def test_within_budgets_passes(self):
        measured = {"guard": {"net_blocks": 1, "peak_bytes": 128}}
        certify_budgets(measured, {"guard": {"net_blocks": 8}})

    def test_blown_budget_raises_with_detail(self):
        measured = {"guard": {"net_blocks": 40}}
        with pytest.raises(AllocationBudgetError) as exc:
            certify_budgets(measured, {"guard": {"net_blocks": 8}})
        assert "guard.net_blocks: 40 > budget 8" in str(exc.value)

    def test_missing_scenario_raises(self):
        with pytest.raises(AllocationBudgetError) as exc:
            certify_budgets({}, {"guard": {"net_blocks": 8}})
        assert "not measured" in str(exc.value)


class TestScenarios:
    def test_disabled_telemetry_is_allocation_free(self):
        harness = AllocationHarness(warmup=500, iterations=5_000, repeats=2)
        results = measure_disabled_telemetry(harness)
        assert set(results) == {"guard", "publish", "counter_inc"}
        for name, footprint in results.items():
            # Same bar as the committed bench: noise-level block churn.
            assert footprint["net_blocks"] <= 8, (name, footprint)

    def test_warm_plan_sweep_retains_nothing(self):
        harness = AllocationHarness(warmup=4, iterations=24, repeats=2)
        footprint = measure_warm_plan_sweep(harness, tasks=128, queries=8)
        assert footprint["net_blocks"] <= 8
        assert footprint["peak_bytes"] > 0

    def test_prime_structure_retains_nothing(self):
        harness = AllocationHarness(warmup=4, iterations=24, repeats=2)
        footprint = measure_prime_structure(harness, tasks=64)
        assert footprint["net_blocks"] <= 8
        assert footprint["peak_bytes"] > 0


@settings(max_examples=5, deadline=None)
@given(
    warmup=st.integers(min_value=32, max_value=256),
    iterations=st.integers(min_value=128, max_value=1_024),
    repeats=st.integers(min_value=1, max_value=2),
)
def test_disabled_telemetry_budgets_are_deterministic(
    warmup, iterations, repeats
):
    """The satellite property: identical harness -> identical budgets.

    Re-measuring the disabled-telemetry path with the same parameters
    must reproduce every field bit-for-bit — otherwise the committed
    ``BENCH_engine.json`` budgets would flap run to run.
    """
    harness = AllocationHarness(
        warmup=warmup, iterations=iterations, repeats=repeats
    )
    first = measure_disabled_telemetry(harness)
    second = measure_disabled_telemetry(harness)
    assert first == second
