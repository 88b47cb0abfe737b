"""Acceptance tests: traced runs reproduce ``AlgorithmStats`` exactly.

The tracer embeds a real :class:`OpCounter` in each span and traced
``bandwidth_min`` calls feed that counter into the TEMP_S sweep, so the
exported spans must carry the *measured* paper quantities (``p``, ``q``,
``p log q``, search steps, TEMP_S lengths) bit-for-bit — not a
re-derivation — and tracing must never perturb the solution itself,
on the reference or on the engine's NumPy route.
"""

import pytest

from repro.baselines.nicol import bandwidth_min_nlogn
from repro.core.bandwidth import bandwidth_min, bandwidth_stats
from repro.graphs.generators import random_chain
from repro.observability import Tracer


def _engine_solve(chain, bound, tracer=None):
    from repro.engine import PartitionEngine

    return PartitionEngine(tracer=tracer).solve(chain, bound)


@pytest.fixture(params=["python", "numpy"])
def solve(request):
    """A solver taking ``(chain, bound, tracer=)``: the pure-Python
    reference, or the engine (the NumPy route)."""
    if request.param == "numpy":
        pytest.importorskip("numpy")
        return _engine_solve
    return bandwidth_min


def traced_solve(chain, bound, solve=bandwidth_min):
    tracer = Tracer()
    result = solve(chain, bound, tracer=tracer)
    return tracer, result


class TestStatsEquivalence:
    def test_spans_match_algorithm_stats_bit_for_bit(self):
        chain = random_chain(400, rng=42)
        bound = 3.0 * chain.max_vertex_weight()
        tracer, result = traced_solve(chain, bound)
        stats = bandwidth_stats(chain, bound)

        root = tracer.find("bandwidth_min")
        sweep = tracer.find("temp_s_sweep")
        assert root is not None and sweep is not None
        # Structure quantities: exact integers / identical float exprs.
        assert root.attrs["p"] == stats.p
        assert root.attrs["q"] == stats.q
        assert root.attrs["p_log_q"] == stats.p_log_q
        assert root.attrs["r"] == sweep.attrs["r"]
        # Sweep counts are the measured values, not approximations.
        assert sweep.counter.get("search_steps") == stats.search_steps
        assert sweep.counter.trace_mean("temp_s_len") == stats.mean_temp_s_len
        assert sweep.counter.trace_max("temp_s_len") == stats.max_temp_s_len
        # And the root records the solution itself.
        assert root.attrs["weight"] == result.weight
        assert root.attrs["components"] == result.num_components

    def test_exported_records_carry_the_same_numbers(self):
        chain = random_chain(300, rng=7)
        bound = 2.5 * chain.max_vertex_weight()
        tracer, _ = traced_solve(chain, bound)
        stats = bandwidth_stats(chain, bound)
        records = {r["name"]: r for r in tracer.records()}
        sweep = records["temp_s_sweep"]
        assert sweep["counts"]["search_steps"] == stats.search_steps
        assert sweep["traces"]["temp_s_len"]["mean"] == stats.mean_temp_s_len
        assert sweep["traces"]["temp_s_len"]["max"] == stats.max_temp_s_len
        assert records["bandwidth_min"]["attrs"]["p_log_q"] == stats.p_log_q


class TestTracingIsInert:
    def test_traced_result_equals_untraced(self, solve):
        for rng in (1, 2, 3):
            chain = random_chain(200, rng=rng)
            bound = 2.0 * chain.max_vertex_weight()
            plain = solve(chain, bound)
            _, traced = traced_solve(chain, bound, solve)
            assert (traced.cut_indices, traced.weight) == (
                plain.cut_indices,
                plain.weight,
            )

    def test_linear_search_traced(self):
        # Appendix B's linear TEMP_S search lives on the reference only.
        chain = random_chain(150, rng=9)
        bound = 2.0 * chain.max_vertex_weight()
        plain = bandwidth_min(chain, bound, search="linear")
        tracer = Tracer()
        traced = bandwidth_min(chain, bound, search="linear", tracer=tracer)
        assert traced.weight == plain.weight
        assert tracer.find("temp_s_sweep").counter.get("search_steps") > 0

    def test_null_tracer_takes_fast_path(self, solve):
        chain = random_chain(100, rng=11)
        bound = 2.0 * chain.max_vertex_weight()
        plain = solve(chain, bound)
        nulled = solve(chain, bound, tracer=None)
        assert nulled.weight == plain.weight
        assert nulled.cut_indices == plain.cut_indices


class TestBaselineTracing:
    def test_nicol_traced_matches_and_counts_heap_ops(self):
        chain = random_chain(250, rng=5)
        bound = 2.0 * chain.max_vertex_weight()
        plain = bandwidth_min_nlogn(chain, bound)
        tracer = Tracer()
        traced = bandwidth_min_nlogn(chain, bound, tracer=tracer)
        assert traced.weight == plain.weight
        span = tracer.find("nicol_dp_sweep")
        assert span is not None
        assert span.attrs["weight"] == traced.weight
        assert span.counter.get("heap_pushes") > 0
        assert span.counter.get("heap_pops") > 0


class TestPrimeStructureTracing:
    def test_python_backend_emits_phase_spans(self):
        from repro.core.prime_subpaths import compute_prime_structure

        chain = random_chain(120, rng=3)
        bound = 2.0 * chain.max_vertex_weight()
        tracer = Tracer()
        structure = compute_prime_structure(chain, bound, tracer=tracer)
        find = tracer.find("find_primes")
        reduce_span = tracer.find("reduce_edges")
        assert find.attrs["p"] == structure.p
        assert reduce_span.attrs["r"] == structure.r
