"""Static verification layer: certificates, contracts, analyzers and lint.

The paper's outputs are all *cuts*, and a claimed cut is cheap to audit
independently of how it was computed: the execution-time bound (every
component of ``G - S`` weighs at most ``K``), the bottleneck
(``max_{e in S} delta(e)``), the bandwidth (``sum_{e in S} beta(e)``)
and prime-subpath coverage (Section 2.3: a chain cut is feasible iff it
hits every prime subpath) are all ``O(n)`` checks.  This package turns
that observation into tooling:

- :mod:`repro.verify.certificates` — pure ``O(n)`` certificate checkers
  returning structured :class:`Violation` reports;
- :mod:`repro.verify.runtime` — the ``REPRO_VERIFY=1`` env flag (and
  ``--verify`` CLI flag) wiring that makes every engine/baseline solve
  self-certify, including a pure-Python cross-check of the NumPy
  kernels on cached/warm-started engine paths;
- :mod:`repro.verify.lint` — the repo-specific AST lint pass
  (``python -m repro.verify.lint src/ tests/ benchmarks/``) and the
  machinery every static pass shares: the parse-once ``Module`` record,
  ``Finding`` and the pragma grammar;
- :mod:`repro.verify.passes` — the analyzer driver: one file walk and
  one table of static passes behind ``repro analyze``;
- :mod:`repro.verify.contracts` — the ``CONTRACTS`` table of
  machine-readable complexity budgets, one per solver by qualified
  name, plus the AST pass checking docstrings against them (REPRO011);
- :mod:`repro.verify.empirical` — the ``repro analyze --complexity``
  gate fitting OpCounter telemetry against declared budgets (REPRO009);
- :mod:`repro.verify.markers` / :mod:`repro.verify.concurrency` — the
  concurrency-safety layer: the ``SHARED_STATE``/``CONCURRENT_ENTRIES``
  declaration tables and the shared-state effect analyzer (REPRO013
  lock discipline) behind ``repro analyze --concurrency``; the
  8-thread race tests in ``tests/*/test_threads_and_faults.py``
  certify REPRO013;
- :mod:`repro.verify.hotpath` / :mod:`repro.verify.allocs` — the
  hot-path allocation & dispatch analyzer (REPRO016-REPRO019) over
  the contracted solvers and their callees, certified by
  the allocation harness with ratcheted budgets;
- :mod:`repro.verify.faultflow` — the fault-surface layer:
  resource-lifecycle, exception-flow and determinism-taint rules
  (REPRO020, REPRO021, REPRO023, REPRO024) behind
  ``repro analyze --faults``; the
  fault tests in ``tests/*/test_threads_and_faults.py`` raise at each
  acquire/IO point and demand released locks, resumable sinks and
  bit-identical re-solves;
- :mod:`repro.verify.operators` / :mod:`repro.verify.sandbox` /
  :mod:`repro.verify.mutate` — the mutation-analysis engine behind
  ``repro mutate``: domain-aware AST fault seeding into product code
  (solvers, tree substrate, engine, Nicol baseline), each mutant run
  against its module's tier-1 tests in a fork sandbox, and the
  CI-gated kill matrix.

The analyzers are checkers, not mutation targets: each has its own
unit tests, and a fixture corpus under ``tests/verify/fixtures/`` pins
the exact findings each one reports on seeded sources.

Product code imports nothing from this package at module scope: the
solvers are declared in the tables above, and the ``REPRO_VERIFY``
hooks import :mod:`repro.verify.runtime` inside the function that
needs it.  Re-exports resolve lazily (PEP 562), so such a hook loads
the certificates alone, not the analyzers or the mutation engine, and
``python -m repro.verify.lint`` finds ``lint`` not yet imported.
"""

from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - re-export types for checkers only
    from repro.verify.certificates import (
        CertificateReport,
        VerificationError,
        Violation,
        check_chain_partition,
        check_pareto_frontier,
        check_prime_cover,
        check_tree_cut,
    )
    from repro.verify.concurrency import CONCURRENCY_RULES
    from repro.verify.mutate import compare_to_baseline, run_mutation_analysis
    from repro.verify.operators import (
        MutationSite,
        enumerate_sites,
        apply_site,
    )
    from repro.verify.sandbox import run_sandboxed
    from repro.verify.runtime import (
        cross_check_chain_backends,
        verification_enabled,
        verify_chain_result,
        verify_tree_result,
    )

_EXPORTS = {
    "CertificateReport": "repro.verify.certificates",
    "VerificationError": "repro.verify.certificates",
    "Violation": "repro.verify.certificates",
    "check_chain_partition": "repro.verify.certificates",
    "check_pareto_frontier": "repro.verify.certificates",
    "check_prime_cover": "repro.verify.certificates",
    "check_tree_cut": "repro.verify.certificates",
    "CONCURRENCY_RULES": "repro.verify.concurrency",
    "MutationSite": "repro.verify.operators",
    "enumerate_sites": "repro.verify.operators",
    "apply_site": "repro.verify.operators",
    "run_mutation_analysis": "repro.verify.mutate",
    "compare_to_baseline": "repro.verify.mutate",
    "run_sandboxed": "repro.verify.sandbox",
    "cross_check_chain_backends": "repro.verify.runtime",
    "verification_enabled": "repro.verify.runtime",
    "verify_chain_result": "repro.verify.runtime",
    "verify_tree_result": "repro.verify.runtime",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
