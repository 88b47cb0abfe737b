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
- :mod:`repro.verify.faultflow` — the determinism-taint rule
  (REPRO023) on the contracted solver paths, behind
  ``repro analyze --faults``; the fault tests in
  ``tests/*/test_threads_and_faults.py`` raise at each acquire/IO
  point and demand released locks, resumable sinks, untyped faults
  propagated out of ``solve_many`` and bit-identical re-solves;
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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verify.certificates": ("CertificateReport", "VerificationError", "Violation",
                                  "check_chain_partition", "check_pareto_frontier",
                                  "check_prime_cover", "check_tree_cut"),
    "repro.verify.concurrency": ("CONCURRENCY_RULES",),
    "repro.verify.operators": ("MutationSite", "enumerate_sites", "apply_site"),
    "repro.verify.mutate": ("run_mutation_analysis", "compare_to_baseline"),
    "repro.verify.sandbox": ("run_sandboxed",),
    "repro.verify.runtime": ("cross_check_chain_backends", "verification_enabled",
                             "verify_chain_result", "verify_tree_result"),
})

__all__ = sorted([
    "CertificateReport", "VerificationError", "Violation", "check_chain_partition",
    "check_pareto_frontier", "check_prime_cover", "check_tree_cut", "CONCURRENCY_RULES",
    "MutationSite", "enumerate_sites", "apply_site", "run_mutation_analysis",
    "compare_to_baseline", "run_sandboxed", "cross_check_chain_backends",
    "verification_enabled", "verify_chain_result", "verify_tree_result",
])
