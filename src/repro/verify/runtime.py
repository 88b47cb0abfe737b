"""Opt-in self-certification: the ``REPRO_VERIFY=1`` wiring.

With ``REPRO_VERIFY=1`` in the environment (or ``--verify`` on the
``repro run`` / ``repro batch`` CLI, which sets it), every solve that
flows through the engine re-checks its own output with the
:mod:`repro.verify.certificates` checkers before returning it, and the
engine cache additionally cross-checks the NumPy kernels against the
pure-Python reference on every cached/warm-started path.  A failed
check raises :class:`~repro.verify.certificates.VerificationError`
naming the violated paper invariant — in batch mode that lands in the
per-query ``error`` field instead of poisoning the batch.

The flag is read per call (one dict lookup) so tests can flip it with
``monkeypatch.setenv``; everything here is a no-op costing one branch
when the flag is unset.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.verify.certificates import (
    CertificateReport,
    VerificationError,
    check_chain_partition,
    check_prime_cover,
    check_tree_cut,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.bandwidth import ChainCutResult
    from repro.core.bottleneck import TreeCutResult
    from repro.graphs.chain import Chain
    from repro.graphs.tree import Tree

#: Environment variable that switches on self-certification.
ENV_FLAG = "REPRO_VERIFY"

_TRUTHY = frozenset(("1", "true", "yes", "on"))


def verification_enabled() -> bool:
    """True when ``REPRO_VERIFY`` is set to a truthy value."""
    return os.environ.get(ENV_FLAG, "").strip().lower() in _TRUTHY


def enable_verification() -> None:
    """Turn on self-certification for this process and its children.

    Used by the CLI's ``--verify`` flag; process-pool workers inherit
    the environment, so batch workers self-certify too.
    """
    os.environ[ENV_FLAG] = "1"


def verify_chain_result(
    chain: "Chain",
    cut_indices: Sequence[int],
    bound: float,
    claimed_weight: Optional[float] = None,
    *,
    optimal_bandwidth: bool = False,
) -> CertificateReport:
    """Certify a chain cut; raise :class:`VerificationError` on failure.

    ``optimal_bandwidth`` additionally enforces the Algorithm 4.1 output
    shape: every cut edge must be covered by a prime subpath (the
    non-redundant edge reduction guarantees it).
    """
    report = check_chain_partition(chain, cut_indices, bound, claimed_weight)
    cover = check_prime_cover(
        chain, cut_indices, bound, require_covered=optimal_bandwidth
    )
    report.checks += cover.checks
    report.violations.extend(cover.violations)
    return report.raise_if_failed()


def verify_tree_result(
    tree: "Tree",
    result: "TreeCutResult",
    bound: float,
) -> CertificateReport:
    """Certify a tree cut result; raise on failure."""
    report = check_tree_cut(
        tree, result.cut_edges, bound, claimed_bottleneck=result.bottleneck
    )
    return report.raise_if_failed()


def cross_check_chain_backends(
    chain: "Chain",
    bound: float,
    result: "ChainCutResult",
    *,
    apply_reduction: bool = True,
) -> CertificateReport:
    """Cross-check a served result against a fresh pure-Python solve.

    The engine cache serves results computed by the NumPy kernels, and
    warm-started paths serve results memoized at a *different* bound
    inside the structure's stability interval.  Both must agree
    element-for-element with the reference implementation re-run from
    scratch at the queried bound; raises on any divergence.
    """
    from repro.core.bandwidth import bandwidth_min

    report = CertificateReport("backend_cross_check")
    report.checks += 1
    reference = bandwidth_min(chain, bound, apply_reduction=apply_reduction)
    if list(reference.cut_indices) != list(result.cut_indices):
        report.add(
            "engine.cut_divergence",
            "backend equivalence: NumPy kernels and cached/warm-started "
            "results must match the pure-Python reference exactly",
            f"served cut {list(result.cut_indices)!r} != reference cut "
            f"{list(reference.cut_indices)!r} at K={bound:g}",
            {"served": list(result.cut_indices),
             "reference": list(reference.cut_indices), "bound": bound},
        )
    if reference.weight != result.weight:
        report.add(
            "engine.weight_divergence",
            "backend equivalence: served bandwidth must equal the "
            "pure-Python reference bit-for-bit",
            f"served weight {result.weight!r} != reference weight "
            f"{reference.weight!r} at K={bound:g}",
            {"served": result.weight, "reference": reference.weight,
             "bound": bound},
        )
    return report.raise_if_failed()


def verify_cache_solve(
    chain: "Chain",
    bound: float,
    result: "ChainCutResult",
    *,
    apply_reduction: bool = True,
) -> None:
    """Full self-certification of one engine-cache solve.

    Runs the certificate checkers (load bound, bandwidth, prime cover,
    non-redundant support) plus the pure-Python backend cross-check.
    Called for every answer
    :meth:`repro.engine.plan.CompiledChainPlan.solve_bounds` serves
    (hence every NumPy-engine ``PartitionEngine.solve``) when
    ``REPRO_VERIFY=1``.
    """
    verify_chain_result(
        chain,
        result.cut_indices,
        bound,
        claimed_weight=result.weight,
        optimal_bandwidth=apply_reduction,
    )
    cross_check_chain_backends(
        chain, bound, result, apply_reduction=apply_reduction
    )


# ----------------------------------------------------------------------
# Flag-guarded entry points for solver call sites.
#
# Solvers cannot import this module at module scope (verify sits above
# core/engine in the layering), so they guard on the raw environment
# variable and import these lazily; the fine-grained truthiness check
# lives here so "REPRO_VERIFY=0" still means off everywhere.
# ----------------------------------------------------------------------


def maybe_verify_cache_solve(
    chain: "Chain",
    bound: float,
    result: "ChainCutResult",
    *,
    apply_reduction: bool = True,
) -> None:
    """:func:`verify_cache_solve` gated on :func:`verification_enabled`."""
    if verification_enabled():
        verify_cache_solve(
            chain, bound, result, apply_reduction=apply_reduction
        )


def maybe_verify_chain_result(
    chain: "Chain",
    cut_indices: Sequence[int],
    bound: float,
    claimed_weight: Optional[float] = None,
    *,
    optimal_bandwidth: bool = False,
) -> None:
    """:func:`verify_chain_result` gated on :func:`verification_enabled`."""
    if verification_enabled():
        verify_chain_result(
            chain,
            cut_indices,
            bound,
            claimed_weight,
            optimal_bandwidth=optimal_bandwidth,
        )


def maybe_verify_tree_result(
    tree: "Tree",
    result: "TreeCutResult",
    bound: float,
) -> None:
    """:func:`verify_tree_result` gated on :func:`verification_enabled`."""
    if verification_enabled():
        verify_tree_result(tree, result, bound)


def maybe_verify_pareto_frontier(
    rows: "Sequence[dict]", *, check_bandwidth: bool = True
) -> None:
    """Flag-gated frontier monotonicity check for the inverse solvers."""
    if verification_enabled():
        from repro.verify.certificates import check_pareto_frontier

        check_pareto_frontier(
            rows, check_bandwidth=check_bandwidth
        ).raise_if_failed()
