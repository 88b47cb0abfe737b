"""``O(n)`` certificate checkers for the paper's three cut problems.

Every algorithm in this repository emits a cut ``S`` plus a claimed
objective value.  Validity of that claim never depends on *how* the cut
was found — it is a small set of linear-time invariants straight out of
the paper:

- **execution-time bound** (Sections 2.1–2.3): every component of
  ``G - S`` weighs at most ``K``;
- **bottleneck** (Section 2.1): the claimed value equals
  ``max_{e in S} delta(e)``;
- **bandwidth** (Section 2.3): the claimed value equals
  ``sum_{e in S} beta(e)``;
- **prime-subpath coverage** (Section 2.3): a chain cut satisfies the
  bound iff it removes at least one edge from every prime (minimal
  critical) subpath, and an *optimal* bandwidth cut only ever uses
  edges covered by some prime subpath;
- **Pareto monotonicity** (inverse problems): along a
  processor-budget frontier the achievable bound never increases and
  the bandwidth paid for it never decreases.

Checkers return a :class:`CertificateReport` whose :class:`Violation`
entries name the violated invariant; they never raise on a bad
solution (malformed *inputs* such as out-of-range edge indices are
reported as violations too).  :meth:`CertificateReport.raise_if_failed`
converts a failed report into a :class:`VerificationError`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.feasibility import PartitioningError
from repro.core.prime_subpaths import find_prime_subpaths
from repro.graphs.chain import Chain
from repro.graphs.task_graph import Edge, canonical_edge
from repro.graphs.tree import Tree

#: Relative tolerance for comparing claimed objective values against the
#: recomputed ones.  The solvers all produce exact float sums over the
#: same operands, so in practice the comparison is exact; the tolerance
#: only forgives benign re-association by external callers.
DEFAULT_REL_TOL = 1e-9


class Violation:
    """One violated invariant: a machine-readable code, the paper
    invariant it breaks, and the concrete numbers that break it.

    Slotted: verification runs on every solve under ``REPRO_VERIFY=1``,
    and reports are allocated per query.
    """

    __slots__ = ("code", "invariant", "message", "context")

    def __init__(
        self,
        code: str,
        invariant: str,
        message: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.code = code
        self.invariant = invariant
        self.message = message
        self.context: Dict[str, Any] = dict(context or {})

    def as_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "invariant": self.invariant,
            "message": self.message,
            "context": dict(self.context),
        }

    def __repr__(self) -> str:
        return f"Violation({self.code}: {self.message})"


class CertificateReport:
    """The outcome of checking one claimed solution.

    ``checks`` counts the invariants evaluated, so a passing report
    still tells you the certificate actually covered something.
    """

    __slots__ = ("subject", "checks", "violations")

    def __init__(self, subject: str) -> None:
        self.subject = subject
        self.checks = 0
        self.violations: List[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(
        self,
        code: str,
        invariant: str,
        message: str,
        context: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.violations.append(Violation(code, invariant, message, context))

    def raise_if_failed(self) -> "CertificateReport":
        if self.violations:
            raise VerificationError(self)
        return self

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"CertificateReport({self.subject}: {status}, {self.checks} checks)"


class VerificationError(PartitioningError):
    """A claimed solution failed certificate verification.

    Subclasses :class:`~repro.core.feasibility.PartitioningError` so the
    batch engine records it per query instead of poisoning the batch.
    """

    def __init__(self, report: CertificateReport) -> None:
        lines = [f"{report.subject}: {len(report.violations)} violated invariant(s)"]
        for violation in report.violations:
            lines.append(
                f"  [{violation.code}] {violation.invariant}: {violation.message}"
            )
        super().__init__("\n".join(lines))
        self.report = report


def _values_close(claimed: float, actual: float, rel_tol: float) -> bool:
    return math.isclose(claimed, actual, rel_tol=rel_tol, abs_tol=rel_tol)


#: Invariant text shared by the chain and tree load checks.
_LOAD_INVARIANT = (
    "execution-time bound: every component of G - S weighs at most K"
)
_BANDWIDTH_INVARIANT = (
    "bandwidth objective: claimed weight equals sum of beta(e) over the cut"
)
_BOTTLENECK_INVARIANT = (
    "bottleneck objective: claimed value equals max of delta(e) over the cut"
)
_PRIME_COVER_INVARIANT = (
    "prime-subpath coverage (Section 2.3): a feasible cut removes at "
    "least one edge from every prime subpath"
)
_PRIME_SUPPORT_INVARIANT = (
    "non-redundant support (Section 2.3): an optimal bandwidth cut only "
    "uses edges covered by some prime subpath"
)
_PARETO_INVARIANT = (
    "Pareto monotonicity: more processors never worsen the achievable "
    "bound, and a tighter bound never costs less bandwidth"
)
_FINITE_INVARIANT = (
    "finite inputs: a cut certifies only a finite bound and finite "
    "claimed objective values"
)


def _check_finite(
    report: CertificateReport, prefix: str, values: Mapping[str, Optional[float]]
) -> bool:
    """Add a violation naming every non-finite value; True if none.

    Every comparison against NaN is false and everything fits under an
    infinite bound, so without this check any cut would certify.
    """
    report.checks += 1
    bad = {
        name: value
        for name, value in values.items()
        if value is not None and not math.isfinite(value)
    }
    if bad:
        report.add(
            f"{prefix}.non_finite",
            _FINITE_INVARIANT,
            ", ".join(f"{name} is {value!r}" for name, value in bad.items()),
            bad,
        )
    return not bad


def check_chain_partition(
    chain: Chain,
    cut_indices: Sequence[int],
    bound: float,
    claimed_weight: Optional[float] = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> CertificateReport:
    """Certify a claimed chain cut against the Section 2.3 invariants.

    Checks, each in ``O(n)``: ``bound`` and the claimed bandwidth are
    finite, the cut is a set of valid edge indices, every induced block
    weighs at most ``bound``, and (when given) the claimed bandwidth
    equals the recomputed ``sum beta(e)``.
    """
    report = CertificateReport("chain_partition")
    if not _check_finite(
        report, "chain", {"bound": bound, "claimed_weight": claimed_weight}
    ):
        return report
    n = chain.num_tasks
    report.checks += 1
    raw = [int(i) for i in cut_indices]
    indices = sorted(set(raw))
    if len(indices) != len(raw):
        report.add(
            "chain.duplicate_cut_edges",
            "a cut is a *set* of edges",
            f"cut lists {len(raw)} edges but only "
            f"{len(indices)} are distinct",
            {"cut_indices": raw},
        )
    bad = [i for i in indices if not (0 <= i < chain.num_edges)]
    if bad:
        report.add(
            "chain.cut_edge_out_of_range",
            "cut edges must exist in the chain",
            f"edge indices {bad} out of range for a chain with "
            f"{chain.num_edges} edges",
            {"bad_indices": bad, "num_edges": chain.num_edges},
        )
        return report  # block boundaries below would be meaningless
    report.checks += 1
    lo = 0
    for edge in indices + [n - 1]:
        hi = edge if edge < n - 1 else n - 1
        # The shared block-fit rule (Chain.block_fits), with no
        # tolerance: slack here would pass a block a rounding step over
        # K that Chain.is_feasible_cut and check_prime_cover reject.
        block_weight = chain.segment_weight(lo, hi)
        if not math.isfinite(block_weight):
            # The prefix overflowed (inf - x or inf - inf) before or in
            # this block; only the block's own sum says whether it fits.
            block_weight = sum(chain.alpha[lo : hi + 1])
        if block_weight > bound:
            report.add(
                "chain.load_bound",
                _LOAD_INVARIANT,
                f"block [{lo}..{hi}] weighs {block_weight:g} > K={bound:g}",
                {"block": (lo, hi), "weight": block_weight, "bound": bound},
            )
        lo = hi + 1
    if claimed_weight is not None:
        report.checks += 1
        actual = sum(chain.beta[i] for i in indices)
        if not _values_close(claimed_weight, actual, rel_tol):
            report.add(
                "chain.bandwidth_mismatch",
                _BANDWIDTH_INVARIANT,
                f"claimed bandwidth {claimed_weight:g} but the cut's edge "
                f"weights sum to {actual:g}",
                {"claimed": claimed_weight, "actual": actual},
            )
    return report


def check_prime_cover(
    chain: Chain,
    cut_indices: Sequence[int],
    bound: float,
    *,
    require_covered: bool = False,
) -> CertificateReport:
    """Certify prime-subpath coverage of a claimed chain cut.

    Recomputes the prime (minimal critical) subpaths in ``O(n)`` and
    checks the cut removes at least one edge from each — the paper's
    exact characterization of feasibility.  With ``require_covered``
    (engine outputs), additionally checks every cut edge lies inside
    some prime subpath: the non-redundant edge reduction guarantees an
    optimal cut never pays for an uncovered edge.
    """
    report = CertificateReport("prime_cover")
    try:
        primes = find_prime_subpaths(chain, bound)
    except (PartitioningError, ValueError) as exc:
        report.checks += 1
        report.add(
            "chain.infeasible_bound",
            "K must be at least the maximum vertex weight",
            str(exc),
            {"bound": bound},
        )
        return report
    cut = sorted(set(int(i) for i in cut_indices))
    report.checks += 1
    # Both the primes and the cut are sorted; one merged pass suffices.
    ptr = 0
    for prime in primes:
        while ptr < len(cut) and cut[ptr] < prime.first_edge:
            ptr += 1
        if ptr >= len(cut) or cut[ptr] > prime.last_edge:
            report.add(
                "chain.prime_uncovered",
                _PRIME_COVER_INVARIANT,
                f"prime subpath over tasks "
                f"[{prime.first_task}..{prime.last_task}] "
                f"(weight {prime.weight:g} > K={bound:g}) contains no cut edge",
                {
                    "first_task": prime.first_task,
                    "last_task": prime.last_task,
                    "weight": prime.weight,
                },
            )
    if require_covered:
        report.checks += 1
        uncovered = []
        ptr = 0
        for edge in cut:
            while ptr < len(primes) and primes[ptr].last_edge < edge:
                ptr += 1
            if ptr >= len(primes) or not primes[ptr].contains_edge(edge):
                uncovered.append(edge)
        if uncovered:
            report.add(
                "chain.uncovered_cut_edge",
                _PRIME_SUPPORT_INVARIANT,
                f"cut edges {uncovered} lie in no prime subpath and can "
                "never appear in an optimal bandwidth cut",
                {"uncovered": uncovered},
            )
    return report


def check_tree_cut(
    tree: Tree,
    cut_edges: Iterable[Edge],
    bound: float,
    claimed_bottleneck: Optional[float] = None,
    claimed_bandwidth: Optional[float] = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
) -> CertificateReport:
    """Certify a claimed tree cut against the Section 2.1/2.2 invariants.

    Checks, each in ``O(n)``: ``bound`` and the claimed values are
    finite, the cut edges exist in the tree, every component of
    ``T - S`` weighs at most ``bound``, and the claimed
    bottleneck (``max delta(e)``) / bandwidth (``sum beta(e)``) match
    the recomputed values.
    """
    report = CertificateReport("tree_cut")
    if not _check_finite(
        report,
        "tree",
        {
            "bound": bound,
            "claimed_bottleneck": claimed_bottleneck,
            "claimed_bandwidth": claimed_bandwidth,
        },
    ):
        return report
    canonical = {canonical_edge(u, v) for u, v in cut_edges}
    report.checks += 1
    missing = sorted(e for e in canonical if not tree.has_edge(*e))
    if missing:
        report.add(
            "tree.cut_edge_missing",
            "cut edges must exist in the tree",
            f"edges {missing} are not tree edges",
            {"missing": missing},
        )
        return report
    report.checks += 1
    # Algorithm 2.2 sums a cluster in its own order, which may land a
    # few ulps from the union-find sum of the same component.
    slack = rel_tol * max(1.0, abs(bound))
    for weight in tree.component_weights(canonical):
        if weight > bound + slack:
            report.add(
                "tree.load_bound",
                _LOAD_INVARIANT,
                f"a component of T - S weighs {weight:g} > K={bound:g}",
                {"weight": weight, "bound": bound},
            )
    if claimed_bottleneck is not None:
        report.checks += 1
        actual = (
            max(tree.edge_weight(u, v) for u, v in canonical)
            if canonical
            else 0.0
        )
        if not _values_close(claimed_bottleneck, actual, rel_tol):
            report.add(
                "tree.bottleneck_mismatch",
                _BOTTLENECK_INVARIANT,
                f"claimed bottleneck {claimed_bottleneck:g} but the "
                f"heaviest cut edge weighs {actual:g}",
                {"claimed": claimed_bottleneck, "actual": actual},
            )
    if claimed_bandwidth is not None:
        report.checks += 1
        actual = sum(tree.edge_weight(u, v) for u, v in canonical)
        if not _values_close(claimed_bandwidth, actual, rel_tol):
            report.add(
                "tree.bandwidth_mismatch",
                _BANDWIDTH_INVARIANT,
                f"claimed bandwidth {claimed_bandwidth:g} but the cut's "
                f"edge weights sum to {actual:g}",
                {"claimed": claimed_bandwidth, "actual": actual},
            )
    return report


def check_pareto_frontier(
    rows: Sequence[Mapping[str, Any]],
    *,
    rel_tol: float = 1e-6,
    check_bandwidth: bool = True,
) -> CertificateReport:
    """Certify monotonicity of a processor/bound trade-off frontier.

    ``rows`` is the output of
    :func:`repro.core.inverse.chain_pareto_frontier` or
    :func:`~repro.core.inverse.tree_pareto_frontier`: dicts with
    ``processors`` and ``bound`` keys (``bandwidth`` optional).  Checks
    processors strictly increase, the achievable bound never increases
    with more processors, and — for chains, where the reported
    bandwidth is the *minimum* under the bound and therefore monotone —
    that a tighter bound never costs less bandwidth.  Tree frontiers
    report the bandwidth of one realized partition, which carries no
    such guarantee; pass ``check_bandwidth=False`` for them.  The
    default tolerance is looser than the value checkers' because the
    tree bound is located by bisection.
    """
    report = CertificateReport("pareto_frontier")
    report.checks += 1
    slack = rel_tol
    for prev, row in zip(rows, rows[1:]):
        if row["processors"] <= prev["processors"]:
            report.add(
                "pareto.processors_not_increasing",
                _PARETO_INVARIANT,
                f"processor budgets {prev['processors']} -> "
                f"{row['processors']} do not increase",
                {"prev": dict(prev), "row": dict(row)},
            )
        scale = max(1.0, abs(prev["bound"]))
        if row["bound"] > prev["bound"] + slack * scale:
            report.add(
                "pareto.bound_increased",
                _PARETO_INVARIANT,
                f"bound worsened from {prev['bound']:g} "
                f"(p={prev['processors']}) to {row['bound']:g} "
                f"(p={row['processors']})",
                {"prev": dict(prev), "row": dict(row)},
            )
        if check_bandwidth and "bandwidth" in row and "bandwidth" in prev:
            scale = max(1.0, abs(row["bandwidth"]))
            if prev["bandwidth"] > row["bandwidth"] + slack * scale:
                report.add(
                    "pareto.bandwidth_decreased",
                    _PARETO_INVARIANT,
                    f"a tighter bound ({row['bound']:g} vs "
                    f"{prev['bound']:g}) paid less bandwidth "
                    f"({row['bandwidth']:g} < {prev['bandwidth']:g})",
                    {"prev": dict(prev), "row": dict(row)},
                )
    return report
