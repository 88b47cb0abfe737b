"""Mutation-analysis engine: prove the verification stack kills bugs.

The verification net — tier-1 tests, O(n) certificate checkers, the
NumPy-vs-python cross-check, contract/flow static passes — is only
worth its cost if it would actually catch a regression in Algorithm
4.1's prime-subpath sweep or the tree greedy.  This module measures
that: it seeds semantic faults with the domain-aware operators of
:mod:`repro.verify.operators`, runs each mutant through a fast kill
pipeline in a fork sandbox (:mod:`repro.verify.sandbox`), and reports a
kill matrix attributing every kill to the *first* layer that caught it.

Only product code is mutated: the solvers, the engine's kernels, plan
and cache, and the Nicol baseline (:data:`TARGETS`).  The static
analyzers are checkers, not targets; their own unit tests and the
fixture corpus under ``tests/verify/fixtures/`` pin what they report.

Kill pipeline order (cheapest-first, matching how a real regression
would be caught)::

    import -> test -> certificate -> cross-check -> contract

plus two pseudo-layers: ``timeout`` (non-terminating mutants — flipped
``while`` predicates — killed by the sandbox deadline) and ``crash``
(child died without a verdict).

Scoring follows the standard definition: ``killed / (killed +
survived)``, with annotated-equivalent mutants excluded from the
denominator entirely.  Survivors are triaged in the report with their
source diff and a per-layer note on why each layer passed them — the
actionable artifact: every survivor is either a missing test or a
``# repro-mutate: equivalent=`` annotation waiting to be written.

Determinism contract: site enumeration is canonical (see
:mod:`~repro.verify.operators`), sampling uses ``random.Random(seed)``,
golden observations are canonical JSON, and the report carries no
timing fields — two runs at the same seed on the same tree produce
byte-identical ``--json`` output, which is what the committed CI
baseline diffs against.
"""

from __future__ import annotations

import ast
import difflib
import importlib
import json
import os
import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.verify.operators import (
    MutationSite,
    apply_site,
    enumerate_sites,
    equivalent_annotations,
    site_is_annotated,
)
from repro.verify.sandbox import (
    SandboxResult,
    install_module_source,
    run_sandboxed,
    silenced_output,
)

__all__ = [
    "SCHEMA_VERSION",
    "KILL_LAYERS",
    "PACKAGE_THRESHOLDS",
    "TARGETS",
    "MutationSetupError",
    "UnknownModuleError",
    "run_mutation_analysis",
    "compare_to_baseline",
    "render_report",
]

#: Schema version of the ``repro mutate --json`` report.
SCHEMA_VERSION = 1

#: Kill-attribution layers, in pipeline order (pseudo-layers last).
KILL_LAYERS = ("import", "test", "certificate", "cross-check", "contract",
               "timeout", "crash")

#: Minimum mutation score per package — the CI gate's floor.  The
#: committed baseline ratchets above these floors; they are the
#: never-regress-below values.
PACKAGE_THRESHOLDS: Dict[str, float] = {
    "repro.core": 0.85,
    "repro.engine": 0.85,
    "repro.baselines": 0.85,
    "repro.graphs": 0.85,
}


class MutationSetupError(RuntimeError):
    """The harness itself is broken (pristine pipeline failed, etc.)."""


class UnknownModuleError(ValueError):
    """``--modules`` named a module outside the target registry."""


class MutationTarget:
    """One mutable module: its targeted tests and observation suites."""

    __slots__ = ("module", "tests", "suites")

    def __init__(
        self, module: str, tests: Tuple[str, ...], suites: Tuple[str, ...]
    ) -> None:
        self.module = module
        self.tests = tests
        self.suites = suites


#: The mutable surface: every product module whose bugs the verification
#: stack claims to catch.  Test paths are relative to the repo root.
TARGETS: Dict[str, MutationTarget] = {
    t.module: t
    for t in (
        MutationTarget(
            "repro.core.bandwidth",
            ("tests/core/test_bandwidth.py",),
            ("chain",),
        ),
        MutationTarget(
            "repro.core.prime_subpaths",
            ("tests/core/test_prime_subpaths.py",),
            ("chain", "prime"),
        ),
        MutationTarget(
            "repro.core.temp_s",
            ("tests/core/test_temp_s.py",),
            ("chain",),
        ),
        MutationTarget(
            "repro.core.bottleneck",
            ("tests/core/test_bottleneck.py",),
            ("tree",),
        ),
        MutationTarget(
            "repro.graphs.tree",
            ("tests/graphs/test_tree.py", "tests/core/test_bottleneck.py"),
            ("tree",),
        ),
        MutationTarget(
            "repro.engine.kernels",
            ("tests/engine/test_kernels.py", "tests/engine/test_native_sweep.py"),
            ("chain", "prime", "engine"),
        ),
        MutationTarget(
            "repro.engine.cache",
            ("tests/engine/test_cache.py",),
            ("chain", "engine"),
        ),
        MutationTarget(
            "repro.engine.plan",
            ("tests/engine/test_plan.py",),
            ("plan",),
        ),
        MutationTarget(
            "repro.baselines.nicol",
            ("tests/baselines/test_nicol.py",),
            ("nicol",),
        ),
    )
}


def _repo_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# Canonical workloads
#
# Small, deterministic, boundary-hitting: K exactly at a prime-subpath
# weight, K exactly at the max task weight, singleton chains, all-equal
# weights, tie-broken reductions, zero-weight edges.  Bounds are chosen
# with chain-only arithmetic (prefix sums), never by calling the code
# under mutation — a mutant must not be able to move the goalposts.
# ----------------------------------------------------------------------


def _chain_cases() -> List[Tuple[str, Any, float]]:
    from repro.graphs.chain import Chain
    from repro.graphs.generators import random_chain, uniform_chain

    cases: List[Tuple[str, Any, float]] = []
    small = Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])
    # K=9: primes (0..2)=12, (1..3)=10, (2..4)=13; optimal cut {1, 3}.
    cases.append(("small-k9", small, 9.0))
    # K exactly equal to the (1..3) prime weight — boundary probe.
    cases.append(("small-kprime10", small, 10.0))
    cases.append(("small-kprime12", small, 12.0))
    # K exactly the max task weight — tightest feasible bound.
    cases.append(("small-ktight", small, 6.0))
    cases.append(("small-kloose", small, 21.0))
    cases.append(("singleton", Chain([5.0], []), 5.0))
    cases.append(("singleton-loose", Chain([5.0], []), 7.5))
    uni = uniform_chain(16)
    cases.append(("uniform-k1", uni, 1.0))
    cases.append(("uniform-k3", uni, 3.0))
    cases.append(("uniform-k16", uni, 16.0))
    # Equal betas: the non-redundant reduction's strict-< tie-break
    # keeps the leftmost edge; a flipped tie-break changes the cut.
    ties = Chain([3, 3, 3, 3, 3, 3], [2, 2, 2, 2, 2])
    cases.append(("ties-k6", ties, 6.0))
    cases.append(("ties-k9", ties, 9.0))
    cases.append(("zero-edge", Chain([4, 2, 4], [0.0, 5.0]), 6.0))
    rng = random.Random(20260807)
    rand_f = random_chain(60, rng=rng)
    wmax_f = max(rand_f.alpha)
    cases.append(("rand60-k2x", rand_f, 2.0 * wmax_f))
    cases.append(("rand60-k6x", rand_f, 6.0 * wmax_f))
    rand_i = random_chain(80, rng=rng, integer_weights=True)
    wmax_i = max(rand_i.alpha)
    cases.append(("randint80-k3x", rand_i, 3.0 * wmax_i))
    # K exactly equal to a mid-chain segment weight: hits the critical-
    # window predicate's <=/> boundary on exact (integer) arithmetic.
    cases.append(("randint80-kseg", rand_i, rand_i.segment_weight(10, 14)))
    cases.append(("randint80-ktight", rand_i, float(wmax_i)))
    return cases


def _tree_cases() -> List[Tuple[str, Any, float]]:
    from repro.graphs.generators import random_star, random_tree

    cases: List[Tuple[str, Any, float]] = []
    from repro.graphs.tree import Tree

    small = Tree(
        [4.0, 3.0, 5.0, 2.0, 6.0, 1.0, 3.0],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
        [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
    )
    for bound in (6.0, 7.0, 9.0, 12.0, 24.0):
        cases.append((f"small7-k{bound:g}", small, bound))
    star = random_star(9, rng=random.Random(7))
    wmax = max(star.vertex_weights)
    cases.append(("star9-tight", star, float(wmax)))
    cases.append(("star9-loose", star, 3.0 * wmax))
    rnd = random_tree(40, rng=random.Random(11), integer_weights=True)
    rmax = max(rnd.vertex_weights)
    for ratio in (1.0, 2.0, 4.0):
        cases.append((f"rand40-k{ratio:g}x", rnd, ratio * rmax))
    return cases


def _canon(payload: Any) -> str:
    """Canonical JSON — the comparable form of an observation suite."""
    return json.dumps(payload, sort_keys=True, indent=1)


def _strip_trace(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Span records minus wall-clock fields (determinism contract)."""
    out: List[Dict[str, Any]] = []
    for record in records:
        out.append(
            {k: v for k, v in record.items() if k not in ("start_s", "duration_s")}
        )
    return out


# ----------------------------------------------------------------------
# Observation suites
#
# Each suite returns a JSON-able payload computed through the *current*
# process's solver bindings (lazy imports, so a sandbox-installed mutant
# is what actually runs).  The parent computes the same payload on
# pristine code as the golden; the cross-check stage compares the two
# canonical JSON strings.
# ----------------------------------------------------------------------


def _result_row(result: Any) -> Dict[str, Any]:
    return {"cut": list(result.cut_indices), "weight": result.weight}


def _kernel_row(chain: Any, bound: float) -> Dict[str, Any]:
    """Each kernel primitive at ``(chain, bound)``, fed the reference's
    rows so that a mutant shows in its own output, plus the compiled
    plan's answer, the one place the primitives are chained."""
    import numpy as np

    from repro.core.prime_subpaths import PrimeStructure
    from repro.engine.kernels import (
        beta_array,
        membership_intervals,
        prefix_array,
        prime_weight_array,
        prime_windows,
        reduced_class_arrays,
        reduced_edge_arrays,
        stability_end,
        sweep_min_cut,
        temps_sweep,
    )
    from repro.engine.plan import compile_chain

    ref = PrimeStructure.compute(chain, bound)
    first = np.asarray([sp.first_task for sp in ref.primes], dtype=np.int64)
    last = np.asarray([sp.last_task for sp in ref.primes], dtype=np.int64)
    edges = [
        [e.index for e in ref.edges],
        [e.weight for e in ref.edges],
        [e.first_prime for e in ref.edges],
        [e.last_prime for e in ref.edges],
    ]
    prefix = prefix_array(chain)
    beta = beta_array(chain)
    weights = prime_weight_array(prefix, first, last)
    lo, hi = membership_intervals(first, last - 1, chain.num_edges)
    plan_weights, plan_cuts = compile_chain(chain).solve_bounds(
        [bound], return_cuts=True
    )
    return {
        "windows": [w.tolist() for w in prime_windows(prefix, bound)],
        "prime_weights": weights.tolist(),
        "min_prime_weight": _finite(stability_end(weights)),
        "lo": lo.tolist(),
        "hi": hi.tolist(),
        "reduced": [c.tolist() for c in reduced_edge_arrays(beta, lo, hi)],
        "unreduced": [
            c.tolist()
            for c in reduced_edge_arrays(beta, lo, hi, apply_reduction=False)
        ],
        "classes": [
            c.tolist()
            for c in reduced_class_arrays(beta, first, last, chain.num_edges)
        ],
        "sweep": list(temps_sweep(*edges)),
        "weight_sweep": temps_sweep(None, *edges[1:])[1],
        "py_sweep": list(sweep_min_cut(*edges)),
        "plan": [plan_cuts[0], float(plan_weights[0])],
    }


def _suite_chain() -> Any:
    from repro.core.bandwidth import bandwidth_min
    from repro.engine.kernels import HAVE_NUMPY
    from repro.observability import Tracer

    rows: List[Dict[str, Any]] = []
    for name, chain, bound in _chain_cases():
        row: Dict[str, Any] = {"case": name}
        row["binary"] = _result_row(bandwidth_min(chain, bound))
        stats_res = bandwidth_min(chain, bound, collect_stats=True)
        stats = stats_res.stats
        row["stats"] = {
            "p": stats.p,
            "r": stats.r,
            "q_values": list(stats.q_values),
            "search_steps": stats.search_steps,
            "max_temp_s_len": stats.max_temp_s_len,
            "mean_temp_s_len": stats.mean_temp_s_len,
        }
        linear = bandwidth_min(chain, bound, search="linear", collect_stats=True)
        row["linear"] = _result_row(linear)
        row["linear_search_steps"] = linear.stats.search_steps
        row["noreduce"] = _result_row(bandwidth_min(chain, bound, apply_reduction=False))
        if HAVE_NUMPY:
            row["kernels"] = _kernel_row(chain, bound)
        tracer = Tracer()
        bandwidth_min(chain, bound, collect_stats=True, tracer=tracer)
        row["trace"] = _strip_trace(tracer.records())
        rows.append(row)
    return rows


def _suite_prime() -> Any:
    from repro.core.prime_subpaths import (
        PrimeStructure,
        edge_membership_intervals,
        find_prime_subpaths,
        reduce_edges,
    )
    from repro.instrumentation.counters import OpCounter

    rows: List[Dict[str, Any]] = []
    for name, chain, bound in _chain_cases():
        counter = OpCounter()
        primes = find_prime_subpaths(chain, bound, counter=counter)
        lo, hi = edge_membership_intervals(primes, chain.num_tasks - 1)
        reduced = reduce_edges(chain, primes)
        unreduced = reduce_edges(chain, primes, apply_reduction=False)
        structure = PrimeStructure.compute(chain, bound)
        rows.append(
            {
                "case": name,
                "primes": [
                    [sp.first_task, sp.last_task, sp.weight] for sp in primes
                ],
                "membership": [list(lo), list(hi)],
                "reduced": [
                    [e.index, e.weight, e.first_prime, e.last_prime] for e in reduced
                ],
                "r_unreduced": len(unreduced),
                "counters": counter.as_dict(),
                "structure": {
                    "p": structure.p,
                    "r": structure.r,
                    "q_values": structure.q_values,
                    "q": structure.q,
                    "mean_prime_length": structure.mean_prime_length(),
                    "min_prime_weight": _finite(structure.min_prime_weight()),
                },
            }
        )
    return rows


def _finite(value: float) -> Any:
    return value if value != float("inf") else "inf"


def _suite_engine() -> Any:
    from repro.core.bandwidth import ChainCutResult
    from repro.engine import PartitionEngine
    from repro.engine.cache import PlanCache
    from repro.engine.kernels import HAVE_NUMPY
    from repro.graphs.chain import Chain
    from repro.graphs.generators import random_chain
    from repro.observability import Tracer

    rows: List[Dict[str, Any]] = []
    chain = random_chain(120, rng=random.Random(20260808), integer_weights=True)
    wmax = max(chain.alpha)
    bounds = [
        float(wmax),
        1.5 * wmax,
        2.0 * wmax,
        2.0 * wmax,  # repeat: exact-hit path
        chain.segment_weight(30, 41),  # exact segment boundary
        3.0 * wmax,
        6.0 * wmax,
    ]
    tracer = Tracer()
    engine = PartitionEngine(tracer=tracer)
    for bound in bounds:
        result = engine.solve(chain, bound)
        rows.append({"bound": bound, **_result_row(result)})
    if HAVE_NUMPY:
        plan_stats = engine.cache.stats
        memo = engine.cache.get(chain)
        rows.append(
            {
                "cache_stats": {
                    "hits": plan_stats.hits,
                    "misses": plan_stats.misses,
                    "evictions": plan_stats.evictions,
                },
                "memo_stats": {
                    "hits": memo.stats.hits,
                    "interval_hits": memo.stats.interval_hits,
                    "misses": memo.stats.misses,
                    "evictions": memo.stats.evictions,
                },
                "len": len(memo),
                "trace": _strip_trace(tracer.records()),
            }
        )
        # Two same-length chains must never share a plan.
        twin_a = Chain([4, 4, 4, 4], [1, 2, 3])
        twin_b = Chain([4, 4, 4, 4], [3, 2, 1])
        twin_cache = PlanCache(max_plans=2)
        for twin in (twin_a, twin_b, twin_a):
            weights, cuts = twin_cache.get(twin).solve_bounds(
                [8.0], return_cuts=True
            )
            result = ChainCutResult(twin, cuts[0], float(weights[0]))
            rows.append({"twin": _result_row(result)})
        # Eviction pressure: 3 chains through a 2-plan cache.
        for offset in range(3):
            extra = Chain([2.0 + offset, 3.0, 2.0], [1.0, 1.0])
            twin_cache.get(extra).solve_bounds([5.0 + offset])
        rows.append(
            {
                "twin_evictions": twin_cache.stats.evictions,
                "twin_len": len(twin_cache),
            }
        )
        rows.append({"kernels": _kernel_row(chain, 2.0 * wmax)})
    return rows


def _suite_tree() -> Any:
    from repro.core.bottleneck import bottleneck_min, bottleneck_min_naive

    rows: List[Dict[str, Any]] = []
    for name, tree, bound in _tree_cases():
        fast = bottleneck_min(tree, bound)
        naive = bottleneck_min_naive(tree, bound)
        rows.append(
            {
                "case": name,
                "fast": {
                    "cut": sorted(list(e) for e in fast.cut_edges),
                    "bottleneck": fast.bottleneck,
                    "components": sorted(tree.component_weights(fast.cut_edges)),
                },
                "naive": {
                    "cut": sorted(list(e) for e in naive.cut_edges),
                    "bottleneck": naive.bottleneck,
                },
            }
        )
    return rows


def _suite_plan() -> Any:
    from repro.engine.kernels import HAVE_NUMPY

    if not HAVE_NUMPY:  # pragma: no cover - minimal installs only
        return [{"skipped": "numpy unavailable"}]
    from repro.engine.plan import compile_chain

    rows: List[Dict[str, Any]] = []
    for name, chain, bound in _chain_cases():
        # max_structures=4 against 5+ distinct intervals exercises the
        # memo's eviction path; unsorted/duplicated bounds exercise the
        # argsort + stability-interval group walk.
        plan = compile_chain(chain, max_structures=4)
        ks = [2.0 * bound, bound, bound, 1.25 * bound, 4.0 * bound,
              3.0 * bound, bound]
        weights, cuts = plan.solve_bounds(ks, return_cuts=True)
        rows.append(
            {
                "case": name,
                "weights": weights.tolist(),
                "cuts": cuts,
                "structures": len(plan),
            }
        )
        if chain.num_edges:
            betas = [
                list(chain.beta),
                [2.0 * b for b in chain.beta],
                [0.5 * b + 1.0 for b in chain.beta],
                list(reversed(chain.beta)),
            ]
            swept = plan.solve_beta_sweep(betas, 2.0 * bound)
            rows.append({"case": name, "beta_weights": swept.tolist()})
    return rows


def _suite_nicol() -> Any:
    from repro.baselines.nicol import bandwidth_min_nlogn
    from repro.core.bandwidth import bandwidth_min

    rows: List[Dict[str, Any]] = []
    for name, chain, bound in _chain_cases():
        baseline = bandwidth_min_nlogn(chain, bound)
        reference = bandwidth_min(chain, bound)
        rows.append(
            {
                "case": name,
                "nicol": _result_row(baseline),
                "weights_agree": baseline.weight == reference.weight,
            }
        )
    return rows


_SUITES: Dict[str, Callable[[], Any]] = {
    "chain": _suite_chain,
    "prime": _suite_prime,
    "engine": _suite_engine,
    "plan": _suite_plan,
    "tree": _suite_tree,
    "nicol": _suite_nicol,
}


# ----------------------------------------------------------------------
# Certificate stage
# ----------------------------------------------------------------------


def _certify_chain() -> None:
    from repro.core.bandwidth import bandwidth_min
    from repro.engine.kernels import HAVE_NUMPY
    from repro.verify.runtime import verify_chain_result

    for _name, chain, bound in _chain_cases():
        result = bandwidth_min(chain, bound)
        verify_chain_result(
            chain, result.cut_indices, bound, result.weight, optimal_bandwidth=True
        )
        if HAVE_NUMPY:
            cut, weight = _kernel_row(chain, bound)["plan"]
            verify_chain_result(chain, cut, bound, weight, optimal_bandwidth=True)


def _certify_prime() -> None:
    from repro.core.prime_subpaths import find_prime_subpaths
    from repro.verify.certificates import check_prime_cover

    for _name, chain, bound in _chain_cases():
        find_prime_subpaths(chain, bound)
        # A feasible empty cut exists iff total weight fits the bound;
        # the certificate exercises the prime-cover invariants directly.
        if chain.total_weight() <= bound:
            check_prime_cover(chain, [], bound).raise_if_failed()


def _certify_engine() -> None:
    from repro.engine import PartitionEngine
    from repro.graphs.generators import random_chain
    from repro.verify.runtime import verify_cache_solve

    chain = random_chain(120, rng=random.Random(20260808), integer_weights=True)
    wmax = max(chain.alpha)
    engine = PartitionEngine()
    for bound in (float(wmax), 2.0 * wmax, 2.0 * wmax, 5.0 * wmax):
        result = engine.solve(chain, bound)
        verify_cache_solve(chain, bound, result)


def _certify_plan() -> None:
    from repro.engine.kernels import HAVE_NUMPY

    if not HAVE_NUMPY:  # pragma: no cover - minimal installs only
        return
    from repro.core.bandwidth import ChainCutResult, bandwidth_min
    from repro.engine.plan import compile_chain
    from repro.graphs.chain import Chain
    from repro.verify.runtime import verify_cache_solve

    for _name, chain, bound in _chain_cases():
        plan = compile_chain(chain)
        ks = [bound, 1.5 * bound, bound]
        weights, cuts = plan.solve_bounds(ks, return_cuts=True)
        for k, weight, cut in zip(ks, weights, cuts):
            verify_cache_solve(
                chain, float(k), ChainCutResult(chain, list(cut), float(weight))
            )
        if chain.num_edges:
            betas = [list(chain.beta), [3.0 * b for b in chain.beta]]
            swept = plan.solve_beta_sweep(betas, 2.0 * bound)
            for row, claimed in zip(betas, swept):
                reference = bandwidth_min(Chain(chain.alpha, row), 2.0 * bound)
                if float(claimed) != reference.weight:
                    raise AssertionError(
                        f"beta-sweep weight {claimed!r} diverged from the "
                        f"scalar reference {reference.weight!r}"
                    )


def _certify_tree() -> None:
    from repro.core.bottleneck import bottleneck_min
    from repro.verify.certificates import check_tree_cut

    for _name, tree, bound in _tree_cases():
        result = bottleneck_min(tree, bound)
        check_tree_cut(
            tree, result.cut_edges, bound, claimed_bottleneck=result.bottleneck
        ).raise_if_failed()


def _certify_nicol() -> None:
    from repro.baselines.nicol import bandwidth_min_nlogn
    from repro.verify.runtime import verify_chain_result

    for _name, chain, bound in _chain_cases():
        result = bandwidth_min_nlogn(chain, bound)
        verify_chain_result(chain, result.cut_indices, bound, result.weight)


_CERTIFIERS: Dict[str, Callable[[], None]] = {
    "chain": _certify_chain,
    "prime": _certify_prime,
    "engine": _certify_engine,
    "plan": _certify_plan,
    "tree": _certify_tree,
    "nicol": _certify_nicol,
}


# ----------------------------------------------------------------------
# Contract stage
# ----------------------------------------------------------------------


def _static_findings(source: str, path: Path) -> List[str]:
    """Lint + contract + pool-rule findings, line numbers stripped.

    Comments (and hence ``# repro-lint:`` pragmas) do not survive
    ``ast.unparse``, so absolute findings on a mutant rendering would be
    meaningless; the pipeline diffs these lists between the *unparsed
    pristine* and *unparsed mutant* sources instead, making pragma loss
    cancel out.
    """
    from repro.verify.lint import Module
    from repro.verify.passes import run

    module = Module(path, source)
    return sorted(
        f"{finding.code}: {finding.message}"
        for section in ("lint", "contracts", "flow")
        for finding in run(module, section)
    )


def _growth_probe() -> Optional[str]:
    """REPRO009-style spot check: op counts must stay near-linear.

    Catches correct-but-superlinear mutants (e.g. a window floor that
    forces the sweep to rescan) that produce right answers too slowly
    to notice on the tiny certificate workloads.
    """
    from repro.core.bandwidth import bandwidth_stats
    from repro.graphs.generators import random_chain

    ops: List[int] = []
    for n in (256, 1024):
        chain = random_chain(n, rng=random.Random(97 + n))
        stats = bandwidth_stats(chain, 3.0 * max(chain.alpha))
        ops.append(stats.search_steps + stats.p + stats.r + n)
    ratio = ops[1] / max(ops[0], 1)
    if ratio > 12.0:
        return (
            f"op-count growth ratio {ratio:.1f} over a 4x size increase "
            f"exceeds the near-linear budget (op counts {ops[0]} -> {ops[1]})"
        )
    return None


# ----------------------------------------------------------------------
# The kill pipeline (runs inside the sandbox child)
# ----------------------------------------------------------------------


class PipelineSpec:
    """Everything the sandboxed child needs — plain data, picklable.

    ``tests`` are repo-relative paths, so kill details name them the
    same way on every checkout."""

    __slots__ = (
        "module",
        "source",
        "tests",
        "suites",
        "golden",
        "pristine_findings",
        "findings_path",
    )

    def __init__(
        self,
        module: str,
        source: str,
        tests: Tuple[str, ...],
        suites: Tuple[str, ...],
        golden: Dict[str, str],
        pristine_findings: List[str],
        findings_path: str,
    ) -> None:
        self.module = module
        self.source = source
        self.tests = tests
        self.suites = suites
        self.golden = golden
        self.pristine_findings = pristine_findings
        self.findings_path = findings_path


def _killed(
    layer: str, detail: str, stages: List[Dict[str, str]]
) -> Dict[str, Any]:
    return {"status": "killed", "layer": layer, "detail": detail, "stages": stages}


def _first_difference(expected: str, actual: str) -> str:
    for exp_line, act_line in zip(expected.splitlines(), actual.splitlines()):
        if exp_line != act_line:
            return f"expected {exp_line.strip()!r}, got {act_line.strip()!r}"
    return (
        f"observation payloads differ in length "
        f"({len(expected)} vs {len(actual)} chars)"
    )


def _describe(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= 300 else text[:297] + "..."


def pipeline_entry(spec: PipelineSpec) -> Dict[str, Any]:
    """Run the staged kill pipeline; the sandbox child's target.

    Returns the verdict dict.  Only ever call this in a sandbox child:
    it installs the spec's (possibly mutated) source into the live
    module graph.
    """
    os.environ.pop("REPRO_VERIFY", None)  # certificates run explicitly
    stages: List[Dict[str, str]] = []
    try:
        install_module_source(spec.module, spec.source)
    except BaseException as exc:  # noqa: BLE001 - verdict, not control flow
        return _killed("import", _describe(exc), stages)
    stages.append({"layer": "import", "note": "module compiled and installed"})

    if spec.tests:
        import pytest

        rc = int(
            pytest.main(
                [
                    *(str(_repo_root() / rel) for rel in spec.tests),
                    "-x", "-q", "--no-header", "-p", "no:cacheprovider",
                ]
            )
        )
        if rc == 5:
            stages.append({"layer": "test", "note": "no tests collected (skipped)"})
        elif rc != 0:
            return _killed(
                "test",
                f"targeted pytest subset failed (exit {rc}): {', '.join(spec.tests)}",
                stages,
            )
        else:
            stages.append(
                {"layer": "test", "note": f"passed: {', '.join(spec.tests)}"}
            )

    try:
        for suite in spec.suites:
            _CERTIFIERS[suite]()
    except BaseException as exc:  # noqa: BLE001 - verdict, not control flow
        return _killed("certificate", _describe(exc), stages)
    stages.append(
        {
            "layer": "certificate",
            "note": f"all paper-invariant certificates held ({', '.join(spec.suites)})",
        }
    )

    for suite in spec.suites:
        try:
            actual = _canon(_SUITES[suite]())
        except BaseException as exc:  # noqa: BLE001 - verdict, not control flow
            return _killed("cross-check", f"[{suite}] {_describe(exc)}", stages)
        if actual != spec.golden[suite]:
            return _killed(
                "cross-check",
                f"[{suite}] observations diverged from golden: "
                + _first_difference(spec.golden[suite], actual),
                stages,
            )
    stages.append(
        {
            "layer": "cross-check",
            "note": "observations matched golden bit-for-bit "
            f"({', '.join(spec.suites)})",
        }
    )

    try:
        findings = _static_findings(spec.source, Path(spec.findings_path))
        fresh = _multiset_minus(findings, spec.pristine_findings)
        if fresh:
            return _killed("contract", f"new static finding: {fresh[0]}", stages)
        if "chain" in spec.suites:
            excess = _growth_probe()
            if excess is not None:
                return _killed("contract", excess, stages)
    except BaseException as exc:  # noqa: BLE001 - verdict, not control flow
        return _killed("contract", _describe(exc), stages)
    stages.append(
        {"layer": "contract", "note": "no new static findings; op growth near-linear"}
    )
    return {"status": "survived", "stages": stages}


def _multiset_minus(left: Sequence[str], right: Sequence[str]) -> List[str]:
    remaining = list(right)
    out: List[str] = []
    for item in left:
        try:
            remaining.remove(item)
        except ValueError:
            out.append(item)
    return out


# ----------------------------------------------------------------------
# Orchestration (parent process)
# ----------------------------------------------------------------------


def _warm_test_layer(test_paths: Sequence[str]) -> None:
    """Run the targeted tests once in the parent.

    Two jobs: verify the pristine subset is green (a red baseline would
    mark every mutant killed), and warm the imports that forked sandbox
    children inherit copy-on-write — the difference between ~0.2 s and
    ~2 s per mutant.
    """
    if not test_paths:
        return
    import pytest

    with silenced_output():
        rc = int(
            pytest.main(
                [*test_paths, "-x", "-q", "--no-header", "-p", "no:cacheprovider"]
            )
        )
    if rc not in (0, 5):
        raise MutationSetupError(
            f"pristine targeted tests failed (pytest exit {rc}) — refusing to "
            f"run mutation analysis on a red baseline: {', '.join(test_paths)}"
        )


def _module_source_path(module_name: str) -> Path:
    module = importlib.import_module(module_name)
    module_file = getattr(module, "__file__", None)
    if module_file is None:
        raise MutationSetupError(f"module {module_name} has no source file")
    return Path(module_file).resolve()


def _relative_to_root(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def run_mutation_analysis(
    modules: Optional[Sequence[str]] = None,
    budget: Optional[int] = None,
    seed: int = 0,
    test_layer: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run mutation analysis and return the versioned report dict.

    ``modules`` defaults to the full target registry; ``budget`` caps
    the total number of mutants via deterministic seeded sampling;
    ``test_layer=False`` drops the targeted-pytest stage (used by the
    engine's own fast tests).  ``progress`` receives human-oriented
    status lines (the CLI points it at stderr so ``--json`` stays
    machine-clean).
    """
    say = progress if progress is not None else (lambda _message: None)
    selected = list(modules) if modules else sorted(TARGETS)
    unknown = [m for m in selected if m not in TARGETS]
    if unknown:
        raise UnknownModuleError(
            f"unknown mutation target(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(TARGETS))})"
        )

    root = _repo_root()
    per_module: Dict[str, Dict[str, Any]] = {}
    pool: List[Tuple[str, MutationSite]] = []
    sources: Dict[str, str] = {}
    trees: Dict[str, ast.Module] = {}
    for name in selected:
        source_path = _module_source_path(name)
        source = source_path.read_text()
        tree = ast.parse(source)
        sources[name] = source
        trees[name] = tree
        sites = enumerate_sites(tree)
        annotations = equivalent_annotations(source)
        annotated = [s for s in sites if site_is_annotated(s, annotations)]
        open_sites = [s for s in sites if not site_is_annotated(s, annotations)]
        per_module[name] = {
            "file": _relative_to_root(source_path, root),
            "sites": len(sites),
            "annotated": len(annotated),
            "annotations": [
                {
                    "id": f"{name}::{s.operator}#{s.index}",
                    "operator": s.operator,
                    "line": s.lineno,
                    "description": s.description,
                }
                for s in annotated
            ],
            "sampled": 0,
            "killed": 0,
            "survived": 0,
            "kills_by_layer": {layer: 0 for layer in KILL_LAYERS},
            "mutants": [],
        }
        pool.extend((name, site) for site in open_sites)

    if budget is not None and 0 <= budget < len(pool):
        rng = random.Random(seed)
        chosen = rng.sample(range(len(pool)), budget)
        pool = [pool[i] for i in sorted(chosen)]
    for name, _site in pool:
        per_module[name]["sampled"] += 1

    active = [name for name in selected if per_module[name]["sampled"] > 0]
    say(
        f"mutate: {len(pool)} mutants across {len(active)} modules "
        f"(seed={seed}, budget={'all' if budget is None else budget})"
    )

    saved_verify = os.environ.pop("REPRO_VERIFY", None)
    try:
        if test_layer and active:
            test_union: List[str] = []
            for name in active:
                for rel in TARGETS[name].tests:
                    candidate = root / rel
                    if candidate.exists() and str(candidate) not in test_union:
                        test_union.append(str(candidate))
            say(f"mutate: warming {len(test_union)} targeted test files")
            _warm_test_layer(test_union)

        golden: Dict[str, str] = {}
        needed_suites: List[str] = []
        for name in active:
            for suite in TARGETS[name].suites:
                if suite not in needed_suites:
                    needed_suites.append(suite)
        for suite in needed_suites:
            say(f"mutate: computing golden observations [{suite}]")
            golden[suite] = _canon(_SUITES[suite]())

        specs: Dict[str, PipelineSpec] = {}
        timeouts: Dict[str, float] = {}
        renderings: Dict[str, str] = {}
        for name in active:
            target = TARGETS[name]
            tests: Tuple[str, ...] = ()
            if test_layer:
                tests = tuple(
                    rel for rel in target.tests if (root / rel).exists()
                )
            pristine_rendering = ast.unparse(trees[name])
            renderings[name] = pristine_rendering
            spec = PipelineSpec(
                module=name,
                source=sources[name],
                tests=tests,
                suites=target.suites,
                golden={suite: golden[suite] for suite in target.suites},
                pristine_findings=_static_findings(
                    pristine_rendering, Path(per_module[name]["file"])
                ),
                findings_path=per_module[name]["file"],
            )
            started = time.perf_counter()
            sanity = run_sandboxed(pipeline_entry, (spec,), timeout_s=600.0)
            elapsed = time.perf_counter() - started
            if sanity.status != "ok" or sanity.value.get("status") != "survived":
                raise MutationSetupError(
                    f"pristine pipeline for {name} did not survive its own kill "
                    f"pipeline ({sanity.status}: {sanity.value!r}) — the harness "
                    "is unstable, aborting"
                )
            specs[name] = spec
            timeouts[name] = max(30.0, 8.0 * elapsed)
            say(f"mutate: {name} pipeline sane ({elapsed:.2f}s pristine)")

        for position, (name, site) in enumerate(pool, start=1):
            spec = specs[name]
            mutant_tree = apply_site(trees[name], site)
            mutant_rendering = ast.unparse(mutant_tree)
            mutant_spec = PipelineSpec(
                module=name,
                source=mutant_rendering,
                tests=spec.tests,
                suites=spec.suites,
                golden=spec.golden,
                pristine_findings=spec.pristine_findings,
                findings_path=spec.findings_path,
            )
            outcome = run_sandboxed(
                pipeline_entry, (mutant_spec,), timeout_s=timeouts[name]
            )
            record: Dict[str, Any] = {
                "id": f"{name}::{site.operator}#{site.index}",
                "operator": site.operator,
                "index": site.index,
                "line": site.lineno,
                "col": site.col_offset,
                "description": site.description,
            }
            if outcome.status == "timeout":
                record.update(
                    status="killed", layer="timeout",
                    detail="mutant did not terminate within the sandbox deadline",
                )
            elif outcome.status == "crashed":
                record.update(
                    status="killed", layer="crash",
                    detail=f"sandbox child died: {outcome.value}",
                )
            else:
                verdict = outcome.value
                if verdict["status"] == "killed":
                    record.update(
                        status="killed",
                        layer=verdict["layer"],
                        detail=verdict["detail"],
                    )
                else:
                    record.update(
                        status="survived",
                        layer=None,
                        detail="every layer passed this mutant",
                        layers_passed=verdict["stages"],
                        diff=_source_diff(renderings[name], mutant_rendering),
                    )
            stats = per_module[name]
            stats["mutants"].append(record)
            if record["status"] == "killed":
                stats["killed"] += 1
                stats["kills_by_layer"][record["layer"]] += 1
            else:
                stats["survived"] += 1
            say(
                f"mutate: [{position}/{len(pool)}] {record['id']} "
                f"{record['status']}"
                + (f" ({record['layer']})" if record["status"] == "killed" else "")
            )
    finally:
        if saved_verify is not None:
            os.environ["REPRO_VERIFY"] = saved_verify

    report = _assemble_report(selected, per_module, seed, budget, test_layer)
    return report


def _source_diff(pristine: str, mutant: str, limit: int = 40) -> List[str]:
    diff = list(
        difflib.unified_diff(
            pristine.splitlines(),
            mutant.splitlines(),
            fromfile="pristine",
            tofile="mutant",
            lineterm="",
            n=2,
        )
    )
    if len(diff) > limit:
        diff = diff[:limit] + [f"... ({len(diff) - limit} more diff lines)"]
    return diff


def _package_of(module_name: str) -> str:
    parts = module_name.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module_name


def _score(killed: int, survived: int) -> float:
    considered = killed + survived
    return round(killed / considered, 4) if considered else 1.0


def _assemble_report(
    selected: List[str],
    per_module: Dict[str, Dict[str, Any]],
    seed: int,
    budget: Optional[int],
    test_layer: bool,
) -> Dict[str, Any]:
    totals = {"sites": 0, "annotated": 0, "sampled": 0, "killed": 0, "survived": 0}
    matrix = {layer: 0 for layer in KILL_LAYERS}
    packages: Dict[str, Dict[str, Any]] = {}
    for name in selected:
        stats = per_module[name]
        stats["score"] = _score(stats["killed"], stats["survived"])
        for key in totals:
            totals[key] += stats[key]
        for layer in KILL_LAYERS:
            matrix[layer] += stats["kills_by_layer"][layer]
        package = _package_of(name)
        bucket = packages.setdefault(
            package,
            {"modules": [], "sampled": 0, "killed": 0, "survived": 0},
        )
        bucket["modules"].append(name)
        bucket["sampled"] += stats["sampled"]
        bucket["killed"] += stats["killed"]
        bucket["survived"] += stats["survived"]

    failures: List[str] = []
    for package, bucket in sorted(packages.items()):
        bucket["score"] = _score(bucket["killed"], bucket["survived"])
        threshold = PACKAGE_THRESHOLDS.get(package)
        bucket["threshold"] = threshold
        if threshold is not None and bucket["sampled"] > 0:
            bucket["passed"] = bucket["score"] >= threshold
            if not bucket["passed"]:
                failures.append(
                    f"package {package} mutation score {bucket['score']:.2f} "
                    f"below threshold {threshold:.2f}"
                )
        else:
            bucket["passed"] = True

    return {
        "version": SCHEMA_VERSION,
        "seed": seed,
        "budget": budget,
        "test_layer": test_layer,
        "modules": {name: per_module[name] for name in selected},
        "packages": packages,
        "totals": {**totals, "score": _score(totals["killed"], totals["survived"])},
        "kills_by_layer": matrix,
        "failures": failures,
        "passed": not failures,
    }


# ----------------------------------------------------------------------
# Baseline gate and rendering
# ----------------------------------------------------------------------


def compare_to_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any]
) -> List[str]:
    """Regression check against a committed earlier report.

    Per-package scores (for packages present in both runs) must not
    drop, and neither may the overall score when every baseline package
    was re-measured.  Returns failure messages; the caller folds them
    into the report and the exit code.
    """
    failures: List[str] = []
    epsilon = 1e-9
    current = report.get("packages", {})
    compared_all = True
    for package, old in baseline.get("packages", {}).items():
        new = current.get(package)
        if new is None or new.get("sampled", 0) == 0:
            compared_all = False
            continue
        if new["score"] < old["score"] - epsilon:
            failures.append(
                f"package {package} mutation score regressed: "
                f"{new['score']:.4f} < baseline {old['score']:.4f}"
            )
    if compared_all:
        old_total = baseline.get("totals", {}).get("score")
        new_total = report.get("totals", {}).get("score")
        if old_total is not None and new_total is not None:
            if new_total < old_total - epsilon:
                failures.append(
                    f"overall mutation score regressed: "
                    f"{new_total:.4f} < baseline {old_total:.4f}"
                )
    return failures


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable report: summary, kill matrix, survivor triage."""
    lines: List[str] = []
    header = (
        f"{'module':<28} {'sites':>5} {'samp':>5} {'kill':>5} "
        f"{'surv':>5} {'annot':>5} {'score':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, stats in report["modules"].items():
        lines.append(
            f"{name:<28} {stats['sites']:>5} {stats['sampled']:>5} "
            f"{stats['killed']:>5} {stats['survived']:>5} "
            f"{stats['annotated']:>5} {stats['score']:>6.2f}"
        )
    totals = report["totals"]
    lines.append(
        f"{'TOTAL':<28} {totals['sites']:>5} {totals['sampled']:>5} "
        f"{totals['killed']:>5} {totals['survived']:>5} "
        f"{totals['annotated']:>5} {totals['score']:>6.2f}"
    )

    lines.append("")
    lines.append("kill matrix (kills attributed to the first catching layer):")
    matrix_header = "  " + "".join(f"{layer:>12}" for layer in KILL_LAYERS)
    lines.append(matrix_header)
    for name, stats in report["modules"].items():
        row = "".join(
            f"{stats['kills_by_layer'][layer]:>12}" for layer in KILL_LAYERS
        )
        lines.append(f"  {row}  {name}")

    lines.append("")
    for package, bucket in sorted(report["packages"].items()):
        threshold = bucket.get("threshold")
        gate = (
            f" (threshold {threshold:.2f}: "
            f"{'ok' if bucket['passed'] else 'FAIL'})"
            if threshold is not None
            else ""
        )
        lines.append(
            f"package {package}: score {bucket['score']:.2f} "
            f"({bucket['killed']} killed / {bucket['survived']} survived)"
            + gate
        )

    survivors = [
        (name, mutant)
        for name, stats in report["modules"].items()
        for mutant in stats["mutants"]
        if mutant["status"] == "survived"
    ]
    if survivors:
        lines.append("")
        lines.append(f"surviving mutants ({len(survivors)}) — triage:")
        for name, mutant in survivors:
            lines.append("")
            lines.append(
                f"  {mutant['id']} @ {report['modules'][name]['file']}:"
                f"{mutant['line']} — {mutant['description']}"
            )
            for stage in mutant.get("layers_passed", []):
                lines.append(f"    {stage['layer']:<12} {stage['note']}")
            for diff_line in mutant.get("diff", []):
                lines.append(f"    | {diff_line}")
    annotated_total = report["totals"]["annotated"]
    if annotated_total:
        lines.append("")
        lines.append(
            f"annotated-equivalent mutants excluded from scoring: {annotated_total}"
        )
    lines.append("")
    for failure in report["failures"]:
        lines.append(f"FAIL: {failure}")
    lines.append(
        "mutate: "
        + ("PASS" if report["passed"] else "FAIL")
        + f" (overall score {totals['score']:.2f} over {totals['sampled']} mutants)"
    )
    return "\n".join(lines)
