"""Mutation-analysis engine: prove the tests kill solver bugs.

The tier-1 tests are only worth their cost if they would actually
catch a regression in Algorithm 4.1's prime-subpath sweep or the tree
greedy.  This module measures that: it seeds semantic faults with the
domain-aware operators of :mod:`repro.verify.operators`, runs each
mutant through a kill pipeline in a fork sandbox
(:mod:`repro.verify.sandbox`), and reports a kill matrix attributing
every kill to the layer that caught it.

Only product code is mutated: the solvers, the tree substrate, the
engine's kernels, plan and cache, and the Nicol baseline
(:data:`TARGETS`).  The static analyzers are checkers, not targets;
their own unit tests and the fixture corpus under
``tests/verify/fixtures/`` pin what they report.

Kill pipeline order::

    import -> test

where ``test`` runs the target's own test files (:data:`TARGETS`), the
one oracle: a mutant no test notices needs a new test or a
``# repro-mutate: equivalent=`` annotation.  Two pseudo-layers follow:
``timeout`` (non-terminating mutants — flipped ``while`` predicates —
killed by the sandbox deadline) and ``crash`` (child died without a
verdict).

Scoring follows the standard definition: ``killed / (killed +
survived)``, with annotated-equivalent mutants excluded from the
denominator entirely.  Survivors are triaged in the report with their
source diff and the layers that passed them.

Determinism contract: site enumeration is canonical (see
:mod:`~repro.verify.operators`), sampling uses ``random.Random(seed)``,
and the report carries no timing fields — two runs at the same seed on
the same tree produce byte-identical ``--json`` output, which is what
the committed CI baseline diffs against.
"""

from __future__ import annotations

import ast
import difflib
import importlib
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
from repro.verify.sandbox import install_module_source, run_sandboxed, silenced_output

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
SCHEMA_VERSION = 2

#: Kill-attribution layers, in pipeline order (pseudo-layers last).
KILL_LAYERS = ("import", "test", "timeout", "crash")

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
    """One mutable module and the test files that must kill its mutants."""

    __slots__ = ("module", "tests")

    def __init__(self, module: str, tests: Tuple[str, ...]) -> None:
        self.module = module
        self.tests = tests


#: The mutable surface: every product module whose bugs the tests claim
#: to catch.  Test paths are relative to the repo root.
TARGETS: Dict[str, MutationTarget] = {
    t.module: t
    for t in (
        MutationTarget("repro.core.bandwidth", ("tests/core/test_bandwidth.py",)),
        MutationTarget(
            "repro.core.prime_subpaths", ("tests/core/test_prime_subpaths.py",)
        ),
        MutationTarget("repro.core.temp_s", ("tests/core/test_temp_s.py",)),
        MutationTarget("repro.core.bottleneck", ("tests/core/test_bottleneck.py",)),
        MutationTarget("repro.core.pipeline", ("tests/core/test_pipeline.py",)),
        MutationTarget(
            "repro.graphs.tree",
            ("tests/graphs/test_tree.py", "tests/core/test_bottleneck.py"),
        ),
        MutationTarget(
            "repro.engine.kernels",
            ("tests/engine/test_kernels.py", "tests/engine/test_native_sweep.py"),
        ),
        MutationTarget("repro.engine.cache", ("tests/engine/test_cache.py",)),
        MutationTarget("repro.engine.plan", ("tests/engine/test_plan.py",)),
        MutationTarget("repro.baselines.nicol", ("tests/baselines/test_nicol.py",)),
    )
}


def _repo_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# The kill pipeline (runs inside the sandbox child)
# ----------------------------------------------------------------------


class PipelineSpec:
    """Everything the sandboxed child needs — plain data, picklable.

    ``tests`` are repo-relative paths, so kill details name them the
    same way on every checkout."""

    __slots__ = ("module", "source", "tests")

    def __init__(self, module: str, source: str, tests: Tuple[str, ...]) -> None:
        self.module = module
        self.source = source
        self.tests = tests


def _describe(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return text if len(text) <= 300 else text[:297] + "..."


def pipeline_entry(spec: PipelineSpec) -> Dict[str, Any]:
    """Run the kill pipeline; the sandbox child's target.

    Returns the verdict dict.  Only ever call this in a sandbox child:
    it installs the spec's (possibly mutated) source into the live
    module graph.
    """
    try:
        install_module_source(spec.module, spec.source)
    except BaseException as exc:  # noqa: BLE001 - verdict, not control flow
        return {"status": "killed", "layer": "import", "detail": _describe(exc)}
    import pytest

    rc = int(
        pytest.main(
            [
                *(str(_repo_root() / rel) for rel in spec.tests),
                "-x", "-q", "--no-header", "-p", "no:cacheprovider",
            ]
        )
    )
    tests = ", ".join(spec.tests)
    if rc != 0:
        return {
            "status": "killed",
            "layer": "test",
            "detail": f"targeted pytest subset failed (exit {rc}): {tests}",
        }
    return {
        "status": "survived",
        "stages": [
            {"layer": "import", "note": "module compiled and installed"},
            {"layer": "test", "note": f"passed: {tests}"},
        ],
    }


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
    import pytest

    with silenced_output():
        rc = int(
            pytest.main(
                [*test_paths, "-x", "-q", "--no-header", "-p", "no:cacheprovider"]
            )
        )
    if rc != 0:
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
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run mutation analysis and return the versioned report dict.

    ``modules`` defaults to the full target registry; ``budget`` caps
    the total number of mutants via deterministic seeded sampling.
    ``progress`` receives human-oriented status lines (the CLI points
    it at stderr so ``--json`` stays machine-clean).
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
    trees: Dict[str, ast.Module] = {}
    for name in selected:
        source_path = _module_source_path(name)
        source = source_path.read_text()
        tree = ast.parse(source)
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
        tests: Dict[str, Tuple[str, ...]] = {}
        for name in active:
            tests[name] = tuple(
                rel for rel in TARGETS[name].tests if (root / rel).exists()
            )
            if not tests[name]:
                raise MutationSetupError(f"no test file of {name} exists")
        if active:
            test_union = sorted(
                {str(root / rel) for name in active for rel in tests[name]}
            )
            say(f"mutate: warming {len(test_union)} targeted test files")
            _warm_test_layer(test_union)

        timeouts: Dict[str, float] = {}
        renderings: Dict[str, str] = {}
        for name in active:
            renderings[name] = ast.unparse(trees[name])
            started = time.perf_counter()
            sanity = run_sandboxed(
                pipeline_entry,
                (PipelineSpec(name, renderings[name], tests[name]),),
                timeout_s=600.0,
            )
            elapsed = time.perf_counter() - started
            if sanity.status != "ok" or sanity.value.get("status") != "survived":
                raise MutationSetupError(
                    f"pristine pipeline for {name} did not survive its own kill "
                    f"pipeline ({sanity.status}: {sanity.value!r}) — the harness "
                    "is unstable, aborting"
                )
            timeouts[name] = max(30.0, 8.0 * elapsed)
            say(f"mutate: {name} pipeline sane ({elapsed:.2f}s pristine)")

        for position, (name, site) in enumerate(pool, start=1):
            mutant_rendering = ast.unparse(apply_site(trees[name], site))
            outcome = run_sandboxed(
                pipeline_entry,
                (PipelineSpec(name, mutant_rendering, tests[name]),),
                timeout_s=timeouts[name],
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

    return _assemble_report(selected, per_module, seed, budget)


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
