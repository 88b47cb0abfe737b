"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Output checking counts failures: one corrupted answer of each kind
   (chain cut, tree cut, ``repro batch`` line) is counted as failed.
2. Determinism: two traced runs with one seed give identical per-layer
   counts, and another seed changes them (except where the workload's
   design fixes them; see ``SEED_INDEPENDENT``).
3. Residual: in every traced run the leaf layers' self times explain the
   traced end-to-end time to within ``UNATTRIBUTED_BOUND``.
4. Contract: without the program's sources beside it, ``run.py`` exits
   non-zero and prints no result.

Exits 0 when every test passes.
"""

import json
import shutil
import subprocess
import sys

import harness

RUN = str(harness.ROOT / "perfbench" / "run.py")
#: Traced run length per workload; jsonl_mixed needs a few invocations
#: before its residual settles.
TRACE_SECONDS = {"cold_solve": 3, "bound_grid": 3, "jsonl_mixed": 12,
                 "tree_partition": 3}
#: bound_grid's counts do not depend on the seed: its grid is fixed and
#: every bound of a 20,000-task chain gets a stability interval of its
#: own, so each run builds one structure per bound and reuses each once
#: per pass.
SEED_INDEPENDENT = {"bound_grid"}


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(TRACE_SECONDS[workload]), "--trace", "1"],
        cwd=str(harness.ROOT), capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def corrupted_answers_are_counted():
    import checks
    from repro import Chain, PartitionEngine, Tree, partition_tree

    alpha, beta, k = [4.0, 3.0, 5.0, 2.0, 6.0], [7.0, 1.0, 9.0, 2.0], 9.0
    answer = PartitionEngine().solve(Chain(alpha, beta), k)
    tally = harness.Tally()
    tally.record(*checks.chain_answer(alpha, beta, k, answer.cut_indices,
                                      answer.weight, reference=True))
    tally.record(*checks.chain_answer(alpha, beta, k, answer.cut_indices,
                                      answer.weight + 1.0, reference=True))
    tree = Tree([3.0, 4.0, 5.0, 2.0], [(0, 1), (1, 2), (1, 3)], [1.0, 2.0, 3.0])
    plan = partition_tree(tree, 8.0)
    tally.record(*checks.tree_answer(tree, 8.0, plan.final_cut, plan.bottleneck))
    tally.record(*checks.tree_answer(tree, 8.0, set(), 0.0))
    line = json.dumps({"index": 0, "objective": "bandwidth", "bound": 2.0,
                       "cut": [0, 1, 2, 3], "weight": 19.0})
    tally.record(*checks.jsonl_line(0, (alpha, beta, 2.0, "bandwidth"), line))
    assert (tally.attempted, tally.failed) == (5, 3), tally.messages
    return f"{tally.failed} of {tally.attempted} answers counted as failed, as planted"


def counts_are_deterministic(runs):
    import workloads

    lines = []
    for workload, (first, again, other) in runs.items():
        counts = {name: first[name] for name in workloads.COUNTS}
        assert counts == {name: again[name] for name in workloads.COUNTS}, workload
        moving = sorted(name for name in counts if counts[name] != other[name])
        assert bool(moving) != (workload in SEED_INDEPENDENT), (workload, moving)
        lines.append(f"{workload}: counts repeat; seed 2 moves "
                     f"{', '.join(moving) or 'none, as designed'}")
    return "\n  ".join(lines)


def residual_within_bound(runs):
    import workloads

    lines = []
    for workload, (first, _, _) in runs.items():
        share = first["bench.unattributed_share"]
        assert abs(share) <= workloads.UNATTRIBUTED_BOUND, (workload, share)
        lines.append(f"{workload}: unattributed {share:+.4f}")
    return "\n  ".join(lines)


def bare_directory_is_refused():
    bare = harness.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cold_solve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    return f"exit {proc.returncode}, no result printed"


def main() -> int:
    sys.path.insert(0, str(harness.SRC))
    import workloads

    runs = {}
    for workload in workloads.WORKLOADS:
        outputs = []
        for seed in (1, 1, 2):
            result, values = _traced(workload, seed)
            assert result["correct"] and result["failed"] == 0, (workload, result)
            outputs.append(values)
        runs[workload] = outputs
    tests = [
        ("corrupted answers are counted", corrupted_answers_are_counted),
        ("counts are deterministic", lambda: counts_are_deterministic(runs)),
        ("residual within bound", lambda: residual_within_bound(runs)),
        ("bare directory is refused", bare_directory_is_refused),
    ]
    failed = 0
    for name, test in tests:
        try:
            print(f"ok   {name}\n  {test()}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
