"""Benchmark entry point.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 22 --trace 0

Prints a short report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, every per-layer metric with ``--trace 1``.
Exits 2 without a result when the program's sources are not beside it.
"""

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_solve", "bound_grid", "jsonl_mixed", "tree_partition"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not harness.program_present():
        print(f"perfbench: no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    harness.pin_to_one_cpu()
    sys.path.insert(0, str(harness.SRC))
    import workloads

    run = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = workloads.per_layer(run) if args.trace else workloads.end_to_end(run)
    for line in run.lines + run.tally.messages:
        print(line)
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
