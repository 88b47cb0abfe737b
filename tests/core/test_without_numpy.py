"""The pure-Python reference runs where NumPy cannot be imported.

``pyproject.toml`` and ``docs/architecture.md`` both promise it:
:mod:`repro.core` is the reference and needs nothing but the standard
library.  A child interpreter makes every ``import numpy`` fail and runs
the reference solvers there.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import sys

sys.modules["numpy"] = None  # every ``import numpy`` now raises ImportError

from repro.core.bandwidth import bandwidth_min
from repro.core.pipeline import partition_chain, partition_tree
from repro.core.prime_subpaths import compute_prime_structure
from repro.graphs.chain import Chain
from repro.graphs.tree import Tree

chain = Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])
result = bandwidth_min(chain, 9)
assert (result.cut_indices, result.weight) == ([1, 3], 3.0), result
structure = compute_prime_structure(chain, 9)
assert [(p.first_task, p.last_task) for p in structure.primes] == [
    (0, 2), (1, 3), (2, 4)
], structure.primes
for objective in ("bandwidth", "bottleneck", "processors",
                  "bottleneck+processors", "bottleneck+bandwidth"):
    answer = partition_chain(chain, 9, objective)
    assert chain.is_feasible_cut(answer.cut_indices, 9), objective
tree = Tree(
    [4.0, 3.0, 5.0, 2.0, 6.0, 1.0, 3.0],
    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],
    [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
)
plan = partition_tree(tree, 9.0)
assert max(tree.component_weights(plan.final_cut)) <= 9.0, plan
assert sys.modules["numpy"] is None
print("ok")
"""


def test_reference_solvers_run_without_numpy():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_VERIFY"}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
