"""The pure-Python reference runs where NumPy cannot be imported, and so
does the engine wherever the native library builds.

``pyproject.toml`` and ``docs/architecture.md`` both promise it:
:mod:`repro.core` is the reference and needs nothing but the standard
library, and the engine's native route (``_sweep.c``) needs no NumPy
either.  A child interpreter makes every ``import numpy`` fail and runs
the solvers there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


ENGINE_SCRIPT = """
import json, os, random, sys, tempfile

sys.modules["numpy"] = None  # every ``import numpy`` now raises ImportError

from repro.engine import kernels

if not kernels.native_sweep_loaded():
    print("skip")
    sys.exit(0)

from repro.cli import main
from repro.core.pipeline import partition_chain
from repro.engine import OBJECTIVES, PartitionEngine
from repro.graphs.chain import Chain

rng = random.Random(29)
engine = PartitionEngine()
queries = []
for n in (1, 2, 7, 60, 300):
    alpha = [rng.randint(1, 40) * 0.1 for _ in range(n)]
    beta = [rng.randint(0, 30) * 0.1 for _ in range(n - 1)]
    chain = Chain(alpha, beta)
    bounds = [max(alpha) * r for r in (1.0, 1.5, 2.5, 4.0)] + [sum(alpha)]
    for objective in OBJECTIVES:
        for bound in bounds:
            want = partition_chain(chain, bound, objective)
            got = engine.solve(chain, bound, objective)
            assert list(got.cut_indices) == list(want.cut_indices), (n, objective, bound)
            assert got.weight.hex() == want.weight.hex(), (n, objective, bound)
            queries.append((alpha, beta, bound, objective, want))
    weights, cuts = engine.solve_sweep(chain, bounds, return_cuts=True)
    for bound, weight, cut in zip(bounds, weights, cuts):
        want = partition_chain(chain, bound, "bandwidth")
        assert cut == list(want.cut_indices) and weight.hex() == want.weight.hex()

with tempfile.TemporaryDirectory() as tmp:
    src, dst = os.path.join(tmp, "in.jsonl"), os.path.join(tmp, "out.jsonl")
    with open(src, "w") as handle:
        for alpha, beta, bound, objective, _ in queries:
            handle.write(json.dumps({"alpha": alpha, "beta": beta, "bound": bound,
                                     "objective": objective}) + "\\n")
    assert main(["batch", "--input", src, "--output", dst]) == 0
    with open(dst) as handle:
        lines = handle.read().splitlines()
assert len(lines) == len(queries)
for line, (_, _, _, _, want) in zip(lines, queries):
    record = json.loads(line)
    assert record["cut"] == list(want.cut_indices), record
    assert record["weight"].hex() == want.weight.hex(), record
assert sys.modules["numpy"] is None
print("ok")
"""


NO_KERNEL_SCRIPT = """
import random, sys

sys.modules["numpy"] = None  # every ``import numpy`` now raises ImportError

from repro.engine import native

native.load_sweep = lambda: None  # and the native library does not load

from repro.core.pipeline import partition_chain
from repro.engine import PartitionEngine, PartitionQuery
from repro.graphs.chain import Chain

rng = random.Random(32)
engine = PartitionEngine()
queries, wants = [], []
for n in (1, 2, 7, 40):
    alpha = [rng.randint(1, 40) * 0.1 for _ in range(n)]
    beta = [rng.randint(0, 30) * 0.1 for _ in range(n - 1)]
    chain = Chain(alpha, beta)
    for bound in (max(alpha), 1.5 * max(alpha), sum(alpha)):
        want = partition_chain(chain, bound, "bottleneck+bandwidth")
        got = engine.solve(chain, bound, "bottleneck+bandwidth")
        assert got.cut_indices == want.cut_indices, (n, bound)
        assert got.weight.hex() == want.weight.hex(), (n, bound)
        queries.append(PartitionQuery(tuple(alpha), tuple(beta), bound,
                                      "bottleneck+bandwidth"))
        wants.append(want)
for result, want in zip(engine.solve_many(queries), wants):
    assert result.error is None, result.error
    assert result.cut_indices == want.cut_indices, result
    assert result.weight.hex() == want.weight.hex(), result
assert sys.modules["numpy"] is None
print("ok")
"""


def _run_without_numpy(script):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_VERIFY"}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_reference_solvers_run_without_numpy():
    assert _run_without_numpy(SCRIPT) == "ok"


def test_engine_runs_without_numpy_on_the_native_route():
    out = _run_without_numpy(ENGINE_SCRIPT)
    if out == "skip":
        pytest.skip("native library unavailable (no gcc?)")
    assert out == "ok"


def test_engine_lexicographic_runs_without_any_kernel():
    assert _run_without_numpy(NO_KERNEL_SCRIPT) == "ok"
