"""Non-finite inputs are rejected at every boundary, identically.

NaN fails every comparison, so a ``weight <= 0`` check lets it through
and the solvers then disagree on the garbage (the reference once
answered 2.0 where the NumPy engine answered 0.0).  One rule,
``0 < x < inf``, now guards task weights and bounds (edge weights may
also be zero), and JSONL input refuses the ``NaN``/``Infinity`` tokens
and overflowing literals such as ``1e999`` alike.
"""

import json
import math
import typing

import pytest

from repro.cli import main
from repro.core.bandwidth import bandwidth_min
from repro.engine import PartitionEngine, PartitionQuery
from repro.exitcodes import EXIT_USAGE
from repro.graphs.chain import Chain

ALPHA = [4.0, 3.0, 5.0, 2.0, 6.0]
BETA = [7.0, 1.0, 9.0, 2.0]
BOUND = 9.0


def _core(alpha, beta, bound):
    return bandwidth_min(Chain(alpha, beta), bound)


def _engine(alpha, beta, bound):
    return PartitionEngine().solve(Chain(alpha, beta), bound)


def _sweep(alpha, beta, bound):
    return PartitionEngine().solve_sweep(Chain(alpha, beta), [bound, 2 * BOUND])


# (value, its JSON spelling): the JSON tokens, and overflowing literals
# that json.loads turns into infinities without any token.
NON_FINITE = [
    (math.nan, "NaN"),
    (math.inf, "Infinity"),
    (-math.inf, "-Infinity"),
    (math.inf, "1e999"),
    (-math.inf, "-1e999"),
]


@pytest.mark.parametrize("value,literal", NON_FINITE,
                         ids=[literal for _, literal in NON_FINITE])
@pytest.mark.parametrize("slot", ["alpha", "beta", "bound"])
def test_non_finite_rejected_everywhere(tmp_path, slot, value, literal):
    alpha, beta, bound = list(ALPHA), list(BETA), BOUND
    if slot == "alpha":
        alpha[1] = value
    elif slot == "beta":
        beta[1] = value
    else:
        bound = value
    for solve in (_core, _engine, _sweep):
        with pytest.raises(ValueError):
            solve(alpha, beta, bound)
    record = {"alpha": list(ALPHA), "beta": list(BETA), "bound": BOUND}
    if slot == "bound":
        record["bound"] = "@"
    else:
        record[slot][1] = "@"
    line = json.dumps(record).replace('"@"', literal)
    with pytest.raises(ValueError, match="non-finite"):
        PartitionQuery.from_json(line)
    inp, out = tmp_path / "q.jsonl", tmp_path / "r.jsonl"
    inp.write_text(line + "\n")
    assert main(["batch", "--input", str(inp), "--output", str(out)]) == EXIT_USAGE


def test_finite_answer_unchanged():
    # The Figure 1 query still answers through every entry point.
    for solve in (_core, _engine):
        result = solve(ALPHA, BETA, BOUND)
        assert (result.cut_indices, result.weight) == ([1, 3], 3.0)


@pytest.mark.parametrize(
    "method",
    ["solve", "solve_sweep", "solve_many", "solve_jsonl", "emit"],
)
def test_public_engine_methods_have_resolvable_type_hints(method):
    # Every annotation must name an imported type, so tools that call
    # typing.get_type_hints (doc builders, validators) do not crash.
    hints = typing.get_type_hints(getattr(PartitionEngine, method))
    assert "return" in hints
