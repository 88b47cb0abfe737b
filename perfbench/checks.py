"""Answer checks, run off the clock.  Each returns ``(ok, message)``."""

import json

from repro import Chain, bandwidth_min
from repro.verify.certificates import check_chain_partition, check_tree_cut


def chain_answer(alpha, beta, k, cut, weight, objective="bandwidth", reference=False):
    """Certificate check of a chain cut; with ``reference``, a bandwidth
    answer must also equal the pure-Python solver's bit for bit."""
    chain = Chain(alpha, beta)
    report = check_chain_partition(chain, cut, k, claimed_weight=weight)
    if not report.ok:
        return False, f"{objective} K={k!r}: {report.violations[0].message}"
    if reference and objective == "bandwidth":
        ref = bandwidth_min(chain, k, backend="python")
        if ref.weight != weight or list(ref.cut_indices) != list(cut):
            return False, (
                f"K={k!r}: weight {weight!r} differs from the reference "
                f"{ref.weight!r}"
            )
    return True, ""


def tree_answer(tree, k, final_cut, bottleneck):
    report = check_tree_cut(tree, sorted(final_cut), k, claimed_bottleneck=bottleneck)
    if not report.ok:
        return False, f"tree K={k!r}: {report.violations[0].message}"
    return True, ""


def jsonl_line(index, query, line, reference=False):
    """One ``repro batch`` output line against its query.  An infeasible
    bound must yield the per-query error record."""
    alpha, beta, k, objective = query
    try:
        record = json.loads(line)
    except ValueError:
        return False, f"line {index}: not JSON"
    if record.get("index") != index or record.get("objective") != objective:
        return False, f"line {index}: index/objective mismatch"
    if k < max(alpha):
        if "error" in record and "cut" not in record:
            return True, ""
        return False, f"line {index}: infeasible K={k!r} without an error record"
    if "error" in record:
        return False, f"line {index}: unexpected error {record['error']!r}"
    return chain_answer(alpha, beta, k, record["cut"], record["weight"],
                        objective, reference)
