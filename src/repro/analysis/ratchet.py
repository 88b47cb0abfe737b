"""The benchmark ratchet: committed speedups CI must keep earning.

``benchmarks/test_bench_engine.py`` measures the engine's speedups over
the seed scalar path (the cached sweep, the compiled-plan sweep cold and
warm) and, when ``REPRO_BENCH_SNAPSHOT`` is set,
writes them to a JSON snapshot.  The repo commits one such snapshot
(``BENCH_engine.json``); this module compares a freshly measured
snapshot against it and fails when any committed speedup regressed by
more than the tolerance.

Only *ratio* fields ratchet.  Absolute medians (``median_ns``) are
recorded for context but never gated: wall-clock depends on the host,
while a speedup is measured against the seed path *on the same host in
the same run* and is therefore comparable across machines.  A benchmark
present in the baseline must exist in the fresh snapshot — silently
dropping a measurement is itself a regression.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["SNAPSHOT_VERSION", "compare_snapshots", "render_comparison"]

#: Schema version of the snapshot files this module understands.
SNAPSHOT_VERSION = 1


def _check_schema(label: str, snapshot: Dict[str, Any]) -> None:
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"{label} snapshot has version {version!r}; "
            f"this tool understands version {SNAPSHOT_VERSION}"
        )
    if not isinstance(snapshot.get("benchmarks"), dict):
        raise ValueError(f"{label} snapshot has no 'benchmarks' mapping")


def compare_snapshots(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float = 0.20,
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Diff two snapshots; returns ``(rows, failures)``.

    One row per (benchmark, ratio-field) pair in the baseline, each with
    the baseline value, the fresh value, the relative change, and the
    gate floor ``baseline * (1 - tolerance)``.  ``failures`` holds the
    human-readable messages for every row below its floor and for every
    baseline benchmark missing from the fresh snapshot.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance:g}")
    _check_schema("baseline", baseline)
    _check_schema("fresh", fresh)
    rows: List[Dict[str, Any]] = []
    failures: List[str] = []
    fresh_benchmarks = fresh["benchmarks"]
    for name, base_entry in sorted(baseline["benchmarks"].items()):
        fresh_entry = fresh_benchmarks.get(name)
        if fresh_entry is None:
            failures.append(
                f"benchmark {name} is in the baseline but missing from the "
                f"fresh snapshot"
            )
            continue
        for field, base_value in sorted(base_entry.items()):
            if field == "median_ns" or not isinstance(
                base_value, (int, float)
            ):
                continue
            fresh_value = fresh_entry.get(field)
            floor = base_value * (1.0 - tolerance)
            row = {
                "benchmark": name,
                "field": field,
                "baseline": base_value,
                "fresh": fresh_value,
                "floor": round(floor, 2),
            }
            if not isinstance(fresh_value, (int, float)):
                failures.append(
                    f"{name}.{field}: fresh snapshot has no measurement "
                    f"(baseline {base_value:g})"
                )
                row["passed"] = False
            elif fresh_value < floor:
                failures.append(
                    f"{name}.{field} regressed: {fresh_value:g} < floor "
                    f"{floor:g} (baseline {base_value:g}, "
                    f"tolerance {tolerance:.0%})"
                )
                row["passed"] = False
            else:
                row["passed"] = True
            rows.append(row)
    return rows, failures


def render_comparison(
    rows: List[Dict[str, Any]], failures: List[str]
) -> str:
    """Human-readable ratchet report."""
    lines: List[str] = []
    header = (
        f"{'benchmark':<32} {'field':<10} {'baseline':>9} "
        f"{'fresh':>9} {'floor':>9}  verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        fresh = row["fresh"]
        fresh_text = f"{fresh:>9g}" if isinstance(fresh, (int, float)) else (
            f"{'-':>9}"
        )
        lines.append(
            f"{row['benchmark']:<32} {row['field']:<10} "
            f"{row['baseline']:>9g} {fresh_text} {row['floor']:>9g}  "
            + ("ok" if row["passed"] else "FAIL")
        )
    lines.append("")
    for failure in failures:
        lines.append(f"FAIL: {failure}")
    lines.append(
        "ratchet: " + ("PASS" if not failures else "FAIL")
        + f" ({sum(1 for r in rows if r['passed'])}/{len(rows)} gates held)"
    )
    return "\n".join(lines)
