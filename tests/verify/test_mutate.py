"""Tests for the mutation-analysis engine (:mod:`repro.verify.mutate`).

Covers the pure pieces (score math, baseline gate, report schema) plus
a small end-to-end run proving that seeded sampling and the emitted
JSON are deterministic under a fixed seed — the property the CI
baseline diff gate depends on.
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.verify.mutate import (
    KILL_LAYERS,
    PACKAGE_THRESHOLDS,
    SCHEMA_VERSION,
    TARGETS,
    UnknownModuleError,
    compare_to_baseline,
    run_mutation_analysis,
    _score,
)

MODULE = "repro.core.bottleneck"
REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def twin_reports():
    """Two independent budgeted runs with the same seed, each through
    the full sandbox path: import, then the target's test files."""
    kwargs = dict(modules=[MODULE], budget=3, seed=11)
    return run_mutation_analysis(**kwargs), run_mutation_analysis(**kwargs)


class TestScoreMath:
    def test_score_rounding_and_empty_pool(self):
        assert _score(0, 0) == 1.0
        assert _score(3, 1) == 0.75
        assert _score(2, 1) == round(2 / 3, 4)

    def test_thresholds_cover_the_acceptance_packages(self):
        assert PACKAGE_THRESHOLDS["repro.core"] >= 0.85
        assert PACKAGE_THRESHOLDS["repro.engine"] >= 0.85
        assert PACKAGE_THRESHOLDS["repro.baselines"] >= 0.85

    def test_only_product_code_is_mutated(self):
        # The analyzers are checkers, not targets: their unit tests and
        # the tests/verify/fixtures corpus pin what they report.
        assert not [name for name in TARGETS if name.startswith("repro.verify.")]
        assert set(PACKAGE_THRESHOLDS) == {
            "repro.core", "repro.engine", "repro.baselines", "repro.graphs",
        }


class TestSelection:
    def test_unknown_module_rejected(self):
        with pytest.raises(UnknownModuleError, match="no.such.module"):
            run_mutation_analysis(modules=["no.such.module"])

    def test_zero_budget_samples_nothing_but_reports_schema(self):
        report = run_mutation_analysis(modules=[MODULE], budget=0, seed=1)
        assert report["version"] == SCHEMA_VERSION
        assert report["totals"]["sampled"] == 0
        assert report["totals"]["score"] == 1.0
        assert report["passed"] is True
        stats = report["modules"][MODULE]
        assert stats["sampled"] == 0
        # Site enumeration still ran: the pool existed before sampling.
        assert stats["sites"] > 0
        assert set(report["kills_by_layer"]) == set(KILL_LAYERS)

    def test_every_registered_target_has_tests(self):
        for name, target in TARGETS.items():
            assert target.tests, name
            assert all((REPO / rel).is_file() for rel in target.tests), name

    def test_tests_are_the_only_oracle(self):
        assert KILL_LAYERS == ("import", "test", "timeout", "crash")


class TestDeterminism:
    def test_same_seed_same_report(self, twin_reports):
        first, second = twin_reports
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_budget_respected_and_score_consistent(self, twin_reports):
        report, _ = twin_reports
        stats = report["modules"][MODULE]
        assert stats["sampled"] == 3
        assert stats["killed"] + stats["survived"] == 3
        assert stats["score"] == _score(stats["killed"], stats["survived"])
        totals = report["totals"]
        assert totals["score"] == _score(totals["killed"], totals["survived"])
        layer_kills = sum(report["kills_by_layer"].values())
        assert layer_kills == totals["killed"]

    def test_mutant_records_carry_triage_fields(self, twin_reports):
        report, _ = twin_reports
        for record in report["modules"][MODULE]["mutants"]:
            assert record["id"].startswith(f"{MODULE}::")
            assert record["status"] in ("killed", "survived")
            if record["status"] == "killed":
                assert record["layer"] in KILL_LAYERS
            assert record["line"] > 0


class TestBaselineGate:
    @staticmethod
    def _report(core=0.9, engine=0.95, total=0.92, core_sampled=10):
        return {
            "packages": {
                "repro.core": {"score": core, "sampled": core_sampled},
                "repro.engine": {"score": engine, "sampled": 12},
            },
            "totals": {"score": total},
        }

    def test_no_regression_passes(self):
        baseline = self._report()
        assert compare_to_baseline(self._report(), baseline) == []
        assert compare_to_baseline(self._report(core=0.95, total=0.93), baseline) == []

    def test_package_regression_fails(self):
        failures = compare_to_baseline(self._report(core=0.85), self._report())
        assert any("repro.core" in f and "regressed" in f for f in failures)

    def test_overall_regression_fails_when_all_packages_measured(self):
        failures = compare_to_baseline(self._report(total=0.80), self._report())
        assert any("overall" in f for f in failures)

    def test_partial_run_skips_overall_gate(self):
        # A --modules run that re-measures only repro.engine must not
        # trip the overall gate (its total covers a different universe),
        # but missing packages also must not count as regressions.
        partial = {
            "packages": {"repro.engine": {"score": 0.95, "sampled": 12}},
            "totals": {"score": 0.10},
        }
        assert compare_to_baseline(partial, self._report()) == []

    def test_unsampled_package_treated_as_missing(self):
        current = self._report(core=0.0, core_sampled=0, total=0.5)
        assert compare_to_baseline(current, self._report()) == []

    def test_cli_exit_code_fails_on_regression(self, tmp_path, monkeypatch, capsys):
        # End-to-end through the CLI (engine monkeypatched so no
        # sandbox forks): a score drop against --baseline must flip the
        # exit code and surface the regression in the report.
        fake = {
            "version": SCHEMA_VERSION,
            "packages": {"repro.core": {"score": 0.80, "sampled": 9}},
            "totals": {"score": 0.80},
            "failures": [],
            "passed": True,
        }
        monkeypatch.setattr(
            "repro.verify.mutate.run_mutation_analysis", lambda **kw: fake
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self._report(core=0.9, total=0.9)))
        rc = main(["mutate", "--json", "--quiet", "--baseline", str(baseline)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["passed"] is False
        assert any("regressed" in f for f in payload["failures"])


class TestJsonSchemas:
    def test_analyze_json_is_versioned(self, capsys):
        rc = main(["analyze", "--json", "src/repro/core/temp_s.py"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["version"] == 2
        assert payload["passed"] is True
        assert "contracts" in payload and "flow" not in payload

    def test_mutate_report_is_versioned(self, twin_reports):
        report, _ = twin_reports
        assert report["version"] == SCHEMA_VERSION == 2
        assert set(report["kills_by_layer"]) == set(KILL_LAYERS)
        assert "test_layer" not in report
        for key in ("seed", "budget", "modules", "packages", "totals",
                    "kills_by_layer", "failures", "passed"):
            assert key in report


def _detail_strings(node):
    """Every ``detail`` and stage ``note`` string in a report."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("detail", "note") and isinstance(value, str):
                yield value
            else:
                yield from _detail_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _detail_strings(value)


class TestPortableDetails:
    """Kill details name test files relative to the repository root, so
    reports and the committed baseline read the same on any checkout."""

    @staticmethod
    def absolute_paths(report):
        return [
            word
            for text in _detail_strings(report)
            for word in text.replace(",", " ").split()
            if word.startswith("/") or os.path.isabs(word)
        ]

    def test_test_layer_details_are_repo_relative(self, twin_reports):
        report, _ = twin_reports
        details = list(_detail_strings(report))
        assert any("tests/core/test_bottleneck.py" in d for d in details)
        assert self.absolute_paths(report) == []

    def test_committed_baseline_has_no_absolute_paths(self):
        baseline = json.loads((REPO / "mutation-baseline.json").read_text())
        assert self.absolute_paths(baseline) == []
