"""Per-rule tests for :mod:`repro.verify.lint` (REPRO002, REPRO005,
REPRO012), the pragma grammar every pass shares, and the command-line
entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify.lint import RULES, iter_python_files, main, module_name
from repro.verify.passes import analyze, check_source

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def codes(source: str, path: str) -> list:
    return [f.code for f in check_source("lint", source, Path(path))]


LIB = "src/repro/core/example.py"


class TestRepro002Slots:
    def test_unslotted_core_class_flagged(self):
        assert codes("class A:\n    pass\n", LIB) == ["REPRO002"]

    def test_unslotted_engine_class_flagged(self):
        src = "class A:\n    x = 1\n"
        assert codes(src, "src/repro/engine/thing.py") == ["REPRO002"]

    def test_slotted_class_clean(self):
        assert codes("class A:\n    __slots__ = ('x',)\n", LIB) == []

    def test_annotated_slots_clean(self):
        src = "class A:\n    __slots__: tuple = ('x',)\n"
        assert codes(src, LIB) == []

    def test_outside_hot_packages_not_checked(self):
        assert codes("class A:\n    pass\n", "src/repro/analysis/sweep.py") == []

    def test_simulator_packages_are_checked(self):
        # desim/realtime/machine allocate per-event and per-stage
        # objects in hot loops; REPRO002 covers them too.
        for path in (
            "src/repro/desim/events.py",
            "src/repro/realtime/schedule.py",
            "src/repro/machine/executor.py",
        ):
            assert codes("class A:\n    pass\n", path) == ["REPRO002"]

    def test_exception_subclass_exempt(self):
        assert codes("class E(ValueError):\n    pass\n", LIB) == []
        assert codes("class E(PartitioningError):\n    pass\n", LIB) == []

    def test_namedtuple_exempt(self):
        src = "class Row(NamedTuple):\n    x: int\n"
        assert codes(src, LIB) == []

    def test_dataclass_slots_true_exempt(self):
        src = "@dataclass(slots=True)\nclass A:\n    x: int\n"
        assert codes(src, LIB) == []

    def test_plain_dataclass_flagged(self):
        src = "@dataclass\nclass A:\n    x: int\n"
        assert codes(src, LIB) == ["REPRO002"]


class TestRepro005NullCounter:
    def test_keyword_disabled_flagged(self):
        assert codes("c = OpCounter(enabled=False)\n", LIB) == ["REPRO005"]

    def test_positional_disabled_flagged(self):
        assert codes("c = OpCounter(False)\n", LIB) == ["REPRO005"]

    def test_enabled_counter_fine(self):
        assert codes("c = OpCounter()\n", LIB) == []
        assert codes("c = OpCounter(enabled=flag)\n", LIB) == []

    def test_counters_module_exempt(self):
        src = "NULL_COUNTER = OpCounter(enabled=False)\n"
        path = "src/repro/instrumentation/counters.py"
        assert codes(src, path) == []


#: One line that breaks two rules at once: REPRO005 and REPRO012.
TWO_FINDINGS = "c = OpCounter(False); hub.publish(c)"


class TestPragma:
    def test_pragma_suppresses_named_rule(self):
        src = "class A:  # repro-lint: disable=REPRO002\n    pass\n"
        assert codes(src, LIB) == []

    def test_pragma_with_reason_text(self):
        src = "class A:  # repro-lint: disable=REPRO002 (why not)\n    pass\n"
        assert codes(src, LIB) == []

    def test_pragma_other_rule_does_not_suppress(self):
        src = "class A:  # repro-lint: disable=REPRO005\n    pass\n"
        assert codes(src, LIB) == ["REPRO002"]

    def test_pragma_multiple_codes(self):
        src = (
            "class A:  # repro-lint: disable=REPRO002,REPRO005\n"
            "    c = OpCounter(False)\n"
        )
        # The counter is on its own line; only the class is suppressed.
        assert codes(src, LIB) == ["REPRO005"]

    # One test per pragma shape the grammar admits (satellite fix for the
    # tokenizer that used to swallow everything after the first code).

    def test_pragma_comma_space_separated(self):
        assert codes(TWO_FINDINGS + "\n", LIB) == ["REPRO005", "REPRO012"]
        src = TWO_FINDINGS + "  # repro-lint: disable=REPRO005, REPRO012\n"
        assert codes(src, LIB) == []

    def test_pragma_space_separated(self):
        src = TWO_FINDINGS + "  # repro-lint: disable=REPRO005 REPRO012\n"
        assert codes(src, LIB) == []

    def test_pragma_spaces_around_equals(self):
        src = "class A:  # repro-lint: disable = REPRO002\n    pass\n"
        assert codes(src, LIB) == []

    def test_pragma_code_then_justification_text(self):
        src = (
            "class A:  # repro-lint: disable=REPRO002 result type, "
            "allocated once per query\n    pass\n"
        )
        assert codes(src, LIB) == []

    def test_pragma_multi_code_then_justification_text(self):
        src = (
            TWO_FINDINGS + "  # repro-lint: disable=REPRO005, REPRO012 "
            "shared sentinel counter\n"
        )
        assert codes(src, LIB) == []

    def test_pragma_justification_words_are_not_codes(self):
        from repro.verify.lint import pragma_disables

        disables = pragma_disables(
            "x = 1  # repro-lint: disable=REPRO005, REPRO012 NOT A CODE 123\n"
        )
        assert disables == {1: frozenset({"REPRO005", "REPRO012"})}

    def test_pragma_lowercase_code_ignored(self):
        from repro.verify.lint import pragma_disables

        assert pragma_disables("x = 1  # repro-lint: disable=repro005\n") == {}

    def test_no_pragma_returns_empty(self):
        from repro.verify.lint import pragma_disables

        assert pragma_disables("x = 1  # just a comment\n") == {}


class TestRepro012HubGuard:
    def test_unguarded_publish_in_engine_flagged(self):
        src = "self.hub.publish({'kind': 'event'})\n"
        assert codes(src, "src/repro/engine/batch.py") == ["REPRO012"]

    def test_unguarded_publish_in_core_flagged(self):
        src = "hub.publish_metric('x', 'observe', 1.0)\n"
        assert codes(src, "src/repro/core/bandwidth.py") == ["REPRO012"]

    def test_guarded_publish_clean(self):
        src = (
            "if self.hub.enabled:\n"
            "    self.hub.publish({'kind': 'event'})\n"
        )
        assert codes(src, "src/repro/engine/batch.py") == []

    def test_guard_through_local_alias_clean(self):
        src = (
            "hub = self.hub\n"
            "if hub.enabled:\n"
            "    hub.publish_span(record)\n"
        )
        assert codes(src, "src/repro/engine/batch.py") == []

    def test_nested_statement_inside_guard_clean(self):
        src = (
            "if plan.hub.enabled:\n"
            "    for item in items:\n"
            "        plan.hub.publish(item)\n"
        )
        assert codes(src, "src/repro/engine/plan.py") == []

    def test_else_branch_is_not_guarded(self):
        src = (
            "if hub.enabled:\n"
            "    pass\n"
            "else:\n"
            "    hub.publish(event)\n"
        )
        assert codes(src, "src/repro/engine/cache.py") == ["REPRO012"]

    def test_publish_after_guard_closes_flagged(self):
        src = (
            "if hub.enabled:\n"
            "    pass\n"
            "hub.publish(event)\n"
        )
        assert codes(src, "src/repro/engine/cache.py") == ["REPRO012"]

    def test_unrelated_if_does_not_guard(self):
        src = (
            "if count > 0:\n"
            "    hub.publish(event)\n"
        )
        assert codes(src, "src/repro/engine/batch.py") == ["REPRO012"]

    def test_observability_layer_exempt(self):
        # The hub implementation itself publishes unconditionally.
        src = "self.publish(event)\n"
        assert codes(src, "src/repro/observability/live.py") == []

    def test_analysis_layer_guarded(self):
        # Extended coverage: the live-rendering analysis package sits on
        # hot refresh loops, so its publishes need the guard too.
        src = "hub.publish(event)\n"
        assert codes(src, "src/repro/analysis/top.py") == ["REPRO012"]

    def test_realtime_layer_guarded(self):
        src = "hub.publish(event)\n"
        assert codes(src, "src/repro/realtime/scheduler.py") == ["REPRO012"]

    def test_desim_layer_exempt(self):
        # Simulation drivers are not hot paths; only the four guarded
        # packages carry the rule.
        src = "hub.publish(event)\n"
        assert codes(src, "src/repro/desim/parallel.py") == []

    def test_pragma_suppresses(self):
        src = "hub.publish(e)  # repro-lint: disable=REPRO012 startup only\n"
        assert codes(src, "src/repro/engine/batch.py") == []


class TestDriver:
    def test_src_tree_is_clean(self):
        findings, checked = analyze([SRC_ROOT], ["lint"])["lint"]
        assert checked > 50
        assert findings == [], [f.render() for f in findings]

    @pytest.mark.parametrize(
        "path, name",
        [
            ("src/repro/core/bandwidth.py", "repro.core.bandwidth"),
            ("/ci/repro/src/repro/engine/plan.py", "repro.engine.plan"),
            ("src/repro/engine/__init__.py", "repro.engine"),
            ("tests/verify/fixtures/hotpath/clean.py", "clean"),
            ("__init__.py", "__init__"),
        ],
    )
    def test_module_name(self, path, name):
        # The declared-surface tables are keyed by this dotted name.
        assert module_name(Path(path)) == name

    def test_iter_python_files_single_file(self):
        files = list(iter_python_files([SRC_ROOT / "repro" / "cli.py"]))
        assert len(files) == 1

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_main_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("c = OpCounter(enabled=False)\n")
        assert main([str(bad)]) == 1
        assert "REPRO005" in capsys.readouterr().out

    def test_main_clean_exit_zero(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("def f(x=()):\n    pass\n")
        assert main([str(good)]) == 0

    def test_main_missing_path_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_main_no_paths_exit_two(self, capsys):
        assert main([]) == 2

    def test_main_syntax_error_exit_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 2
        assert "cannot parse" in capsys.readouterr().err


def _run_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC_ROOT), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestModuleEntryPoint:
    """``python -m repro.verify.lint`` runs the lint module as
    ``__main__``; runpy warns when importing the package has already
    loaded it, so ``import repro`` must not."""

    def test_import_repro_leaves_lint_unloaded(self):
        result = _run_python(
            "-c", "import sys, repro; print('repro.verify.lint' in sys.modules)"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_module_run_prints_no_runtime_warning(self):
        result = _run_python("-m", "repro.verify.lint", "--list-rules")
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "REPRO002" in result.stdout
