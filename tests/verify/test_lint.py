"""Per-rule tests for :mod:`repro.verify.lint` (REPRO002), the pragma
grammar every pass shares, and the command-line entry point."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify.lint import RULES, Surface, iter_python_files, main, module_name
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


def pass_codes(source: str, roots=("hot",)) -> list:
    """Findings of the lint and hotpath passes together, in source
    order, with a contract declared for each of ``roots``."""
    module = module_name(Path(LIB))
    surface = Surface(contracts={f"{module}.{root}": ("n", ()) for root in roots})
    found = [
        f
        for section in ("lint", "hotpath")
        for f in check_source(section, source, Path(LIB), surface)
    ]
    return [f.code for f in sorted(found, key=lambda f: (f.line, f.col, f.code))]


#: One line that breaks two rules at once: REPRO016 (the loop-invariant
#: list) and REPRO018 (``insert(0, ...)``).
TWO_FINDINGS = "def hot(rows, out):\n    for row in rows: out.insert(0, [1, 2])"

#: A code-shaped token that names no rule, assembled at run time so this
#: file carries no stale pragma.
UNKNOWN = "REPRO" + "999"


class TestPragma:
    def test_pragma_suppresses_named_rule(self):
        src = "class A:  # repro-lint: disable=REPRO002\n    pass\n"
        assert codes(src, LIB) == []

    def test_pragma_with_reason_text(self):
        src = "class A:  # repro-lint: disable=REPRO002 (why not)\n    pass\n"
        assert codes(src, LIB) == []

    def test_pragma_other_rule_does_not_suppress(self):
        src = "class A:  # repro-lint: disable=REPRO018\n    pass\n"
        assert codes(src, LIB) == ["REPRO002"]

    def test_pragma_unknown_code_suppresses_nothing(self):
        src = f"class A:  # repro-lint: disable={UNKNOWN}\n    pass\n"
        assert codes(src, LIB) == ["REPRO002"]

    def test_pragma_multiple_codes(self):
        src = (
            "class A:  # repro-lint: disable=REPRO002,REPRO018\n"
            "    def hot(self, rows, out):\n"
            "        for row in rows:\n"
            "            out.insert(0, row)\n"
        )
        # The insert is on its own line; only the class line is covered.
        assert pass_codes(src, roots=("A.hot",)) == ["REPRO018"]

    # One test per pragma shape the grammar admits (satellite fix for the
    # tokenizer that used to swallow everything after the first code).

    def test_pragma_comma_space_separated(self):
        assert pass_codes(TWO_FINDINGS + "\n") == ["REPRO018", "REPRO016"]
        src = TWO_FINDINGS + "  # repro-lint: disable=REPRO016, REPRO018\n"
        assert pass_codes(src) == []

    def test_pragma_space_separated(self):
        src = TWO_FINDINGS + "  # repro-lint: disable=REPRO016 REPRO018\n"
        assert pass_codes(src) == []

    def test_pragma_one_of_two_codes(self):
        src = TWO_FINDINGS + "  # repro-lint: disable=REPRO018\n"
        assert pass_codes(src) == ["REPRO016"]

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
            TWO_FINDINGS + "  # repro-lint: disable=REPRO016, REPRO018 "
            "prepends by design\n"
        )
        assert pass_codes(src) == []

    def test_pragma_justification_words_are_not_codes(self):
        from repro.verify.lint import pragma_disables

        disables = pragma_disables(
            "x = 1  # repro-lint: disable=REPRO016, REPRO018 NOT A CODE 123\n"
        )
        assert disables == {1: frozenset({"REPRO016", "REPRO018"})}

    def test_pragma_lowercase_code_ignored(self):
        from repro.verify.lint import pragma_disables

        assert pragma_disables("x = 1  # repro-lint: disable=repro002\n") == {}

    def test_no_pragma_returns_empty(self):
        from repro.verify.lint import pragma_disables

        assert pragma_disables("x = 1  # just a comment\n") == {}


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
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("class A:\n    pass\n")
        assert main([str(bad)]) == 1
        assert "REPRO002" in capsys.readouterr().out

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
