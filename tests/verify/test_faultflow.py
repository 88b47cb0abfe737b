"""Tests for :mod:`repro.verify.faultflow`: the REPRO023 determinism pass.

A rule x construct golden matrix, pragmas suppress findings on their
line, the exit-code table in ``docs/usage.md`` is docs-checked against
:data:`repro.exitcodes.EXIT_CODES` exactly like the rule registry, and
the analyzer must run clean over the repo's own ``src/`` tree.
"""

import re
import textwrap
from pathlib import Path

from repro.exitcodes import (
    EXIT_CODES,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
)
from repro.cli import main
from repro.verify.faultflow import FAULTFLOW_RULES
from repro.verify.lint import Surface, module_name
from repro.verify.passes import analyze, check_source

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
USAGE = REPO / "docs" / "usage.md"


def dedent(source: str) -> str:
    return textwrap.dedent(source)


def codes(source: str, path: str = "example.py", roots=("solve",)) -> list:
    return [f.code for f in findings(source, path, roots)]


def findings(source: str, path: str = "example.py", roots=("solve",)) -> list:
    """Run the pass with a contract declared for each of ``roots``
    (``name`` / ``Class.name``) in the module."""
    module = module_name(Path(path))
    surface = Surface(contracts={f"{module}.{root}": ("n", ()) for root in roots})
    return check_source("faults", dedent(source), Path(path), surface)


# ----------------------------------------------------------------------
# The exit-code table itself
# ----------------------------------------------------------------------


class TestExitCodeTable:
    def test_table_values(self):
        assert EXIT_CODES == {
            "OK": 0, "FAILURE": 1, "USAGE": 2, "VERIFICATION": 3
        }
        assert (EXIT_OK, EXIT_FAILURE, EXIT_USAGE, EXIT_VERIFICATION) == (
            0, 1, 2, 3
        )

    def test_every_code_is_documented_in_usage_md(self):
        """docs/usage.md's Exit codes table must match the registry —
        the same docs-check discipline as the REPROxxx registry."""
        text = USAGE.read_text(encoding="utf-8")
        assert "## Exit codes" in text
        for name, value in EXIT_CODES.items():
            row = re.search(
                rf"\|\s*`{name}`\s*\|\s*(\d+)\s*\|", text
            )
            assert row is not None, f"{name} missing from docs/usage.md"
            assert int(row.group(1)) == value, (name, row.group(1))

    def test_docs_table_has_no_unregistered_rows(self):
        text = USAGE.read_text(encoding="utf-8")
        section = text.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"\|\s*`(\w+)`\s*\|\s*\d+\s*\|", section)
        assert rows, "the Exit codes table is empty"
        assert set(rows) == set(EXIT_CODES)


# ----------------------------------------------------------------------
# REPRO023 — determinism taint on contracted solver paths
# ----------------------------------------------------------------------


class TestDeterminismTaint:
    def test_unseeded_random_on_a_complexity_path_is_flagged(self):
        source = """
            def solve(chain):
                return random.random()
        """
        assert codes(source) == ["REPRO023"]

    def test_seeded_generator_construction_is_accepted(self):
        source = """
            def solve(chain, seed):
                rng = random.Random(seed)
                return rng.random()
        """
        assert codes(source) == []

    def test_np_random_global_draw_is_flagged(self):
        source = """
            def solve(chain):
                return np.random.rand(len(chain))
        """
        assert codes(source) == ["REPRO023"]

    def test_np_default_rng_is_accepted(self):
        source = """
            def solve(chain, seed):
                rng = np.random.default_rng(seed)
                return rng.random()
        """
        assert codes(source) == []

    def test_wall_clock_reads_are_flagged(self):
        source = """
            def solve(chain):
                started = time.time()
                stamp = datetime.now()
                return started, stamp
        """
        assert codes(source) == ["REPRO023", "REPRO023"]

    def test_zoned_datetime_now_is_accepted(self):
        source = """
            def solve(chain, tz):
                return datetime.now(tz)
        """
        assert codes(source) == []

    def test_os_environ_read_is_flagged(self):
        source = """
            def solve(chain):
                return os.environ.get("MODE", "fast")
        """
        assert codes(source) == ["REPRO023"]

    def test_unordered_iteration_is_flagged(self):
        source = """
            def solve(entries):
                for key in entries.keys():
                    emit(key)
                for tag in {1, 2, 3}:
                    emit(tag)
        """
        assert codes(source) == ["REPRO023", "REPRO023"]

    def test_sorted_iteration_is_accepted(self):
        source = """
            def solve(entries):
                for key in sorted(entries.keys()):
                    emit(key)
        """
        assert codes(source) == []

    def test_date_today_is_a_wall_clock_read(self):
        source = """
            def solve(chain):
                return date.today()
        """
        assert codes(source) == ["REPRO023"]

    def test_async_for_over_a_set_is_flagged(self):
        source = """
            async def solve(chain, emit):
                async for key in {1, 2}:
                    emit(key)
        """
        assert codes(source) == ["REPRO023"]

    def test_set_comprehension_iteration_is_flagged(self):
        source = """
            def solve(entries):
                for key in {entry for entry in entries}:
                    emit(key)
        """
        assert codes(source) == ["REPRO023"]

    def test_frozenset_iteration_is_flagged(self):
        source = """
            def solve(entries):
                for key in frozenset(entries):
                    emit(key)
        """
        assert codes(source) == ["REPRO023"]

    def test_undecorated_functions_are_not_rooted(self):
        source = """
            def helper(chain):
                return random.random()
        """
        assert codes(source) == []

    def test_taint_follows_the_call_graph(self):
        source = """
            def jitter():
                return random.random()

            def solve(chain):
                return jitter()
        """
        assert codes(source) == ["REPRO023"]

    def test_taint_follows_same_class_method_calls(self):
        source = """
            class Solver:
                def _noise(self):
                    return time.time()

                def solve(self, chain):
                    return self._noise()
        """
        assert codes(source, roots=("Solver.solve",)) == ["REPRO023"]

    def test_pragma_suppresses_on_the_taint_line(self):
        source = """
            def solve(chain):
                if "REPRO_VERIFY" in os.environ:  # repro-lint: disable=REPRO023 opt-in gate, never alters outputs
                    verify(chain)
                return chain
        """
        assert codes(source) == []


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------


class TestScoping:
    TAINTED = """
        def solve(chain):
            return random.random()
    """

    #: The same draw in a function the repository contracts, for the
    #: runs that read the real ``CONTRACTS`` table.
    CONTRACTED = """
        def processor_min(tree, bound):
            return random.random()
    """

    def test_repro_scoped_packages_are_analyzed(self):
        for package in ("core", "engine", "observability"):
            path = f"src/repro/{package}/thing.py"
            assert codes(self.TAINTED, path=path) == ["REPRO023"], package

    def test_repro_unscoped_packages_are_skipped(self):
        for package in ("analysis", "verify", "graphs"):
            path = f"src/repro/{package}/thing.py"
            assert codes(self.TAINTED, path=path) == [], package

    def test_fixture_files_are_always_analyzed(self):
        assert codes(self.TAINTED, path="fixtures/thing.py") == ["REPRO023"]

    def test_check_faultflow_walks_trees(self, tmp_path):
        target = tmp_path / "pkg"
        (target / "repro" / "core").mkdir(parents=True)
        (target / "repro" / "core" / "processor_min.py").write_text(
            dedent(self.CONTRACTED)
        )
        (target / "clean.py").write_text("x = 1\n")
        found, checked = analyze([target], ["faults"])["faults"]
        assert checked == 2
        assert [f.code for f in found] == ["REPRO023"]


# ----------------------------------------------------------------------
# The analyzer gate over the repo's own source tree
# ----------------------------------------------------------------------


class TestSrcTreeIsClean:
    def test_src_tree_is_clean(self):
        found, checked = analyze([SRC], ["faults"])["faults"]
        rendered = "\n".join(f.render() for f in found)
        assert not found, f"faultflow findings in src/:\n{rendered}"
        assert checked > 20  # core + engine + observability

    def test_rules_derive_from_registry(self):
        assert set(FAULTFLOW_RULES) == {"REPRO023"}


# ----------------------------------------------------------------------
# The command-line entry point: ``repro analyze --faults``
# ----------------------------------------------------------------------


class TestMain:
    def test_missing_path_is_usage_error(self, capsys):
        assert main(["analyze", "--faults", "definitely/not/here.py"]) == 2

    def test_findings_exit_1(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "processor_min.py"
        target.parent.mkdir(parents=True)
        target.write_text(dedent(TestScoping.CONTRACTED))
        assert main(["analyze", "--faults", str(target)]) == 1
        out = capsys.readouterr().out
        assert "REPRO023" in out

    def test_clean_exit_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["analyze", "--faults", str(target)]) == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        assert main(["analyze", "--faults", str(target)]) == 2
