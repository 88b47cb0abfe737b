"""Tests for :mod:`repro.verify.faultflow`: fault-surface analysis.

Each rule (REPRO020 resource lifecycle, REPRO021 broad-except
swallows, REPRO023 determinism taint, REPRO024 silent-drop handlers)
gets a rule x construct golden matrix, pragmas suppress findings on their
line, the exit-code table in ``docs/usage.md`` is docs-checked against
:data:`repro.exitcodes.EXIT_CODES` exactly like the rule registry, and
the analyzer must run clean over the repo's own ``src/`` tree after the
remediation.
"""

import re
import textwrap
from pathlib import Path

import pytest

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
# REPRO020 — resource lifecycle
# ----------------------------------------------------------------------


class TestResourceLifecycle:
    def test_bare_open_with_raise_capable_use_is_flagged(self):
        source = """
            def load(path):
                fh = open(path)
                data = fh.read()
                fh.close()
                return data
        """
        assert codes(source) == ["REPRO020"]

    def test_with_statement_is_the_goal_state(self):
        source = """
            def load(path):
                with open(path) as fh:
                    return fh.read()
        """
        assert codes(source) == []

    def test_try_finally_release_is_accepted(self):
        source = """
            def load(path):
                fh = open(path)
                try:
                    return fh.read()
                finally:
                    fh.close()
        """
        assert codes(source) == []

    def test_immediate_release_is_accepted(self):
        source = """
            def touch(path):
                fh = open(path, "w")
                fh.close()
        """
        assert codes(source) == []

    def test_ownership_transfer_via_return_is_accepted(self):
        assert codes("""
            def opener(path):
                return open(path)
        """) == []
        assert codes("""
            def opener(path):
                fh = open(path)
                return fh
        """) == []

    def test_deferred_with_over_the_handle_is_accepted(self):
        source = """
            def load(path):
                fh = open(path)
                with fh:
                    return fh.read()
        """
        assert codes(source) == []

    def test_acquire_nested_in_a_call_argument_is_flagged(self):
        source = """
            def load(path, process):
                return process(open(path))
        """
        assert codes(source) == ["REPRO020"]

    def test_pool_and_socket_constructors_are_acquires(self):
        source = """
            def fan_out(jobs):
                pool = ProcessPoolExecutor(max_workers=4)
                results = list(pool.map(work, jobs))
                pool.shutdown()
                return results
        """
        assert codes(source) == ["REPRO020"]
        assert codes("""
            def connect(host):
                sock = socket.socket()
                sock.connect(host)
                sock.close()
        """) == ["REPRO020"]

    def test_lock_acquire_needs_try_finally(self):
        flagged = """
            def update(self, value):
                self._lock.acquire()
                self.value = compute(value)
                self._lock.release()
        """
        assert codes(flagged) == ["REPRO020"]
        accepted = """
            def update(self, value):
                self._lock.acquire()
                try:
                    self.value = compute(value)
                finally:
                    self._lock.release()
        """
        assert codes(accepted) == []

    def test_self_attr_acquire_with_class_release_is_accepted(self):
        source = """
            class Sink:
                def __init__(self, path):
                    self.path = path
                    self._fh = open(path, "w")

                def close(self):
                    self._fh.close()
        """
        assert codes(source) == []

    def test_self_attr_acquire_followed_by_raise_capable_code_is_flagged(self):
        source = """
            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "w")
                    self._fh.write(render_header())

                def close(self):
                    self._fh.close()
        """
        assert codes(source) == ["REPRO020"]

    def test_self_attr_acquire_without_any_release_is_flagged(self):
        source = """
            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "w")
        """
        assert codes(source) == ["REPRO020"]

    def test_guard_try_calling_own_release_method_is_accepted(self):
        """The remediation shape used by StreamingJsonlSink.__init__."""
        source = """
            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "w")
                    try:
                        self._fh.write(render_header())
                    except BaseException:
                        self.close()
                        raise

                def close(self):
                    self._fh.close()
        """
        assert codes(source) == []

    def test_acquire_inside_guarded_try_is_protected(self):
        source = """
            def load(path):
                try:
                    fh = open(path)
                    return fh.read()
                finally:
                    cleanup()
        """
        assert codes(source) == []

    def test_async_functions_are_scanned_too(self):
        source = """
            async def load(path):
                fh = open(path)
                data = fh.read()
                fh.close()
                return data
        """
        assert codes(source) == ["REPRO020"]

    def test_assert_between_acquire_and_release_is_raise_capable(self):
        source = """
            def load(path, expected):
                fh = open(path)
                assert expected, "missing expectation"
                fh.close()
        """
        assert codes(source) == ["REPRO020"]

    def test_async_with_over_the_handle_is_accepted(self):
        source = """
            async def load(path):
                fh = open(path)
                async with fh:
                    return await use(fh)
        """
        assert codes(source) == []

    def test_async_with_item_acquire_is_the_goal_state(self):
        source = """
            async def load(path):
                async with open(path) as fh:
                    return await use(fh)
        """
        assert codes(source) == []

    def test_handle_consumed_as_a_with_call_argument_is_accepted(self):
        source = """
            def load(path):
                fh = open(path)
                with closing(fh):
                    return fh.read()
        """
        assert codes(source) == []

    def test_guarded_acquire_inside_a_while_body_is_accepted(self):
        source = """
            def drain(pending):
                while pending:
                    fh = open(pending.pop())
                    try:
                        consume(fh)
                    finally:
                        fh.close()
        """
        assert codes(source) == []

    def test_leak_in_a_for_else_block_is_flagged(self):
        source = """
            def scan(paths):
                for path in paths:
                    check(path)
                else:
                    fh = open(paths[0])
                    consume(fh)
                    fh.close()
        """
        assert codes(source) == ["REPRO020"]

    def test_acquire_in_a_loop_header_is_flagged(self):
        source = """
            def lines(path):
                for line in open(path):
                    print(line)
        """
        assert codes(source) == ["REPRO020"]

    def test_class_release_through_one_indirection_is_accepted(self):
        """``close`` releases only via ``self._shutdown()`` — the guard
        handler calling ``self.close()`` must still count, which needs
        the within-class call-edge fixpoint."""
        source = """
            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "w")
                    try:
                        self._fh.write(render_header())
                    except BaseException:
                        self.close()
                        raise

                def close(self):
                    self._shutdown()

                def _shutdown(self):
                    self._fh.close()
        """
        assert codes(source) == []

    def test_nulling_the_attribute_out_counts_as_a_release(self):
        source = """
            class Sink:
                def __init__(self, path):
                    self._fh = open(path, "w")

                def close(self):
                    self._fh = None
        """
        assert codes(source) == []

    def test_pragma_suppresses_on_the_acquire_line(self):
        source = """
            def load(path):
                fh = open(path)  # repro-lint: disable=REPRO020 handed to a finalizer registered below
                data = fh.read()
                fh.close()
                return data
        """
        assert codes(source) == []


# ----------------------------------------------------------------------
# REPRO021 — broad excepts swallowing typed failures
# ----------------------------------------------------------------------


class TestBroadExcept:
    def test_bare_except_is_flagged(self):
        source = """
            def run(job):
                try:
                    return job()
                except:
                    log.warning("boom")
        """
        assert "REPRO021" in codes(source)

    def test_except_exception_is_flagged(self):
        source = """
            def run(job):
                try:
                    return job()
                except Exception:
                    log.warning("boom")
        """
        assert "REPRO021" in codes(source)

    def test_broad_member_of_a_tuple_is_flagged(self):
        source = """
            def run(job):
                try:
                    return job()
                except (ValueError, BaseException):
                    log.warning("boom")
        """
        assert "REPRO021" in codes(source)

    def test_reraising_broad_except_is_accepted(self):
        source = """
            def run(job):
                try:
                    return job()
                except Exception:
                    log.warning("boom")
                    raise
        """
        assert codes(source) == []

    def test_typed_except_is_not_broad(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError:
                    log.warning("boom")
        """
        assert "REPRO021" not in codes(source)

    def test_silent_broad_except_raises_both_codes(self):
        source = """
            def run(job):
                try:
                    return job()
                except Exception:
                    pass
        """
        assert codes(source) == ["REPRO021", "REPRO024"]


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
# REPRO024 — silent-drop handlers
# ----------------------------------------------------------------------


class TestSilentDrop:
    def test_pass_body_is_flagged(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError:
                    pass
        """
        assert codes(source) == ["REPRO024"]

    def test_assignment_only_body_is_flagged(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError:
                    result = None
        """
        assert codes(source) == ["REPRO024"]

    def test_logging_is_reporting(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError:
                    log.warning("job failed")
        """
        assert codes(source) == []

    def test_hub_publish_is_reporting(self):
        source = """
            def run(self, job):
                try:
                    return job()
                except ValueError as exc:
                    self.hub.publish({"event": "error", "err": str(exc)})
        """
        assert codes(source) == []

    def test_private_publish_wrapper_is_reporting(self):
        source = """
            def run(self, job):
                try:
                    return job()
                except ValueError as exc:
                    self._publish_result(error(exc))
        """
        assert codes(source) == []

    def test_metric_increment_is_reporting(self):
        source = """
            def run(self, job):
                try:
                    return job()
                except ValueError:
                    self.failures += 1
        """
        assert codes(source) == []

    def test_returning_a_fallback_is_reporting(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError:
                    return None
        """
        assert codes(source) == []

    def test_reraise_is_reporting(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError as exc:
                    raise RuntimeError("wrapped") from exc
        """
        assert codes(source) == []

    def test_import_fallback_is_exempt(self):
        source = """
            try:
                import numpy
            except ImportError:
                numpy = None
        """
        assert codes(source) == []

    def test_pragma_suppresses_on_the_except_line(self):
        source = """
            def run(job):
                try:
                    return job()
                except ValueError:  # repro-lint: disable=REPRO024 error lands in the result payload
                    pass
        """
        assert codes(source) == []


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------


class TestScoping:
    LEAKY = """
        def load(path):
            fh = open(path)
            data = fh.read()
            fh.close()
            return data
    """

    def test_repro_scoped_packages_are_analyzed(self):
        for package in ("core", "engine", "observability"):
            path = f"src/repro/{package}/thing.py"
            assert codes(self.LEAKY, path=path) == ["REPRO020"], package

    def test_repro_unscoped_packages_are_skipped(self):
        for package in ("analysis", "verify", "graphs"):
            path = f"src/repro/{package}/thing.py"
            assert codes(self.LEAKY, path=path) == [], package

    def test_fixture_files_are_always_analyzed(self):
        assert codes(self.LEAKY, path="fixtures/thing.py") == ["REPRO020"]

    def test_check_faultflow_walks_trees(self, tmp_path):
        target = tmp_path / "pkg"
        target.mkdir()
        (target / "leaky.py").write_text(dedent(self.LEAKY))
        (target / "clean.py").write_text("x = 1\n")
        found, checked = analyze([target], ["faults"])["faults"]
        assert checked == 2
        assert [f.code for f in found] == ["REPRO020"]


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
        assert set(FAULTFLOW_RULES) == {
            "REPRO020", "REPRO021", "REPRO023", "REPRO024"
        }


# ----------------------------------------------------------------------
# The command-line entry point: ``repro analyze --faults``
# ----------------------------------------------------------------------


class TestMain:
    def test_missing_path_is_usage_error(self, capsys):
        assert main(["analyze", "--faults", "definitely/not/here.py"]) == 2

    def test_findings_exit_1(self, tmp_path, capsys):
        target = tmp_path / "leaky.py"
        target.write_text(dedent(TestScoping.LEAKY))
        assert main(["analyze", "--faults", str(target)]) == 1
        out = capsys.readouterr().out
        assert "REPRO020" in out

    def test_clean_exit_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main(["analyze", "--faults", str(target)]) == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        assert main(["analyze", "--faults", str(target)]) == 2
