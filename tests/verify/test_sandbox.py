"""Tests for the fork-isolated mutant sandbox (:mod:`repro.verify.sandbox`).

The sandbox carries the engine's central safety property: a mutated
module installed in a child must never leak into the orchestrating
process.  These tests exercise every verdict path (ok / crashed /
timeout / silent death) and then prove parent isolation directly by
installing a corrupted ``repro.core.temp_s`` inside a child and
checking the parent's bindings afterwards.
"""

import os
import textwrap
import time

from repro.core.temp_s import solution_weight
from repro.verify.sandbox import (
    SandboxResult,
    install_module_source,
    run_sandboxed,
    silenced_output,
)


def _add(a, b):
    return a + b


def _busy_loop():
    while True:
        time.sleep(0.01)


def _raises():
    raise ValueError("deliberate failure")


def _hard_exit():
    # Dies without sending a verdict: neither return nor exception.
    os._exit(3)


POISONED_TEMP_S = textwrap.dedent(
    """
    from typing import Optional


    class SolutionNode:
        pass


    def solution_weight(sol):
        return -1.0
    """
)

#: Held by no module namespace, as a ``parametrize`` list holds a solver.
CAPTURED = [solution_weight]


def _install_poisoned_temp_s():
    """Child-side: replace solution_weight with a constant and report
    what the *child* observes through its own direct import."""
    install_module_source("repro.core.temp_s", POISONED_TEMP_S)
    import repro.core.temp_s as mod

    return (mod.solution_weight(None), solution_weight(None))


def _call_captured_after_poisoning():
    install_module_source("repro.core.temp_s", POISONED_TEMP_S)
    return CAPTURED[0](None)


class TestVerdicts:
    def test_ok_returns_value(self):
        result = run_sandboxed(_add, (2, 3), timeout_s=30.0)
        assert result.status == "ok"
        assert result.value == 5

    def test_timeout_kills_busy_child(self):
        start = time.monotonic()
        result = run_sandboxed(_busy_loop, (), timeout_s=1.0)
        elapsed = time.monotonic() - start
        assert result.status == "timeout"
        assert "1" in str(result.value)
        # The child must actually be reaped, not left running.
        assert elapsed < 15.0

    def test_exception_reports_crashed_with_message(self):
        result = run_sandboxed(_raises, (), timeout_s=30.0)
        assert result.status == "crashed"
        assert "ValueError" in result.value
        assert "deliberate failure" in result.value

    def test_silent_death_reports_crashed(self):
        result = run_sandboxed(_hard_exit, (), timeout_s=30.0)
        assert result.status == "crashed"
        assert "without verdict" in result.value

    def test_repr_is_informative(self):
        assert "timeout" in repr(SandboxResult("timeout", "deadline"))


class TestIsolation:
    def test_install_module_source_stays_in_child(self):
        # Pristine value, observed in this (parent) process.
        assert solution_weight(None) == 0.0

        result = run_sandboxed(_install_poisoned_temp_s, (), timeout_s=60.0)
        assert result.status == "ok"
        via_module, via_direct_import = result.value
        # Inside the child both access paths saw the mutant: the module
        # attribute AND the stale `from ... import` binding (identity
        # patching rebinds direct imports too).
        assert via_module == -1.0
        assert via_direct_import == -1.0

        # The parent's module graph is untouched.
        assert solution_weight(None) == 0.0
        import repro.core.temp_s as mod

        assert mod.solution_weight(None) == 0.0
        # The queue class is still the real one, not the poisoned stub.
        assert hasattr(mod.TempSQueue, "update")

    def test_captured_function_runs_mutant_code(self):
        # A reference captured in a list before the swap is not a module
        # global, so rebinding cannot reach it; the swapped code does.
        result = run_sandboxed(_call_captured_after_poisoning, (), timeout_s=60.0)
        assert result.status == "ok"
        assert result.value == -1.0
        assert CAPTURED[0](None) == 0.0


class TestSilencedOutput:
    def test_suppresses_fd_level_writes(self, tmp_path):
        # Run inside a child so the dup2 games can't disturb pytest's
        # own capture machinery; writes redirected to /dev/null must not
        # reach a real file even via the OS-level descriptor.
        target = tmp_path / "captured.txt"

        def _noisy():
            fd = os.open(str(target), os.O_WRONLY | os.O_CREAT)
            saved = os.dup(1)
            os.dup2(fd, 1)
            try:
                with silenced_output():
                    os.write(1, b"should vanish")
                    print("also vanishes", flush=True)
                os.write(1, b"visible")
            finally:
                os.dup2(saved, 1)
                os.close(saved)
                os.close(fd)
            return "done"

        result = run_sandboxed(_noisy, (), timeout_s=30.0)
        assert result.status == "ok"
        assert result.value == "done"
        assert target.read_text() == "visible"
