"""Fork-isolated execution of mutated solver modules.

A mutant must never touch the orchestrating process: a mutated
``repro.core.bandwidth`` left behind in ``sys.modules`` would corrupt
every later pipeline run.  The runner therefore forks a child per
mutant — the child inherits the parent's warm imports copy-on-write (so
a targeted pytest subset starts in ~0.2 s instead of paying cold-import
cost), installs the mutated source *in its own memory only*, runs the
kill pipeline and reports the verdict over a pipe.  The parent's module
graph is never mutated, by construction rather than by cleanup.

Two failure modes get first-class handling:

- **Timeouts.**  Flipping a ``while`` predicate in the two-pointer
  sweep or the NumPy fix-up loops produces a genuinely non-terminating
  mutant.  The parent polls the pipe with a deadline and kills the
  child; a timeout counts as a kill (attributed to the ``timeout``
  pseudo-layer).
- **Hard crashes.**  A child that dies without reporting (segfault,
  ``os._exit``) is likewise a kill, attributed to ``crash``.

Installation patches by *identity*, not by name: after executing the
mutated source into a fresh namespace, every module in the ``repro``/
``tests`` universe that holds a direct reference to a replaced object
(``from repro.core.bandwidth import bandwidth_min`` style bindings) is
rebound to the mutant's version.  A replaced top-level function also
takes the mutant's code, so a reference no module namespace holds (a
solver captured in a ``pytest.mark.parametrize`` list) runs the mutant
too.  Without this, mutants would silently survive behind stale
references — a false survivor, the worst failure mode a mutation engine
can have.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
import types
from typing import Any, Callable, Iterator, Tuple
from contextlib import contextmanager

__all__ = [
    "SandboxResult",
    "install_module_source",
    "run_sandboxed",
    "silenced_output",
]

#: Top-level package roots whose modules get identity-patched.  Covers
#: the library itself plus test/benchmark modules imported by pytest
#: (which binds solver callables directly at import time).
PATCH_ROOTS = frozenset(("repro", "tests", "conftest", "benchmarks"))

_MISSING = object()


class SandboxResult:
    """Outcome of one sandboxed call.

    ``status`` is ``"ok"`` (``value`` holds the callable's return
    value), ``"timeout"`` (deadline expired, child killed) or
    ``"crashed"`` (child died without reporting; ``value`` holds a
    short description).
    """

    __slots__ = ("status", "value")

    def __init__(self, status: str, value: Any = None) -> None:
        self.status = status
        self.value = value

    def __repr__(self) -> str:
        return f"SandboxResult({self.status!r}, {self.value!r})"


@contextmanager
def silenced_output() -> Iterator[None]:
    """Redirect OS-level stdout/stderr to ``/dev/null``.

    File-descriptor level (``dup2``), not ``sys.stdout`` swapping, so
    output written by pytest's terminal writer and C extensions is
    silenced too.  Used around in-child pytest runs and the parent's
    warm-up run, keeping ``--json`` output machine-clean.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    saved_out = os.dup(1)
    saved_err = os.dup(2)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        yield
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(saved_out, 1)
        os.dup2(saved_err, 2)
        os.close(devnull)
        os.close(saved_out)
        os.close(saved_err)


def install_module_source(module_name: str, source: str) -> None:
    """Execute ``source`` as ``module_name`` and rebind all users.

    DANGER: this mutates the *current* process's module graph and is
    deliberately irreversible — call it only inside a sandbox child
    (:func:`run_sandboxed`), never in the orchestrating process.

    Steps:

    1. exec the source into a fresh namespace carrying the original
       module's ``__name__``/``__package__``/``__file__`` (so relative
       imports and ``__file__``-based paths keep working);
    2. build an identity map ``id(original attr) -> mutant attr`` for
       every public top-level binding that changed;
    3. sweep every loaded module under :data:`PATCH_ROOTS` and rebind
       any global that *is* (identity, not equality) a replaced object —
       this catches ``from X import f`` bindings made before the swap —
       and give each replaced closure-free top-level function the
       mutant's ``__code__``, ``__defaults__`` and ``__kwdefaults__``,
       which catches references held anywhere else (its
       ``__globals__`` is the original module dict, see step 4);
    4. overwrite the original module's ``__dict__`` so module-attribute
       access and lazy ``import X`` inside functions see the mutant.
    """
    original = importlib.import_module(module_name)
    mutant = types.ModuleType(module_name)
    mutant.__dict__["__name__"] = module_name
    mutant.__dict__["__package__"] = original.__package__
    original_file = getattr(original, "__file__", None)
    if original_file is not None:
        mutant.__dict__["__file__"] = original_file
    code = compile(source, original_file or f"<mutant:{module_name}>", "exec")
    exec(code, mutant.__dict__)

    remap: dict = {}
    for key, new_value in mutant.__dict__.items():
        if key.startswith("__"):
            continue
        old_value = original.__dict__.get(key, _MISSING)
        if old_value is not _MISSING and old_value is not new_value:
            remap[id(old_value)] = new_value
            if (
                isinstance(old_value, types.FunctionType)
                and isinstance(new_value, types.FunctionType)
                and old_value.__closure__ is None
                and new_value.__closure__ is None
            ):
                old_value.__code__ = new_value.__code__
                old_value.__defaults__ = new_value.__defaults__
                old_value.__kwdefaults__ = new_value.__kwdefaults__
    for name, module in list(sys.modules.items()):
        if module is None or module is original:
            continue
        if name.split(".", 1)[0] not in PATCH_ROOTS:
            continue
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for key, value in list(namespace.items()):
            replacement = remap.get(id(value), _MISSING)
            if replacement is not _MISSING:
                namespace[key] = replacement
    original.__dict__.update(mutant.__dict__)


def _child_main(
    conn: Any, fn: Callable[..., Any], args: Tuple[Any, ...]
) -> None:
    """Child entry: run ``fn`` silenced and ship the result back."""
    try:
        with silenced_output():
            value = fn(*args)
        conn.send(("ok", value))
    except BaseException as exc:  # noqa: BLE001 - verdict, not control flow
        try:
            conn.send(("crashed", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def run_sandboxed(
    fn: Callable[..., Any],
    args: Tuple[Any, ...] = (),
    timeout_s: float = 120.0,
) -> SandboxResult:
    """Run ``fn(*args)`` in a killed-on-deadline child process.

    Uses the ``fork`` start method when the platform offers it (the
    warm-import speedup and identity patching both rely on inheriting
    the parent's modules); falls back to ``spawn`` elsewhere, where
    ``fn``/``args`` must be picklable and each call pays cold imports.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child_main, args=(child_conn, fn, args))
    process.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout_s):
            return SandboxResult("timeout", f"no verdict within {timeout_s:g}s")
        try:
            status, value = parent_conn.recv()
        except EOFError:
            return SandboxResult(
                "crashed", f"child exited without verdict (code {process.exitcode})"
            )
        return SandboxResult(status, value)
    finally:
        if process.is_alive():
            process.kill()
        process.join(10.0)
        parent_conn.close()
