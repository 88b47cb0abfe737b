"""Determinism analysis: REPRO023 on the contracted solver paths.

A solver's output must be deterministic: any nondeterminism on a solver
path means a re-run, or a re-solve after a fault, need not give the
bit-identical answer the reproduction rests on.  No test can see a
draw whose value happens not to change this run's answer, so this rule
stays static:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO023    A nondeterminism source on a contracted solver path (the
            functions whose outputs land in solver results
            and trace/JSONL payloads): unseeded ``random``/
            ``np.random`` draws, wall-clock reads (``time.time``,
            argless ``datetime.now``), ``os.environ`` reads, and
            iteration over unordered ``set``/``.keys()`` views.
==========  ==========================================================

The pass is scoped (under the installed ``repro`` package) to
``core``/``engine``/``observability`` — the layers every solve and
every ``repro batch`` run goes through.  It roots at the functions
listed in :data:`repro.verify.contracts.CONTRACTS` and follows the same
within-module call graph as :mod:`repro.verify.hotpath`.  Files outside
a ``repro`` package (fixtures, tests) are always analyzed.

The other failure-path hazards need no rule: the fault tests in
``tests/engine/test_threads_and_faults.py`` and
``tests/observability/test_threads_and_faults.py`` raise at one
acquire/IO point and prove that locks are released, handles closed,
untyped faults propagate out of ``solve_many`` and the engine answers
the same query bit-identically afterwards, and
``tests/integration/test_cli.py`` drives every CLI exit site.

Run it with ``repro analyze --faults [paths]`` (exit status: 0 clean,
1 findings, 2 usage/parse errors).
"""

from __future__ import annotations

import ast
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.verify.codes import messages_for
from repro.verify.hotpath import _NUMPY_ALIASES, _collect_functions, _reachable
from repro.verify.lint import Finding, Module, in_packages, rightmost_name

#: Drawn from the central registry (:mod:`repro.verify.codes`).
FAULTFLOW_RULES: Dict[str, str] = messages_for("repro.verify.faultflow")

#: Packages analyzed (under the ``repro`` package): the layers every
#: solve runs in.
_SCOPED_PACKAGES = frozenset(("core", "engine", "observability"))

#: ``random.<fn>`` attributes exempt from REPRO023: constructing a
#: seeded generator (or seeding/persisting the global one) is how
#: determinism is *achieved*, not broken.
_SEEDED_RANDOM_EXEMPT = frozenset(
    ("Random", "SystemRandom", "seed", "getstate", "setstate")
)

#: ``np.random.<fn>`` attributes exempt from REPRO023 for the same
#: reason: explicit generator construction takes a seed.
_SEEDED_NP_RANDOM_EXEMPT = frozenset(("default_rng", "Generator", "RandomState", "seed"))

#: ``time.<fn>`` wall-clock reads flagged by REPRO023.
_WALLCLOCK_TIME_CALLS = frozenset(("time", "time_ns"))

#: Argless ``datetime``/``date`` constructors that read the wall clock.
_WALLCLOCK_DATETIME_CALLS = frozenset(("now", "utcnow", "today"))


#: Pragma-aware finding collector: ``add(node, code, message)``.
_Add = Callable[[ast.AST, str, str], None]


def random_draw(call: ast.Call) -> Optional[Tuple[str, str]]:
    """``(stream, fn)`` when ``call`` draws from an unseeded module-level
    random stream: ``("random", fn)`` or ``("np.random", fn)``.

    Seeding or building an owned generator is exempt.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if (
        isinstance(receiver, ast.Name)
        and receiver.id == "random"
        and func.attr not in _SEEDED_RANDOM_EXEMPT
    ):
        return "random", func.attr
    if (
        isinstance(receiver, ast.Attribute)
        and receiver.attr == "random"
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id in _NUMPY_ALIASES
        and func.attr not in _SEEDED_NP_RANDOM_EXEMPT
    ):
        return "np.random", func.attr
    return None


def _scan_determinism(func: ast.AST, qualname: str, add: _Add) -> None:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            func_expr = node.func
            draw = random_draw(node)
            if draw is not None:
                # random.<draw>() / np.random.<draw>() on the unseeded
                # module-level stream.
                add(
                    node, "REPRO023",
                    f"unseeded {draw[0]}.{draw[1]}() on a "
                    f"contracted path (in {qualname})",
                )
            elif isinstance(func_expr, ast.Attribute):
                receiver = func_expr.value
                # time.time()/time.time_ns() — wall clock into outputs.
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "time"
                    and func_expr.attr in _WALLCLOCK_TIME_CALLS
                ):
                    add(
                        node, "REPRO023",
                        f"wall-clock time.{func_expr.attr}() on a "
                        f"contracted path (in {qualname})",
                    )
                # datetime.now()/utcnow()/today() with no arguments.
                elif (
                    func_expr.attr in _WALLCLOCK_DATETIME_CALLS
                    and not node.args
                    and not node.keywords
                    and rightmost_name(receiver) in ("datetime", "date")
                ):
                    add(
                        node, "REPRO023",
                        f"argless {rightmost_name(receiver)}."
                        f"{func_expr.attr}() reads the wall clock on a "
                        f"contracted path (in {qualname})",
                    )
        elif isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and isinstance(node.ctx, ast.Load)
            ):
                add(
                    node, "REPRO023",
                    f"os.environ read on a contracted path — inject "
                    f"configuration explicitly (in {qualname})",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = node.iter
            unordered = (
                isinstance(iter_expr, (ast.Set, ast.SetComp))
                or (
                    isinstance(iter_expr, ast.Call)
                    and (
                        (
                            isinstance(iter_expr.func, ast.Name)
                            and iter_expr.func.id in ("set", "frozenset")
                        )
                        or (
                            isinstance(iter_expr.func, ast.Attribute)
                            and iter_expr.func.attr == "keys"
                        )
                    )
                )
            )
            if unordered:
                add(
                    iter_expr, "REPRO023",
                    f"iteration over an unordered set/keys view on a "
                    f"contracted path — sort it (in {qualname})",
                )


def _check_determinism(module: Module, add: _Add) -> None:
    functions, calls, roots = _collect_functions(module)
    # Scan order is immaterial: the driver sorts findings by position.
    for key in _reachable(calls, roots):
        _scan_determinism(functions[key], key, add)


def check(module: Module) -> List[Finding]:
    """The determinism pass over one parsed module, on the solve-path
    layers (and on every file outside a ``repro`` package)."""
    findings: List[Finding] = []
    if in_scope(module.path):
        _check_determinism(module, partial(module.flag, findings))
    return findings


def in_scope(path: Path) -> bool:
    """The solve-path layers, and every file outside a ``repro`` package."""
    return in_packages(path, _SCOPED_PACKAGES)
