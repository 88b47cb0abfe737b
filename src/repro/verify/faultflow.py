"""Fault-surface analysis: what happens to this code *when things fail*.

Two contracts depend on failure paths.  A failed certificate must
surface: a broad ``except`` that swallows the typed
``PartitioningError``/``VerificationError`` turns a wrong answer into a
silent one.  And a solver's output must be deterministic: any
nondeterminism on a solver path means a re-run, or a re-solve after a
fault, need not give the bit-identical answer the reproduction rests
on.  A raise between a resource's acquire and its release leaks the
handle for the rest of the run.  The other analyzers cover allocation,
concurrency and complexity but say nothing about failure; this pass
closes that gap:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO020    A resource acquisition (``open``/``io.open``, sockets,
            process/thread pools, ``SharedMemory``, ``.acquire()``)
            outside a ``with`` item or a try/finally discipline: a
            raise can escape between acquire and release and leak the
            handle.  Interprocedural within a class, like the
            concurrency pass: ``self._fh = open(...)`` is accepted
            when the class releases the attribute in a ``close``-like
            method *and* no raise-capable statement follows the
            acquire unguarded.
REPRO021    A broad or bare ``except`` (``Exception``,
            ``BaseException``) that does not re-raise: it swallows
            ``PartitioningError``/``VerificationError``, so a failed
            certificate dies silently.
REPRO023    A nondeterminism source on a contracted solver path (the
            functions whose outputs land in solver results
            and trace/JSONL payloads): unseeded ``random``/
            ``np.random`` draws, wall-clock reads (``time.time``,
            argless ``datetime.now``), ``os.environ`` reads, and
            iteration over unordered ``set``/``.keys()`` views.
REPRO024    A silent-drop ``except`` handler: the body neither
            re-raises, returns, publishes/logs through the hub, nor
            increments a metric — the error simply vanishes.
            Import-fallback handlers (``except ImportError``) are
            exempt; that pattern is how optional NumPy is gated.
==========  ==========================================================

The pass is scoped (under the installed ``repro`` package) to
``core``/``engine``/``observability`` — the layers every solve and
every ``repro batch`` run goes through.  REPRO023 roots at the
functions listed in :data:`repro.verify.contracts.CONTRACTS` and
follows the same within-module call graph as
:mod:`repro.verify.hotpath`.  Files outside a ``repro`` package
(fixtures, tests) are always analyzed.  The CLI's exit codes need no
rule: ``tests/integration/test_cli.py`` drives every exit site and
asserts its documented :data:`repro.exitcodes.EXIT_CODES` value.

The static pass *claims*; the fault tests in
``tests/engine/test_threads_and_faults.py`` and
``tests/observability/test_threads_and_faults.py`` *certify* — each
raises at one acquire/IO point and then proves with the certificate
checkers that locks are released, sinks resume past the torn tail,
and the engine answers the same query bit-identically afterwards.

Run it with ``repro analyze --faults [paths]`` (exit status: 0 clean,
1 findings, 2 usage/parse errors).
"""

from __future__ import annotations

import ast
from functools import partial
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.verify.codes import messages_for
from repro.verify.hotpath import (
    _FUNC_NODES,
    _NUMPY_ALIASES,
    _collect_functions,
    _reachable,
)
from repro.verify.lint import (
    Finding,
    Module,
    attr_path,
    in_packages,
    rightmost_name,
)

#: Drawn from the central registry (:mod:`repro.verify.codes`).
FAULTFLOW_RULES: Dict[str, str] = messages_for("repro.verify.faultflow")

#: Packages analyzed (under the ``repro`` package) for the lifecycle,
#: exception-flow and determinism rules: the layers every solve runs in.
_SCOPED_PACKAGES = frozenset(("core", "engine", "observability"))

#: Rightmost callee names that acquire an OS-level resource (REPRO020).
_RESOURCE_CONSTRUCTORS = frozenset(
    (
        "open",
        "socket",
        "create_connection",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "Pool",
        "SharedMemory",
        "TemporaryFile",
        "NamedTemporaryFile",
        "popen",
        "Popen",
    )
)

#: Method names that acquire a lock-like resource (REPRO020).
_ACQUIRE_METHODS = frozenset(("acquire",))

#: Method names that release a previously acquired resource.
_RELEASE_METHODS = frozenset(
    ("close", "release", "shutdown", "terminate", "unlink", "stop", "kill")
)

#: Exception names considered broad for REPRO021.
_BROAD_EXCEPTIONS = frozenset(("Exception", "BaseException"))

#: Exception names whose handlers are exempt from REPRO024: the
#: import-fallback idiom (``except ImportError: HAVE_NUMPY = False``).
_IMPORT_FALLBACK_EXCEPTIONS = frozenset(("ImportError", "ModuleNotFoundError"))

#: Rightmost callee names that count as *reporting* inside an except
#: handler (REPRO024): hub publishes, logging, metric updates, queue
#: hand-offs and user-facing prints.
_REPORTING_CALLS = frozenset(
    (
        "publish",
        "emit",
        "log",
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
        "inc",
        "observe",
        "add",
        "append",
        "record",
        "put",
        "write",
        "print",
    )
)

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


#: Pragma-aware finding collector shared by the sub-checkers:
#: ``add(node, code, message)``.
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


def _exception_names(node: Optional[ast.expr]) -> Set[str]:
    """Rightmost names of the exception types an ``except`` clause lists."""
    if node is None:
        return set()
    if isinstance(node, ast.Tuple):
        names: Set[str] = set()
        for elt in node.elts:
            names |= _exception_names(elt)
        return names
    name = rightmost_name(node)
    return {name} if name is not None else set()


# ----------------------------------------------------------------------
# REPRO020 — resource lifecycle
# ----------------------------------------------------------------------


def _acquire_label(node: ast.expr) -> Optional[str]:
    """What kind of acquisition ``node`` is, or None."""
    if not isinstance(node, ast.Call):
        return None
    name = rightmost_name(node.func)
    if name in _RESOURCE_CONSTRUCTORS:
        return f"{name}(...)"
    if (
        name in _ACQUIRE_METHODS
        and isinstance(node.func, ast.Attribute)
        and attr_path(node.func.value) is not None
    ):
        return f"{attr_path(node.func.value)}.acquire()"
    return None


def _raise_capable(stmt: ast.stmt) -> bool:
    """Can ``stmt`` plausibly raise?  (Coarse: calls, raises, asserts.)

    Constant/name rebinds between an acquire and its guard are fine;
    anything that runs foreign code is an escape hatch for the handle.
    """
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Call, ast.Raise, ast.Assert)):
            return True
    return False


def _releases_path(stmts: Sequence[ast.stmt], target: str,
                   class_release_methods: FrozenSet[str]) -> bool:
    """Do ``stmts`` contain a release call for dotted path ``target``?

    A release is ``<target>.close()``-style directly, or (the
    within-class interprocedural step) ``self.<m>()`` where ``m`` is a
    method of the owning class known to release resources.
    """
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = attr_path(func.value)
            if func.attr in _RELEASE_METHODS and receiver == target:
                return True
            if (
                func.attr in class_release_methods
                and receiver == "self"
            ):
                return True
    return False


def _with_item_paths(stmt: ast.stmt) -> Set[str]:
    """Dotted paths consumed as context managers by a with statement."""
    paths: Set[str] = set()
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            expr = item.context_expr
            path = attr_path(expr)
            if path is not None:
                paths.add(path)
            elif isinstance(expr, ast.Call):
                for arg in expr.args:
                    arg_path = attr_path(arg)
                    if arg_path is not None:
                        paths.add(arg_path)
    return paths


class _ResourceChecker:
    """REPRO020 over one function, with class-level release knowledge."""

    def __init__(
        self,
        add: _Add,
        class_release_methods: FrozenSet[str],
        released_attrs: FrozenSet[str],
        qualname: str,
    ) -> None:
        self._add = add
        self._class_release_methods = class_release_methods
        self._released_attrs = released_attrs
        self.qualname = qualname

    def scan(self, func: ast.AST) -> None:
        self._scan_block(list(getattr(func, "body", [])), protected=False)

    # -- block walking ---------------------------------------------------

    def _scan_block(self, stmts: List[ast.stmt], protected: bool) -> None:
        for index, stmt in enumerate(stmts):
            rest = stmts[index + 1:]
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                # Acquires used as context expressions are the goal
                # state; everything else inside the items still counts.
                safe_ids = {
                    id(item.context_expr) for item in stmt.items
                }
                self._scan_exprs(stmt, rest, protected, skip=safe_ids,
                                 block_stmt=stmt)
                self._scan_block(list(stmt.body), protected)
            elif isinstance(stmt, ast.Try):
                guarded = protected or bool(stmt.finalbody) or bool(stmt.handlers)
                self._scan_block(list(stmt.body), guarded)
                for handler in stmt.handlers:
                    self._scan_block(list(handler.body), protected)
                self._scan_block(list(stmt.orelse), guarded)
                self._scan_block(list(stmt.finalbody), protected)
            elif isinstance(stmt, _FUNC_NODES):
                self._scan_block(list(stmt.body), protected=False)
            elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
                self._scan_exprs(stmt, rest, protected, skip=set(),
                                 block_stmt=stmt, shallow=True)
                for block in (
                    getattr(stmt, "body", []), getattr(stmt, "orelse", [])
                ):
                    self._scan_block(list(block), protected)
            else:
                self._scan_exprs(stmt, rest, protected, skip=set(),
                                 block_stmt=stmt)

    def _scan_exprs(
        self,
        stmt: ast.stmt,
        rest: List[ast.stmt],
        protected: bool,
        skip: Set[int],
        block_stmt: ast.stmt,
        shallow: bool = False,
    ) -> None:
        """Find acquire calls in one statement's expressions."""
        if shallow:
            # Compound headers: only the test/iter, bodies recurse above.
            nodes: List[ast.AST] = []
            for field in ("test", "iter"):
                sub = getattr(stmt, field, None)
                if sub is not None:
                    nodes.append(sub)
        else:
            nodes = [stmt]
        for root in nodes:
            for sub in ast.walk(root):
                if isinstance(sub, _FUNC_NODES) or isinstance(sub, ast.Lambda):
                    continue
                if not isinstance(sub, ast.Call) or id(sub) in skip:
                    continue
                label = _acquire_label(sub)
                if label is None:
                    continue
                if protected:
                    continue
                self._judge(stmt, sub, label, rest)

    # -- the verdict ------------------------------------------------------

    def _judge(
        self, stmt: ast.stmt, call: ast.Call, label: str,
        rest: List[ast.stmt],
    ) -> None:
        # Ownership transfer: ``return open(...)`` hands the handle to
        # the caller, whose job the discipline then is.  Only the
        # directly-returned call qualifies — an acquire nested inside
        # another call's arguments (``return process(open(p))``) leaks
        # if that call raises.
        if isinstance(stmt, ast.Return) and stmt.value is call:
            return
        target = self._acquire_target(stmt, call)
        if target is not None and self._guarded_after(target, rest):
            return
        self._add(
            call,
            "REPRO020",
            f"{label} acquired outside 'with'/try-finally — a raise "
            f"here leaks the resource (in {self.qualname})",
        )

    def _acquire_target(
        self, stmt: ast.stmt, call: ast.Call
    ) -> Optional[str]:
        """The dotted path the acquire binds to (or releases against)."""
        if isinstance(stmt, ast.Assign) and stmt.value is call:
            if len(stmt.targets) == 1:
                return attr_path(stmt.targets[0])
            return None
        if isinstance(stmt, ast.AnnAssign) and stmt.value is call:
            return attr_path(stmt.target)
        if isinstance(stmt, ast.Expr) and stmt.value is call:
            # Bare ``lock.acquire()``: the receiver is what must be
            # released.
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in _ACQUIRE_METHODS:
                return attr_path(func.value)
        return None

    def _guarded_after(self, target: str, rest: List[ast.stmt]) -> bool:
        """Is ``target`` released before a raise can escape?

        Walk the rest of the block: the acquire is safe when, before
        the first raise-capable statement, we meet a ``with target:``,
        a ``try`` whose finally/handlers release it, a direct release
        call, or ``return target``.
        """
        for stmt in rest:
            if target in _with_item_paths(stmt):
                return True
            if isinstance(stmt, ast.Try):
                cleanup: List[ast.stmt] = list(stmt.finalbody)
                for handler in stmt.handlers:
                    cleanup.extend(handler.body)
                if _releases_path(cleanup, target, self._class_release_methods):
                    return True
                return False
            if isinstance(stmt, ast.Expr) and _releases_path(
                [stmt], target, self._class_release_methods
            ):
                return True
            if (
                isinstance(stmt, ast.Return)
                and stmt.value is not None
                and attr_path(stmt.value) == target
            ):
                return True
            if _raise_capable(stmt):
                return False
        # End of block, nothing raised in between: a ``self.<attr>``
        # acquire is the long-lived-resource pattern provided the class
        # releases the attribute somewhere; a local that is never
        # released still leaks on any later raise.
        if target.startswith("self."):
            attr = target.split(".", 1)[1]
            return attr in self._released_attrs
        return False


def _class_release_info(
    cls: ast.ClassDef,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(releasing method names, self attrs released) for one class.

    A method releases when its body calls ``self.<attr>.close()``-style
    or nulls a handle attribute out (``self._fh = None``).  One
    indirection level is folded in (``close()`` calling
    ``self._release()``), matching how the concurrency pass follows
    ``self.<m>()`` edges.
    """
    direct: Dict[str, Set[str]] = {}
    calls: Dict[str, Set[str]] = {}
    for member in cls.body:
        if not isinstance(member, _FUNC_NODES):
            continue
        released: Set[str] = set()
        called: Set[str] = set()
        for sub in ast.walk(member):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                receiver = attr_path(sub.func.value)
                if (
                    sub.func.attr in _RELEASE_METHODS
                    and receiver is not None
                    and receiver.startswith("self.")
                ):
                    released.add(receiver.split(".", 1)[1])
                if receiver == "self":
                    called.add(sub.func.attr)
            if isinstance(sub, ast.Assign):
                for tgt in sub.targets:
                    path = attr_path(tgt)
                    if (
                        path is not None
                        and path.startswith("self.")
                        and isinstance(sub.value, ast.Constant)
                        and sub.value.value is None
                    ):
                        released.add(path.split(".", 1)[1])
        direct[member.name] = released
        calls[member.name] = called
    # One fixpoint round: a method that calls a releasing method releases.
    changed = True
    while changed:
        changed = False
        for name, called in calls.items():
            for other in called:
                gained = direct.get(other, set()) - direct[name]
                if gained:
                    direct[name] |= gained
                    changed = True
    methods = frozenset(name for name, rel in direct.items() if rel)
    attrs = frozenset(a for rel in direct.values() for a in rel)
    return methods, attrs


# ----------------------------------------------------------------------
# The per-file checker
# ----------------------------------------------------------------------


def _check_resources(tree: ast.Module, add: _Add) -> None:
    """REPRO020 over every function, with class release knowledge."""
    no_methods: FrozenSet[str] = frozenset()
    no_attrs: FrozenSet[str] = frozenset()

    def scan_function(func: ast.AST, qualname: str,
                      methods: FrozenSet[str], attrs: FrozenSet[str]) -> None:
        _ResourceChecker(add, methods, attrs, qualname).scan(func)

    for stmt in tree.body:
        if isinstance(stmt, _FUNC_NODES):
            scan_function(stmt, stmt.name, no_methods, no_attrs)
        elif isinstance(stmt, ast.ClassDef):
            methods, attrs = _class_release_info(stmt)
            for member in stmt.body:
                if isinstance(member, _FUNC_NODES):
                    scan_function(
                        member, f"{stmt.name}.{member.name}", methods, attrs
                    )


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler body contain a re-raise (bare or explicit)?"""
    for stmt in handler.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Raise):
                return True
    return False


def _handler_reports(handler: ast.ExceptHandler) -> bool:
    """Does the handler return, report via a call, or bump a counter?"""
    for stmt in handler.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Return, ast.AugAssign)):
                return True
            if isinstance(sub, ast.Call):
                name = rightmost_name(sub.func)
                if name is None:
                    continue
                # Private wrappers count: ``self._publish_result(...)``
                # is hub reporting just as much as ``hub.publish(...)``.
                name = name.lstrip("_")
                if name in _REPORTING_CALLS or name.startswith("publish"):
                    return True
    return False


def _check_exceptions(tree: ast.Module, add: _Add) -> None:
    """REPRO021 (broad swallows) and REPRO024 (silent drops)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _exception_names(node.type)
        broad = node.type is None or bool(names & _BROAD_EXCEPTIONS)
        if broad and not _handler_reraises(node):
            add(
                node,
                "REPRO021",
                "broad except swallows PartitioningError/"
                "VerificationError — catch the typed exceptions or "
                "re-raise",
            )
        if names & _IMPORT_FALLBACK_EXCEPTIONS:
            continue
        if not _handler_reraises(node) and not _handler_reports(node):
            add(
                node,
                "REPRO024",
                "except handler drops the error silently — re-raise, "
                "publish to the hub, or increment a metric",
            )


# ----------------------------------------------------------------------
# REPRO023 — determinism taint on contracted solver paths
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def check(module: Module) -> List[Finding]:
    """The fault-surface pass over one parsed module: the lifecycle,
    exception-flow and determinism rules, on the solve-path layers (and
    on every file outside a ``repro`` package)."""
    findings: List[Finding] = []
    if not in_scope(module.path):
        return findings
    add: _Add = partial(module.flag, findings)
    _check_resources(module.tree, add)
    _check_exceptions(module.tree, add)
    _check_determinism(module, add)
    return findings


def in_scope(path: Path) -> bool:
    """The solve-path layers, and every file outside a ``repro`` package."""
    return in_packages(path, _SCOPED_PACKAGES)
