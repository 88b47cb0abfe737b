"""Concurrency-safety analysis: shared-state effects, locks, fork hygiene.

The engine may be shared across threads: one ``PartitionEngine`` whose
plan cache and compiled plans serve many threads, one ``TelemetryHub``
fanning out events from every request,
one ``MetricsRegistry`` accumulating fleet numbers.  The process-pool
pass (:mod:`repro.verify.flow`, REPRO006-008) covers *pickling* hygiene
across process boundaries; this module covers the *shared-memory* side:
which state is shared, who writes it, and whether those writes hold the
object's declared lock.

Two runtime markers declare the contract in code:

- :func:`shared_state` — a class decorator registering the class as
  shared mutable state and naming its lock attribute (default
  ``"_lock"``).  Decorated classes land in :data:`SHARED_REGISTRY`, the
  runtime inventory the race-hammer harness
  (:mod:`repro.verify.races`) iterates.
- :func:`concurrent_entry` — a function/method decorator marking an
  entry point that may be called from multiple threads concurrently.

The static pass then walks the AST of the target packages, builds a
per-class call graph, infers per-function read/write effect sets on
``self`` attributes (and module globals), propagates *unlocked
reachability* from the annotated entry points, and emits:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO013    A write to shared mutable state (an attribute of a
            ``@shared_state`` class, or a module global) on a path
            reachable from a ``@concurrent_entry`` entry point without
            holding the object's declared lock (``with self._lock:``).
REPRO014    A blocking call — ``time.sleep``, ``open``/file I/O,
            ``subprocess``, ``os.system``, pool/future/queue
            ``.get()``/``.result()``/``.join()`` — inside an
            ``async def`` body, where it stalls the whole event loop.
REPRO015    Fork-unsafe capture: an object carrying locks, open file
            handles, threads or a live telemetry hub is pickled into a
            process-pool worker (as an argument, an attribute, or the
            ``self`` of a submitted bound method).
==========  ==========================================================

Lock inference is *interprocedural within a class*: a helper whose only
callers invoke it inside ``with self._lock:`` is considered locked, so
the guarded-entry / unguarded-helper layering of the engine caches
analyzes clean without annotations on every private method.
``__init__``/``__new__`` are exempt (the object is not yet shared while
it is being constructed).  Findings honour the shared
``# repro-lint: disable=CODE`` pragma grammar.

Run it as a module::

    python -m repro.verify.concurrency src/
    python -m repro.verify.concurrency --list-rules

Exit status: 0 clean, 1 findings, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.verify.codes import messages_for
from repro.verify.lint import Finding, iter_python_files, pragma_disables
from repro.verify.markers import (  # noqa: F401 - canonical re-export
    SHARED_REGISTRY,
    concurrent_entry,
    shared_state,
)

#: Drawn from the central registry (:mod:`repro.verify.codes`).
CONCURRENCY_RULES: Dict[str, str] = messages_for("repro.verify.concurrency")


#: Constructors whose instances cannot survive a fork+pickle into a
#: process-pool worker (REPRO015 carriers when held as attributes).
_FORK_UNSAFE_CONSTRUCTORS = frozenset(
    (
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
        "Thread",
        "local",
        "open",
        "socket",
        "Tracer",
        "TelemetryHub",
        "StreamingJsonlSink",
        "ProfileSampler",
    )
)

#: Process-pool constructors and their callable-shipping methods
#: (mirrors :mod:`repro.verify.flow`; thread pools are exempt — they
#: share memory and pickle nothing).
_POOL_CONSTRUCTORS = frozenset(("ProcessPoolExecutor", "Pool"))
_SUBMIT_METHODS = frozenset(
    (
        "submit",
        "map",
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    )
)

#: Direct blocking calls inside ``async def`` (REPRO014).
_BLOCKING_MODULE_CALLS = frozenset(
    (
        ("time", "sleep"),
        ("os", "system"),
        ("os", "popen"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("subprocess", "Popen"),
    )
)
_BLOCKING_NAME_CALLS = frozenset(("open", "Popen"))
#: Methods that block when called on a pool result / future / queue /
#: thread / file handle tracked as a local binding.
_BLOCKING_HANDLE_METHODS = frozenset(
    ("get", "result", "join", "wait", "read", "readline", "readlines", "write")
)
#: Constructions (or producing calls) that yield a blocking handle.
_BLOCKING_HANDLE_SOURCES = frozenset(
    (
        "Pool",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "Queue",
        "SimpleQueue",
        "JoinableQueue",
        "Thread",
        "open",
        "submit",
        "apply_async",
        "map_async",
        "starmap_async",
    )
)

#: Container-mutating method names: a call ``self.attr.<m>(...)`` is a
#: write effect on the shared object (superset of the flow pass's set,
#: adding the OrderedDict/instrument mutators this codebase uses).
_MUTATOR_METHODS = frozenset(
    (
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "move_to_end",
        "inc",
        "set",
        "observe",
    )
)

#: Methods whose body is exempt from REPRO013: the object is not shared
#: with other threads while it is still being constructed.
_CONSTRUCTION_METHODS = frozenset(("__init__", "__new__", "__post_init__"))


def _name_of(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorator_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for deco in getattr(node, "decorator_list", []):
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = _name_of(target)
        if name is not None:
            names.add(name)
    return names


def _shared_lock_attr(cls: ast.ClassDef) -> Optional[str]:
    """The declared lock attribute if ``cls`` is ``@shared_state``."""
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call) and _name_of(deco.func) == "shared_state":
            for kw in deco.keywords:
                if kw.arg == "lock" and isinstance(kw.value, ast.Constant):
                    return str(kw.value.value)
            if deco.args and isinstance(deco.args[0], ast.Constant):
                return str(deco.args[0].value)
            return "_lock"
        if _name_of(deco) == "shared_state":  # bare decorator (no call)
            return "_lock"
    return None


def _attr_root(node: ast.expr) -> Optional[str]:
    """The leftmost name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class MethodEffects:
    """Inferred effect set of one method of a shared-state class."""

    __slots__ = ("name", "entry", "reads", "writes", "calls", "node")

    def __init__(self, name: str, entry: bool, node: ast.AST) -> None:
        self.name = name
        self.entry = entry
        self.node = node
        #: ``self`` attributes read anywhere in the body.
        self.reads: Set[str] = set()
        #: ``(node, attr, description, locked)`` write effects.
        self.writes: List[Tuple[ast.AST, str, str, bool]] = []
        #: ``(callee method name, locked)`` for ``self.<m>(...)`` calls.
        self.calls: List[Tuple[str, bool]] = []

    def written_attrs(self) -> Set[str]:
        return {attr for _, attr, _, _ in self.writes}

    def unlocked_writes(self) -> List[Tuple[ast.AST, str, str, bool]]:
        return [w for w in self.writes if not w[3]]


class _MethodVisitor(ast.NodeVisitor):
    """Collect one method's effects, tracking ``with self.<lock>:`` depth."""

    def __init__(self, lock_attr: str, effects: MethodEffects) -> None:
        self.lock_attr = lock_attr
        self.effects = effects
        self._lock_depth = 0

    def _locked(self) -> bool:
        return self._lock_depth > 0

    def _is_lock_item(self, item: ast.withitem) -> bool:
        return _self_attr(item.context_expr) == self.lock_attr

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: Any) -> None:
        locked_here = any(self._is_lock_item(item) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if locked_here:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked_here:
            self._lock_depth -= 1

    # Nested function definitions get their own execution context;
    # their bodies do not inherit the lexical lock state.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved, self._lock_depth = self._lock_depth, 0
        self.generic_visit(node)
        self._lock_depth = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def _record_write(self, node: ast.AST, target: ast.expr, verb: str) -> None:
        attr = _self_attr(target)
        if attr is None and _attr_root(target) == "self":
            # self.a.b = ... / self.a[k] = ... — a write *into* self.a.
            base: ast.expr = target
            while _self_attr(base) is None and isinstance(
                base, (ast.Attribute, ast.Subscript)
            ):
                base = base.value
            attr = _self_attr(base)
        if attr is None or attr == self.lock_attr:
            return
        self.effects.writes.append(
            (node, attr, f"{verb} 'self.{attr}'", self._locked())
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if _attr_root(target) == "self":
                self._record_write(node, target, "assigns")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if _attr_root(node.target) == "self":
            self._record_write(node, node.target, "updates")
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and _attr_root(node.target) == "self":
            self._record_write(node, node.target, "assigns")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if _attr_root(target) == "self":
                self._record_write(node, target, "deletes")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            callee_self = _self_attr(func)
            if callee_self is not None:
                # self.m(...): an intra-class call edge.
                self.effects.calls.append((func.attr, self._locked()))
            elif (
                func.attr in _MUTATOR_METHODS
                and _attr_root(func.value) == "self"
            ):
                base = func.value
                while _self_attr(base) is None and isinstance(
                    base, (ast.Attribute, ast.Subscript)
                ):
                    base = base.value
                attr = _self_attr(base)
                if attr is not None and attr != self.lock_attr:
                    self.effects.writes.append(
                        (
                            node,
                            attr,
                            f"calls mutator 'self.{attr}…{func.attr}(...)'",
                            self._locked(),
                        )
                    )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self.effects.reads.add(attr)
        self.generic_visit(node)


class SharedClassEffects:
    """Effect inventory of one ``@shared_state`` class."""

    __slots__ = ("name", "lock_attr", "methods", "node")

    def __init__(self, name: str, lock_attr: str, node: ast.ClassDef) -> None:
        self.name = name
        self.lock_attr = lock_attr
        self.node = node
        self.methods: Dict[str, MethodEffects] = {}

    def unlocked_reachable(self) -> Set[str]:
        """Methods reachable from an entry point with the lock *not* held.

        A call made inside ``with self.<lock>:`` reaches its callee
        locked and therefore does not propagate; every other call edge
        from an unlocked-reachable method does.
        """
        frontier = [
            name
            for name, effects in self.methods.items()
            if effects.entry and name not in _CONSTRUCTION_METHODS
        ]
        reached: Set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in reached:
                continue
            reached.add(name)
            effects = self.methods.get(name)
            if effects is None:
                continue
            for callee, locked in effects.calls:
                if (
                    not locked
                    and callee in self.methods
                    and callee not in reached
                    and callee not in _CONSTRUCTION_METHODS
                ):
                    frontier.append(callee)
        return reached


def _collect_shared_classes(tree: ast.Module) -> List[SharedClassEffects]:
    out: List[SharedClassEffects] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        lock_attr = _shared_lock_attr(stmt)
        if lock_attr is None:
            continue
        cls = SharedClassEffects(stmt.name, lock_attr, stmt)
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                entry = "concurrent_entry" in _decorator_names(member)
                effects = MethodEffects(member.name, entry, member)
                visitor = _MethodVisitor(lock_attr, effects)
                for sub in member.body:
                    visitor.visit(sub)
                cls.methods[member.name] = effects
        out.append(cls)
    return out


def shared_state_inventory(
    paths: Iterable[Path],
) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Per-class, per-method read/write effect sets over ``paths``.

    Returns ``{"<file>::<Class>": {method: {"entry": bool, "reads":
    [...], "writes": [...], "unlocked_writes": int}}}`` — the
    machine-readable shared-state inventory behind ``repro analyze
    --concurrency`` and the documentation tables.
    """
    inventory: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for path in iter_python_files(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in _collect_shared_classes(tree):
            entry = {
                name: {
                    "entry": effects.entry,
                    "reads": sorted(effects.reads),  # repro-mutate: equivalent=drop-sorted -- set order is hash-seeded
                    "writes": sorted(effects.written_attrs()),  # repro-mutate: equivalent=drop-sorted -- set order is hash-seeded
                    "unlocked_writes": len(effects.unlocked_writes()),
                }
                for name, effects in sorted(cls.methods.items())
            }
            inventory[f"{path}::{cls.name}"] = entry
    return inventory


# ----------------------------------------------------------------------
# REPRO013: unlocked shared-state writes
# ----------------------------------------------------------------------


def _check_shared_classes(
    tree: ast.Module,
    path: Path,
    disables: Dict[int, FrozenSet[str]],
) -> List[Finding]:
    findings: List[Finding] = []
    for cls in _collect_shared_classes(tree):
        reached = cls.unlocked_reachable()
        for name in sorted(reached):  # repro-mutate: equivalent=drop-sorted -- findings re-sorted before return
            effects = cls.methods[name]
            for node, _attr, description, _locked in effects.unlocked_writes():
                line = getattr(node, "lineno", 0)
                if "REPRO013" in disables.get(line, frozenset()):
                    continue
                findings.append(
                    Finding(
                        path,
                        line,
                        getattr(node, "col_offset", 0),
                        "REPRO013",
                        f"{CONCURRENCY_RULES['REPRO013']}: "
                        f"{cls.name}.{name} {description} without holding "
                        f"'self.{cls.lock_attr}' on a concurrent path",
                    )
                )
    return findings


class _GlobalWriteChecker(ast.NodeVisitor):
    """REPRO013 for module globals inside one concurrent function body."""

    def __init__(
        self,
        path: Path,
        func_name: str,
        module_globals: FrozenSet[str],
        disables: Dict[int, FrozenSet[str]],
    ) -> None:
        self.path = path
        self.func_name = func_name
        self.module_globals = module_globals
        self.disables = disables
        self.findings: List[Finding] = []
        self._declared_global: Set[str] = set()

    def _add(self, node: ast.AST, detail: str) -> None:
        line = getattr(node, "lineno", 0)
        if "REPRO013" in self.disables.get(line, frozenset()):
            return
        self.findings.append(
            Finding(
                self.path,
                line,
                getattr(node, "col_offset", 0),
                "REPRO013",
                f"{CONCURRENCY_RULES['REPRO013']}: {self.func_name} {detail} "
                f"(module globals have no declared lock)",
            )
        )

    def visit_Global(self, node: ast.Global) -> None:
        self._declared_global.update(node.names)

    def _check_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._declared_global:
                self._add(node, f"rebinds module global '{target.id}'")
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _attr_root(target)
            if root is not None and root in self.module_globals:
                self._add(node, f"writes into module global '{root}'")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.module_globals
        ):
            self._add(
                node, f"calls '{func.value.id}.{func.attr}(...)' on a module global"
            )
        self.generic_visit(node)


def _check_module_globals(
    tree: ast.Module,
    path: Path,
    disables: Dict[int, FrozenSet[str]],
) -> List[Finding]:
    """Module-level ``@concurrent_entry`` functions (and the functions
    they call by name) must not write module globals."""
    module_globals: Set[str] = set()
    functions: Dict[str, ast.AST] = {}
    calls: Dict[str, Set[str]] = {}
    entries: List[str] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module_globals.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                module_globals.add(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = stmt
            calls[stmt.name] = {
                _name_of(sub.func) or ""
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
            }
            if "concurrent_entry" in _decorator_names(stmt):
                entries.append(stmt.name)
    reached: Set[str] = set()
    frontier = list(entries)
    while frontier:
        name = frontier.pop()
        if name in reached or name not in functions:
            continue
        reached.add(name)
        frontier.extend(c for c in calls.get(name, ()) if c in functions)
    findings: List[Finding] = []
    frozen = frozenset(module_globals)
    for name in sorted(reached):  # repro-mutate: equivalent=drop-sorted -- findings re-sorted before return
        checker = _GlobalWriteChecker(path, name, frozen, disables)
        checker.visit(functions[name])
        findings.extend(checker.findings)
    return findings


# ----------------------------------------------------------------------
# REPRO014: blocking calls in async bodies
# ----------------------------------------------------------------------


class _AsyncBlockingChecker(ast.NodeVisitor):
    """Flag blocking calls lexically inside ``async def`` bodies."""

    def __init__(self, path: Path, disables: Dict[int, FrozenSet[str]]) -> None:
        self.path = path
        self.disables = disables
        self.findings: List[Finding] = []
        self._async_depth = 0
        self._async_name = ""
        #: Local names bound to blocking handles inside the current
        #: async body (files, pools, queues, async results, threads).
        self._handles: Set[str] = set()

    def _add(self, node: ast.AST, detail: str) -> None:
        line = getattr(node, "lineno", 0)
        if "REPRO014" in self.disables.get(line, frozenset()):
            return
        self.findings.append(
            Finding(
                self.path,
                line,
                getattr(node, "col_offset", 0),
                "REPRO014",
                f"{CONCURRENCY_RULES['REPRO014']}: {detail} inside "
                f"'async def {self._async_name}'",
            )
        )

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        saved = (self._async_depth, self._async_name, self._handles)
        self._async_depth += 1
        self._async_name = node.name
        self._handles = set()
        for stmt in node.body:
            self.visit(stmt)
        self._async_depth, self._async_name, self._handles = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested sync def has its own call-time context; don't blame
        # the enclosing coroutine for its body.
        saved = (self._async_depth, self._async_name, self._handles)
        self._async_depth = 0
        for stmt in node.body:
            self.visit(stmt)
        self._async_depth, self._async_name, self._handles = saved

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._async_depth and isinstance(node.value, ast.Call):
            source = _name_of(node.value.func)
            if source in _BLOCKING_HANDLE_SOURCES:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._handles.add(target.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth:
            func = node.func
            if isinstance(func, ast.Name) and func.id in _BLOCKING_NAME_CALLS:
                self._add(node, f"blocking '{func.id}(...)'")
            elif isinstance(func, ast.Attribute):
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and (base.id, func.attr) in _BLOCKING_MODULE_CALLS
                ):
                    self._add(node, f"blocking '{base.id}.{func.attr}(...)'")
                elif (
                    isinstance(base, ast.Name)
                    and base.id in self._handles
                    and func.attr in _BLOCKING_HANDLE_METHODS
                ):
                    self._add(
                        node,
                        f"blocking '{base.id}.{func.attr}(...)' on a "
                        f"pool/file/queue handle",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REPRO015: fork-unsafe capture into process pools
# ----------------------------------------------------------------------


def _fork_unsafe_class_attrs(tree: ast.Module) -> Dict[str, Dict[str, str]]:
    """Per intra-module class: attr -> fork-unsafe constructor name.

    A class *carries* fork-unsafe state when any method assigns
    ``self.<attr> = Ctor(...)`` with a known-unpicklable constructor, or
    with another intra-module carrier class (one fixpoint pass covers
    transitive composition).  ``@shared_state`` classes always carry at
    least their declared lock.
    """
    carriers: Dict[str, Dict[str, str]] = {}
    class_nodes: Dict[str, ast.ClassDef] = {
        stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    }
    for name, cls in class_nodes.items():
        attrs: Dict[str, str] = {}
        lock_attr = _shared_lock_attr(cls)
        if lock_attr is not None:
            attrs[lock_attr] = "RLock"
        for sub in ast.walk(cls):
            if not isinstance(sub, ast.Assign) or not isinstance(
                sub.value, ast.Call
            ):
                continue
            ctor = _name_of(sub.value.func)
            if ctor is None:
                continue
            for target in sub.targets:
                attr = _self_attr(target)
                if attr is not None and ctor in _FORK_UNSAFE_CONSTRUCTORS:
                    attrs[attr] = ctor
        if attrs:
            carriers[name] = attrs
    # One fixpoint pass: classes holding carrier instances carry too.
    changed = True
    while changed:
        changed = False
        for name, cls in class_nodes.items():
            for sub in ast.walk(cls):
                if not isinstance(sub, ast.Assign) or not isinstance(
                    sub.value, ast.Call
                ):
                    continue
                ctor = _name_of(sub.value.func)
                if ctor not in carriers or ctor == name:
                    continue
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is not None and attr not in carriers.get(name, {}):
                        carriers.setdefault(name, {})[attr] = ctor
                        changed = True
    return carriers


class _ForkCaptureChecker(ast.NodeVisitor):
    """Track pool bindings + carrier locals; flag unsafe submissions."""

    def __init__(
        self,
        path: Path,
        carriers: Dict[str, Dict[str, str]],
        enclosing_class: Optional[str],
        disables: Dict[int, FrozenSet[str]],
    ) -> None:
        self.path = path
        self.carriers = carriers
        self.enclosing_class = enclosing_class
        self.disables = disables
        self.findings: List[Finding] = []
        self._pools: Set[str] = set()
        #: local name -> carrier class name
        self._carrier_locals: Dict[str, str] = {}
        #: every attr known fork-unsafe on some intra-module class
        self._unsafe_attrs: Dict[str, str] = {
            attr: ctor
            for attrs in carriers.values()
            for attr, ctor in attrs.items()
        }

    def _add(self, node: ast.AST, detail: str) -> None:
        line = getattr(node, "lineno", 0)
        if "REPRO015" in self.disables.get(line, frozenset()):
            return
        self.findings.append(
            Finding(
                self.path,
                line,
                getattr(node, "col_offset", 0),
                "REPRO015",
                f"{CONCURRENCY_RULES['REPRO015']}: {detail}",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            ctor = _name_of(node.value.func)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if ctor in _POOL_CONSTRUCTORS:
                    self._pools.add(target.id)
                elif ctor in self.carriers:
                    self._carrier_locals[target.id] = ctor
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if (
                isinstance(item.context_expr, ast.Call)
                and _name_of(item.context_expr.func) in _POOL_CONSTRUCTORS
                and isinstance(item.optional_vars, ast.Name)
            ):
                self._pools.add(item.optional_vars.id)
        self.generic_visit(node)

    def _describe_carrier(self, cls_name: str) -> str:
        attrs = self.carriers.get(cls_name, {})
        if not attrs:
            return cls_name
        attr, ctor = sorted(attrs.items())[0]
        return f"{cls_name} (carries '.{attr}' = {ctor}(...))"

    def _check_expr(self, expr: ast.expr, call: ast.Call, role: str) -> None:
        if isinstance(expr, ast.Name):
            cls_name = self._carrier_locals.get(expr.id)
            if cls_name is not None:
                self._add(
                    call,
                    f"{role} '{expr.id}', an instance of "
                    f"{self._describe_carrier(cls_name)}",
                )
        elif isinstance(expr, ast.Attribute):
            attr = expr.attr
            base = expr.value
            if attr in self._unsafe_attrs and (
                (isinstance(base, ast.Name) and base.id == "self")
                or (isinstance(base, ast.Name) and base.id in self._carrier_locals)
            ):
                self._add(
                    call,
                    f"{role} '.{attr}' "
                    f"({self._unsafe_attrs[attr]}(...) — unpicklable)",
                )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SUBMIT_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self._pools
            and node.args
        ):
            target = node.args[0]
            # A bound method pickles its whole self.
            if isinstance(target, ast.Attribute):
                base = target.value
                if isinstance(base, ast.Name) and base.id == "self" and (
                    self.enclosing_class in self.carriers
                ):
                    self._add(
                        node,
                        f"submits bound method 'self.{target.attr}' of "
                        + self._describe_carrier(str(self.enclosing_class)),
                    )
                elif (
                    isinstance(base, ast.Name)
                    and base.id in self._carrier_locals
                ):
                    self._add(
                        node,
                        f"submits bound method '{base.id}.{target.attr}' of "
                        + self._describe_carrier(
                            self._carrier_locals[base.id]
                        ),
                    )
            for arg in list(node.args[1:]) + [kw.value for kw in node.keywords]:
                self._check_expr(arg, node, "ships")
        self.generic_visit(node)


def _check_fork_captures(
    tree: ast.Module,
    path: Path,
    disables: Dict[int, FrozenSet[str]],
) -> List[Finding]:
    carriers = _fork_unsafe_class_attrs(tree)
    findings: List[Finding] = []

    def scan(node: ast.AST, enclosing_class: Optional[str]) -> None:
        for stmt in getattr(node, "body", []):
            if isinstance(stmt, ast.ClassDef):
                scan(stmt, stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                checker = _ForkCaptureChecker(
                    path, carriers, enclosing_class, disables
                )
                for sub in stmt.body:
                    checker.visit(sub)
                findings.extend(checker.findings)
                scan(stmt, enclosing_class)

    scan(tree, None)
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def concurrency_check_source(source: str, path: Path) -> List[Finding]:
    """Run all three concurrency rules over one module's source text."""
    tree = ast.parse(source, filename=str(path))
    disables = pragma_disables(source)
    findings: List[Finding] = []
    findings.extend(_check_shared_classes(tree, path, disables))
    findings.extend(_check_module_globals(tree, path, disables))
    async_checker = _AsyncBlockingChecker(path, disables)
    async_checker.visit(tree)
    findings.extend(async_checker.findings)
    findings.extend(_check_fork_captures(tree, path, disables))
    findings.sort(key=lambda f: (f.line, f.col, f.code))  # repro-mutate: equivalent=drop-tuple-field -- checks run in code order; stable sort keeps it
    return findings


def check_concurrency(paths: Iterable[Path]) -> Tuple[List[Finding], int]:
    """Concurrency-check files/trees; returns ``(findings, files_checked)``."""
    findings: List[Finding] = []
    checked = 0
    for path in iter_python_files(paths):
        findings.extend(
            concurrency_check_source(path.read_text(encoding="utf-8"), path)
        )
        checked += 1
    return findings, checked


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.concurrency",
        description="Concurrency-safety analyzer (REPRO013-REPRO015).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to check")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(CONCURRENCY_RULES):  # repro-mutate: equivalent=drop-sorted -- table is declared in code order
            print(f"{code}  {CONCURRENCY_RULES[code]}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try 'src/')", file=sys.stderr)
        return 2
    targets = [Path(p) for p in args.paths]
    missing = [p for p in targets if not p.exists()]
    if missing:
        for p in missing:
            print(f"error: no such path: {p}", file=sys.stderr)
        return 2
    try:
        findings, checked = check_concurrency(targets)
    except SyntaxError as exc:
        print(
            f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    for finding in findings:
        print(finding.render())
    summary = (
        f"{len(findings)} finding(s) in {checked} file(s)"
        if findings
        else f"clean: {checked} file(s)"
    )
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
