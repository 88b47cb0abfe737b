"""Concurrency-safety analysis: shared state and its locks.

One engine may be shared across threads: one ``PartitionEngine`` whose
plan cache and compiled plans serve many threads, one ``TelemetryHub``
fanning out events from every request, one ``MetricsRegistry``
accumulating fleet numbers.  This module holds the static pass over
that shared memory: which state is shared, who writes it, and whether
those writes hold the object's declared lock.  Two tables in
:mod:`repro.verify.markers` declare the contract by qualified name:

- :data:`~repro.verify.markers.SHARED_STATE` — the classes that are
  shared mutable state, each with its lock attribute; the 8-thread
  race tests in ``tests/*/test_threads_and_faults.py`` drive each of
  them;
- :data:`~repro.verify.markers.CONCURRENT_ENTRIES` — the functions and
  methods that may be called from multiple threads concurrently.

The pass builds a per-class call graph, infers per-function read/write
effect sets on ``self`` attributes (and module globals), propagates
*unlocked reachability* from the declared entry points, and emits:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO013    A write to shared mutable state (an attribute of a
            ``SHARED_STATE`` class, or a module global) on a path
            reachable from a ``CONCURRENT_ENTRIES`` entry point without
            holding the object's declared lock (``with self._lock:``).
==========  ==========================================================

An interleaving test cannot prove a lock is missing, so this rule
stays static.  The process boundary needs no rule: the pooled tests in
``tests/engine/test_batch.py`` fail on an unpicklable submission, a
worker that leaks module-global state, and a pool that diverges from
the serial path.

Lock inference is *interprocedural within a class*: a helper whose only
callers invoke it inside ``with self._lock:`` is considered locked, so
the guarded-entry / unguarded-helper layering of the engine caches
analyzes clean without declaring every private method.
``__init__``/``__new__`` are exempt (the object is not yet shared while
it is being constructed).  Module-level entry functions, and the
functions they call by name within the module, follow the call graph
the hot-path pass uses.  Findings honour the shared
``# repro-lint: disable=CODE`` pragma grammar.

Run it with ``repro analyze --concurrency [paths]`` (exit status: 0
clean, 1 findings, 2 usage/parse errors).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.verify.codes import messages_for
from repro.verify.hotpath import _collect_functions, _reachable
from repro.verify.lint import Finding, Module

#: Drawn from the central registry (:mod:`repro.verify.codes`).
CONCURRENCY_RULES: Dict[str, str] = messages_for("repro.verify.concurrency")


#: Container-mutating method names: ``self.attr.<m>(...)`` is a write
#: effect on the shared object and ``GLOBAL.<m>(...)`` a write to a
#: module global.
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
    """Effect inventory of one ``SHARED_STATE`` class."""

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


def _collect_shared_classes(module: Module) -> List[SharedClassEffects]:
    out: List[SharedClassEffects] = []
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        lock_attr = module.shared_state.get(stmt.name)
        if lock_attr is None:
            continue
        cls = SharedClassEffects(stmt.name, lock_attr, stmt)
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                entry = f"{stmt.name}.{member.name}" in module.concurrent_entries
                effects = MethodEffects(member.name, entry, member)
                visitor = _MethodVisitor(lock_attr, effects)
                for sub in member.body:
                    visitor.visit(sub)
                cls.methods[member.name] = effects
        out.append(cls)
    return out


# ----------------------------------------------------------------------
# Module globals on concurrent paths
# ----------------------------------------------------------------------


def _module_globals(tree: ast.Module) -> FrozenSet[str]:
    """Names bound by module-level assignments."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return frozenset(names)


class _GlobalWrites(ast.NodeVisitor):
    """Writes to module globals in one function body (nested defs
    included), as ``(node, detail)`` pairs."""

    def __init__(self, module_globals: FrozenSet[str]) -> None:
        self.module_globals = module_globals
        self.writes: List[Tuple[ast.AST, str]] = []
        self._declared_global: Set[str] = set()

    def visit_Global(self, node: ast.Global) -> None:
        self._declared_global.update(node.names)

    def _check_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._declared_global:
                self.writes.append((node, f"rebinds module global '{target.id}'"))
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _attr_root(target)
            if root is not None and root in self.module_globals:
                self.writes.append((node, f"writes into module global '{root}'"))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
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
            self.writes.append(
                (node, f"calls '{func.value.id}.{func.attr}(...)' on a module global")
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REPRO013: unlocked shared-state writes
# ----------------------------------------------------------------------


def _check_shared_classes(module: Module, findings: List[Finding]) -> None:
    for cls in _collect_shared_classes(module):
        for name in cls.unlocked_reachable():
            effects = cls.methods[name]
            for node, _attr, description, _locked in effects.unlocked_writes():
                module.flag(
                    findings,
                    node,
                    "REPRO013",
                    f"{CONCURRENCY_RULES['REPRO013']}: "
                    f"{cls.name}.{name} {description} without holding "
                    f"'self.{cls.lock_attr}' on a concurrent path",
                )


def _check_module_globals(module: Module, findings: List[Finding]) -> None:
    """Module-level ``CONCURRENT_ENTRIES`` functions (and the functions
    they call by name) must not write module globals."""
    functions, calls, _ = _collect_functions(module)
    entries = [
        name
        for name in functions
        if "." not in name and name in module.concurrent_entries
    ]
    module_globals = _module_globals(module.tree)
    for name in _reachable(calls, entries):
        writes = _GlobalWrites(module_globals)
        writes.visit(functions[name])
        for node, detail in writes.writes:
            module.flag(
                findings,
                node,
                "REPRO013",
                f"{CONCURRENCY_RULES['REPRO013']}: {name} {detail} "
                f"(module globals have no declared lock)",
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def check(module: Module) -> List[Finding]:
    """REPRO013 (the ``concurrency`` section) over one module."""
    findings: List[Finding] = []
    _check_shared_classes(module, findings)
    _check_module_globals(module, findings)
    return findings
