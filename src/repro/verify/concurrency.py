"""Concurrency-safety analysis: process-pool hygiene and shared state.

:meth:`repro.engine.batch.PartitionEngine.solve_many` fans queries out
over a ``concurrent.futures`` process pool (the discrete-event
simulators in :mod:`repro.desim` model the same fan-out), and one
engine may be shared across threads: one ``PartitionEngine`` whose plan
cache and compiled plans serve many threads, one ``TelemetryHub``
fanning out events from every request, one ``MetricsRegistry``
accumulating fleet numbers.  This module holds the two static passes
over that concurrency.

The *pool rules* (the ``flow`` report section) cover the process
boundary.  Code that runs in a pool worker lives under constraints the
interpreter cannot enforce: the submitted callable and its arguments
must pickle, module globals are per-process copies whose mutation
silently diverges from the parent, and unseeded random streams repeat
across forked workers.  The pass walks the call graph reachable from
pool-submitted entry points and flags:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO006    Worker-reachable code rebinds or mutates a module-level
            global.  Each process has its own copy; the parent never
            sees the write, so results depend on pool scheduling.
REPRO007    A callable submitted to a process pool cannot pickle: a
            ``lambda``/nested function, or a closure/argument carrying
            an unpicklable value (``Tracer``, locks, open handles,
            threads).
REPRO008    Worker-reachable code draws from the module-level
            ``random`` / ``numpy.random`` stream without seeding —
            forked workers inherit identical state and replay the same
            "random" numbers.
==========  ==========================================================

The *shared-state rules* (the ``concurrency`` report section) cover
shared memory: which state is shared, who writes it, and whether those
writes hold the object's declared lock.  Two tables in
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
REPRO015    Fork-unsafe capture: an object carrying locks, open file
            handles, threads or a live telemetry hub is pickled into a
            process-pool worker (as an argument, an attribute, or the
            ``self`` of a submitted bound method).
==========  ==========================================================

Detection is intra-module and name-based (no type inference): pools are
names bound to ``ProcessPoolExecutor(...)`` / ``multiprocessing.Pool``
constructions in a function or an enclosing one, submissions are calls
of ``submit``/``map`` (and friends) on such a name, and reachability
follows the within-module call graph the hot-path pass uses.  Thread
pools are exempt — they share the parent's memory and pickle nothing.

Lock inference is *interprocedural within a class*: a helper whose only
callers invoke it inside ``with self._lock:`` is considered locked, so
the guarded-entry / unguarded-helper layering of the engine caches
analyzes clean without declaring every private method.
``__init__``/``__new__`` are exempt (the object is not yet shared while
it is being constructed).  Findings honour the shared
``# repro-lint: disable=CODE`` pragma grammar.

Run them with ``repro analyze --flow`` / ``repro analyze --concurrency
[paths]`` (exit status: 0 clean, 1 findings, 2 usage/parse errors).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.verify.codes import messages_for
from repro.verify.faultflow import random_draw
from repro.verify.hotpath import _collect_functions, _reachable
from repro.verify.lint import Finding, Module, rightmost_name

#: Drawn from the central registry (:mod:`repro.verify.codes`).
CONCURRENCY_RULES: Dict[str, str] = messages_for("repro.verify.concurrency")


#: Constructors whose instances cannot survive a fork+pickle into a
#: process-pool worker: REPRO007 arguments and lambda captures, and
#: REPRO015 carriers when held as attributes.
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
        "Span",
        "TelemetryHub",
        "StreamingJsonlSink",
        "ProfileSampler",
    )
)

#: Process-pool constructors and their callable-shipping methods
#: (thread pools are exempt — they share memory and pickle nothing).
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

#: Container-mutating method names: ``self.attr.<m>(...)`` is a write
#: effect on the shared object (REPRO013) and ``GLOBAL.<m>(...)`` a
#: write to a module global (REPRO006/REPRO013).
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
# Module globals: REPRO006 in pool workers, REPRO013 on concurrent paths
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
    included), as ``(node, detail)`` pairs naming the target a
    ``noun`` ("global" or "module global")."""

    def __init__(self, module_globals: FrozenSet[str], noun: str) -> None:
        self.module_globals = module_globals
        self.noun = noun
        self.writes: List[Tuple[ast.AST, str]] = []
        self._declared_global: Set[str] = set()

    def visit_Global(self, node: ast.Global) -> None:
        self._declared_global.update(node.names)

    def _check_target(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self._declared_global:
                self.writes.append((node, f"rebinds {self.noun} '{target.id}'"))
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _attr_root(target)
            if root is not None and root in self.module_globals:
                self.writes.append((node, f"writes into {self.noun} '{root}'"))

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


def _global_writes(
    func: ast.AST, module_globals: FrozenSet[str], noun: str
) -> List[Tuple[ast.AST, str]]:
    visitor = _GlobalWrites(module_globals, noun)
    visitor.visit(func)
    return visitor.writes


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
        for node, detail in _global_writes(
            functions[name], module_globals, "module global"
        ):
            module.flag(
                findings,
                node,
                "REPRO013",
                f"{CONCURRENCY_RULES['REPRO013']}: {name} {detail} "
                f"(module globals have no declared lock)",
            )


# ----------------------------------------------------------------------
# Process-pool submissions: REPRO006-REPRO008 and REPRO015
# ----------------------------------------------------------------------


class _Scope:
    """One function body's pool bindings, locals and submissions."""

    __slots__ = ("parent", "cls", "pools", "locals", "nested", "calls")

    def __init__(self, parent: Optional["_Scope"], cls: Optional[str]) -> None:
        #: The enclosing function's scope: closures see its names.
        self.parent = parent
        #: The class this function is a method (or a method closure) of.
        self.cls = cls
        #: Local names bound to a process pool.
        self.pools: Set[str] = set()
        #: Local name -> constructor of the last call assigned to it.
        self.locals: Dict[str, str] = {}
        #: Names of functions defined in this body.
        self.nested: Set[str] = set()
        #: ``(receiver, call)`` for ``<receiver>.<submit method>(f, ...)``.
        self.calls: List[Tuple[str, ast.Call]] = []

    def chain(self) -> Iterator["_Scope"]:
        """This scope, then each enclosing function scope outwards."""
        scope: Optional[_Scope] = self
        while scope is not None:
            yield scope
            scope = scope.parent

    def ctor_of(self, name: str) -> Optional[str]:
        """The constructor ``name`` is bound to here or in an enclosing
        scope (closures capture), if any."""
        for scope in self.chain():
            if name in scope.locals:
                return scope.locals[name]
        return None


class _PoolIndex(ast.NodeVisitor):
    """Every function scope of a module, for the submission checks."""

    def __init__(self, tree: ast.Module) -> None:
        self.scopes: List[_Scope] = []
        self._stack: List[_Scope] = []
        self._cls: Optional[str] = None
        self.visit(tree)

    def submissions(self) -> Iterator[Tuple[_Scope, ast.Call]]:
        """``(scope, call)`` for every call shipping work to a pool."""
        for scope in self.scopes:
            for receiver, call in scope.calls:
                if any(receiver in outer.pools for outer in scope.chain()):
                    yield scope, call

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        saved, self._cls = self._cls, node.name
        self.generic_visit(node)
        self._cls = saved

    def visit_FunctionDef(self, node: Any) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.nested.add(node.name)
        scope = _Scope(parent, self._cls)
        self.scopes.append(scope)
        self._stack.append(scope)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._stack and isinstance(node.value, ast.Call):
            scope = self._stack[-1]
            ctor = rightmost_name(node.value.func)
            for target in node.targets:
                if isinstance(target, ast.Name) and ctor is not None:
                    if ctor in _POOL_CONSTRUCTORS:
                        scope.pools.add(target.id)
                    else:
                        scope.locals[target.id] = ctor
        self.generic_visit(node)

    def visit_With(self, node: Any) -> None:
        if self._stack:
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Call)
                    and rightmost_name(expr.func) in _POOL_CONSTRUCTORS
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    self._stack[-1].pools.add(item.optional_vars.id)
        self.generic_visit(node)

    visit_AsyncWith = visit_With

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self._stack
            and isinstance(func, ast.Attribute)
            and func.attr in _SUBMIT_METHODS
            and isinstance(func.value, ast.Name)
            and node.args
        ):
            self._stack[-1].calls.append((func.value.id, node))
        self.generic_visit(node)


def _free_names(node: ast.Lambda) -> Set[str]:
    """Names read inside a lambda body, minus its own parameters."""
    params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    return {
        sub.id
        for sub in ast.walk(node.body)
        if isinstance(sub, ast.Name) and sub.id not in params
    }


def _extra_args(call: ast.Call) -> List[ast.expr]:
    """Everything a submission ships besides the callable itself."""
    return [*call.args[1:], *(kw.value for kw in call.keywords)]


def check_pool_rules(module: Module) -> List[Finding]:
    """REPRO006-REPRO008 (the ``flow`` section) over one parsed module."""
    findings: List[Finding] = []

    def add(
        node: ast.AST, code: str, detail: str, anchors: Tuple[int, ...] = ()
    ) -> None:
        module.flag(
            findings, node, code, f"{CONCURRENCY_RULES[code]}: {detail}", anchors
        )

    # REPRO007 at the submission sites; collect named roots on the way.
    roots: List[str] = []
    for scope, call in _PoolIndex(module.tree).submissions():
        target = call.args[0]
        if isinstance(target, ast.Lambda):
            captured = min(
                (
                    name
                    for name in _free_names(target)
                    if scope.ctor_of(name) in _FORK_UNSAFE_CONSTRUCTORS
                ),
                default=None,
            )
            detail = "submits a lambda (never picklable)"
            if captured is not None:
                ctor = scope.ctor_of(captured)
                detail += f"; it captures '{captured}' bound to {ctor}(...)"
            # A pragma on the submitting call's line covers its arguments.
            add(target, "REPRO007", detail, (call.lineno,))
        elif isinstance(target, ast.Name):
            if any(target.id in outer.nested for outer in scope.chain()):
                add(
                    call,
                    "REPRO007",
                    f"submits nested function '{target.id}' (never picklable)",
                )
            else:
                roots.append(target.id)
        for arg in _extra_args(call):
            if not isinstance(arg, ast.Name):
                continue
            ctor = scope.ctor_of(arg.id)
            if ctor in _FORK_UNSAFE_CONSTRUCTORS:
                add(
                    arg,
                    "REPRO007",
                    f"passes '{arg.id}' bound to {ctor}(...) to a pool worker",
                    (call.lineno,),
                )

    # REPRO006/REPRO008 inside every worker-reachable function body.
    functions, calls, _ = _collect_functions(module)
    module_globals = _module_globals(module.tree)
    for name in _reachable(calls, [r for r in roots if r in functions]):
        func = functions[name]
        for node, detail in _global_writes(func, module_globals, "global"):
            add(node, "REPRO006", detail)
        if any(
            isinstance(sub, ast.Call) and rightmost_name(sub.func) == "seed"
            for sub in ast.walk(func)
        ):
            continue  # a worker that seeds its own stream is deterministic
        for sub in ast.walk(func):
            draw = random_draw(sub) if isinstance(sub, ast.Call) else None
            if draw is not None:
                stream = "numpy.random" if draw[0] == "np.random" else "random"
                add(
                    sub,
                    "REPRO008",
                    f"draws from module-level '{stream}.{draw[1]}()'",
                )
    return findings


def _fork_unsafe_class_attrs(module: Module) -> Dict[str, Dict[str, str]]:
    """Per intra-module class: attr -> fork-unsafe constructor name.

    A class *carries* fork-unsafe state when any method assigns
    ``self.<attr> = Ctor(...)`` with a known-unpicklable constructor, or
    with another intra-module carrier class (one fixpoint pass covers
    transitive composition).  ``SHARED_STATE`` classes always carry at
    least their declared lock.
    """
    carriers: Dict[str, Dict[str, str]] = {}
    class_nodes: Dict[str, ast.ClassDef] = {
        stmt.name: stmt
        for stmt in module.tree.body
        if isinstance(stmt, ast.ClassDef)
    }
    for name, cls in class_nodes.items():
        attrs: Dict[str, str] = {}
        lock_attr = module.shared_state.get(name)
        if lock_attr is not None:
            attrs[lock_attr] = "RLock"
        for sub in ast.walk(cls):
            if not isinstance(sub, ast.Assign) or not isinstance(
                sub.value, ast.Call
            ):
                continue
            ctor = rightmost_name(sub.value.func)
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
                ctor = rightmost_name(sub.value.func)
                if ctor not in carriers or ctor == name:
                    continue
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr is not None and attr not in carriers.get(name, {}):
                        carriers.setdefault(name, {})[attr] = ctor
                        changed = True
    return carriers


def _check_fork_captures(module: Module, findings: List[Finding]) -> None:
    """REPRO015: carriers of fork-unsafe state shipped to a pool."""
    carriers = _fork_unsafe_class_attrs(module)
    #: every attr known fork-unsafe on some intra-module class
    unsafe_attrs = {
        attr: ctor for attrs in carriers.values() for attr, ctor in attrs.items()
    }

    def carrier(scope: _Scope, name: str) -> Optional[str]:
        ctor = scope.ctor_of(name)
        return ctor if ctor in carriers else None

    def describe(cls_name: str) -> str:
        attr, ctor = sorted(carriers[cls_name].items())[0]
        return f"{cls_name} (carries '.{attr}' = {ctor}(...))"

    def add(call: ast.Call, detail: str) -> None:
        module.flag(
            findings, call, "REPRO015",
            f"{CONCURRENCY_RULES['REPRO015']}: {detail}",
        )

    for scope, call in _PoolIndex(module.tree).submissions():
        target = call.args[0]
        # A bound method pickles its whole self.
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            base = target.value.id
            if base == "self" and scope.cls in carriers:
                add(
                    call,
                    f"submits bound method 'self.{target.attr}' of "
                    + describe(str(scope.cls)),
                )
            else:
                cls_name = carrier(scope, base)
                if cls_name is not None:
                    add(
                        call,
                        f"submits bound method '{base}.{target.attr}' of "
                        + describe(cls_name),
                    )
        for arg in _extra_args(call):
            if isinstance(arg, ast.Name):
                cls_name = carrier(scope, arg.id)
                if cls_name is not None:
                    add(
                        call,
                        f"ships '{arg.id}', an instance of "
                        f"{describe(cls_name)}",
                    )
            elif (
                isinstance(arg, ast.Attribute)
                and arg.attr in unsafe_attrs
                and isinstance(arg.value, ast.Name)
                and (
                    arg.value.id == "self"
                    or carrier(scope, arg.value.id) is not None
                )
            ):
                add(
                    call,
                    f"ships '.{arg.attr}' "
                    f"({unsafe_attrs[arg.attr]}(...) — unpicklable)",
                )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def check(module: Module) -> List[Finding]:
    """REPRO013 and REPRO015 (the ``concurrency`` section) over one module."""
    findings: List[Finding] = []
    _check_shared_classes(module, findings)
    _check_module_globals(module, findings)
    _check_fork_captures(module, findings)
    return findings
