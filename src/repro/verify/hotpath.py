"""Hot-path allocation & dispatch analysis over contracted solver code.

PR 6 made the engine's compiled plans answer warm sweeps ~14000x faster
than the seed loop, and the bench ratchet defends that number — but
only on the few paths it times.  Nothing stopped a refactor from
quietly re-introducing per-query allocations or Python-level dispatch
into any *other* hot loop.  Algorithm-engineering work on cut problems
(Noe, arXiv 2108.04566) and memory-bounded tree scheduling (Marchal et
al., arXiv 1210.2580) both make the same point: constant-factor memory
traffic, not asymptotics, decides real throughput.  This pass enforces
that insight statically, the way :mod:`repro.verify.concurrency`
enforces lock discipline.

The analysis roots at every function with an entry in
:data:`repro.verify.contracts.CONTRACTS` — the code declared a hot
path — and follows the same
within-module call-graph machinery ``concurrency.py`` uses (module
functions reached through ``Name`` calls, same-class methods reached
through ``self.<m>()`` calls) so helpers inherit their callers'
hot-path status.  Four rules run over every reached function:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO016    Loop-invariant allocation rebuilt every iteration: a
            non-empty list/dict/set/tuple literal, a comprehension, or
            an ``np.zeros``/``np.empty``/``np.array``-style allocator
            call whose name dependencies are all bound outside the
            loop.  Hoist it (or preallocate a scratch buffer).
REPRO017    The same dotted attribute path loaded >= 2 times per
            iteration of one loop (``edge.first_prime`` three times a
            lap, ``self._memo`` on every pass).  Bind it to a local
            before — or at the top of — the loop body.
REPRO018    Accidentally-quadratic idioms inside a loop: list
            ``insert(0, ...)``, membership tests against a list
            literal, and ``+=`` list/str concatenation.
REPRO019    A chained NumPy expression inside a loop builds >= 2
            intermediate arrays on array operands — an ``out=``/
            in-place form on a preallocated buffer exists.
==========  ==========================================================

REPRO016-REPRO018 are *loop-scoped* rules: a ``# repro-lint:
disable=`` pragma on any enclosing loop header suppresses them for the
whole loop body (nested loops included), so one justified pragma
covers a whole remediated-by-design loop instead of dotting every
line.  REPRO019 keeps the usual line-anchored pragma.

When pointed at a tree that contains the installed ``repro`` package,
only ``core``/``engine``/``graphs`` files are analyzed — the packages
whose complexity contracts the empirical gate enforces.  Files
outside a ``repro`` package (fixtures, tests) are always analyzed.

The static pass *claims*; :mod:`repro.verify.allocs` *certifies* —
its ``AllocationHarness`` pins the analyzer-clean paths to committed
allocation budgets in ``BENCH_engine.json``, gated by ``repro
ratchet``.

Run it with ``repro analyze --hotpath [paths]`` (exit status: 0 clean,
1 findings, 2 usage/parse errors).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.verify.codes import messages_for
from repro.verify.lint import (
    Finding,
    FunctionNode,
    Module,
    attr_path,
    in_packages,
)

#: Drawn from the central registry (:mod:`repro.verify.codes`).
HOTPATH_RULES: Dict[str, str] = messages_for("repro.verify.hotpath")

#: Rules whose pragmas are loop-scoped: a pragma on any enclosing loop
#: header suppresses findings anywhere inside that loop's body.
LOOP_SCOPED_RULES: FrozenSet[str] = frozenset(
    ("REPRO016", "REPRO017", "REPRO018")
)

#: Packages analyzed when the file lives under the ``repro`` package —
#: the contracted solver layers this pass is scoped to.
_SCOPED_PACKAGES = frozenset(("core", "engine", "graphs"))

#: Module aliases NumPy is conventionally imported as.
_NUMPY_ALIASES = frozenset(("np", "numpy"))

#: ``np.<name>(...)`` calls that allocate a fresh array (REPRO016).
_NUMPY_ALLOCATORS = frozenset(
    (
        "array",
        "asarray",
        "arange",
        "empty",
        "empty_like",
        "full",
        "full_like",
        "linspace",
        "ones",
        "ones_like",
        "zeros",
        "zeros_like",
    )
)

#: ``np.<name>(...)`` elementwise calls that build one temporary each
#: (REPRO019) — every one of them accepts ``out=``.
_NUMPY_ELEMENTWISE = frozenset(
    ("abs", "add", "divide", "maximum", "minimum", "multiply", "subtract",
     "where")
)

#: Loads of one dotted path per iteration tolerated before REPRO017.
_ATTR_LOAD_THRESHOLD = 2

#: Intermediate-producing operations per expression tolerated before
#: REPRO019.
_TEMP_CHAIN_THRESHOLD = 2

_LOOP_NODES = (ast.For, ast.AsyncFor, ast.While)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_BINOP_TEMP_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv,
                   ast.Mod, ast.Pow, ast.BitAnd, ast.BitOr, ast.BitXor)


def _load_names(node: ast.AST) -> Set[str]:
    """Names read by an expression, minus comprehension-local targets."""
    comp_targets: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.comprehension):
            for name in ast.walk(sub.target):
                if isinstance(name, ast.Name):
                    comp_targets.add(name.id)
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    } - comp_targets


def _assigned_names(nodes: Sequence[ast.stmt]) -> Set[str]:
    """Every name stored/deleted anywhere under ``nodes``.

    Deliberately coarse (includes nested scopes and comprehension
    targets): a name that *might* change inside the loop must count as
    loop-variant, or REPRO016 would claim false hoists.
    """
    assigned: Set[str] = set()
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                assigned.add(sub.id)
    return assigned


def _numpy_callee(node: ast.Call) -> Optional[str]:
    """``"zeros"`` for ``np.zeros(...)`` / ``numpy.zeros(...)``."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_ALIASES
    ):
        return func.attr
    return None


def _allocation_label(node: ast.expr) -> Optional[str]:
    """What kind of allocation ``node`` is, or None.

    Empty literals are exempt: ``row = []`` inside a loop is the
    accumulator-reset idiom, not a hoist candidate.  All-constant
    tuples are exempt too — the compiler folds them to one object.
    """
    if isinstance(node, ast.List) and node.elts:
        return "list literal"
    if isinstance(node, ast.Set) and node.elts:
        return "set literal"
    if isinstance(node, ast.Dict) and node.keys:
        return "dict literal"
    if (
        isinstance(node, ast.Tuple)
        and isinstance(node.ctx, ast.Load)
        and node.elts
        and not all(isinstance(elt, ast.Constant) for elt in node.elts)
    ):
        return "tuple literal"
    if isinstance(node, ast.ListComp):
        return "list comprehension"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.DictComp):
        return "dict comprehension"
    if isinstance(node, ast.Call):
        callee = _numpy_callee(node)
        if callee in _NUMPY_ALLOCATORS:
            return f"np.{callee}(...)"
    return None


class _LoopFrame:
    """One enclosing loop while walking a function body."""

    __slots__ = ("node", "header_line", "variant", "attr_loads",
                 "attr_stores", "first_load")

    def __init__(self, node: ast.stmt, variant: Set[str]) -> None:
        self.node = node
        self.header_line = node.lineno
        self.variant = variant
        #: dotted path -> load count within this loop's per-iteration
        #: region (body, plus the test for while loops).
        self.attr_loads: Dict[str, int] = {}
        #: dotted paths written inside the loop — binding those to a
        #: local would go stale, so they are exempt from REPRO017.
        self.attr_stores: Set[str] = set()
        #: dotted path -> first load node, for finding anchors.
        self.first_load: Dict[str, ast.expr] = {}


class _FunctionScanner:
    """Run the four hot-path rules over one reached function."""

    def __init__(
        self, module: Module, findings: List[Finding], qualname: str
    ) -> None:
        self.module = module
        self.findings = findings
        self.qualname = qualname
        self.loops: List[_LoopFrame] = []
        self.array_names: Set[str] = set()
        #: node ids of ``in``/``not in`` comparators — the peephole
        #: optimizer folds constant list/set comparators to tuple/
        #: frozenset constants, so they are not per-iteration
        #: allocations (REPRO018 owns the membership finding).
        self._comparator_skip: Set[int] = set()

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        # Loop-scoped rules honour a pragma on any enclosing loop
        # header: one justified pragma covers the whole body.
        headers = (
            [frame.header_line for frame in self.loops]
            if code in LOOP_SCOPED_RULES
            else []
        )
        self.module.flag(self.findings, node, code, message, headers)

    # -- array-likeness for REPRO019 ------------------------------------

    def _seed_array_names(self, func: ast.AST) -> None:
        """Names that demonstrably hold NumPy arrays in this function.

        A name qualifies when it is assigned from an ``np.*`` call, is
        passed *to* an ``np.*`` call, or is assigned from an expression
        that reads an already-qualified name (one fixpoint sweep per
        round, run to closure).
        """
        body = getattr(func, "body", [])
        np_call_args: Set[str] = set()
        assigns: List[Tuple[Set[str], Set[str]]] = []
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and _numpy_callee(sub) is not None:
                    for arg in sub.args:
                        np_call_args |= _load_names(arg)
                if isinstance(sub, ast.Assign):
                    targets = {
                        t.id for t in sub.targets if isinstance(t, ast.Name)
                    }
                    if targets:
                        if isinstance(sub.value, ast.Call) and _numpy_callee(
                            sub.value
                        ) is not None:
                            self.array_names |= targets
                        else:
                            assigns.append((targets, _load_names(sub.value)))
        self.array_names |= np_call_args
        changed = True
        while changed:
            changed = False
            for targets, reads in assigns:
                if reads & self.array_names and not targets <= self.array_names:
                    self.array_names |= targets
                    changed = True

    # -- walking --------------------------------------------------------

    def scan(self, func: ast.AST) -> None:
        self._seed_array_names(func)
        for stmt in getattr(func, "body", []):
            self._walk(stmt)

    def _walk(self, node: ast.AST) -> None:
        if isinstance(node, _FUNC_NODES) or isinstance(node, ast.Lambda):
            return  # nested defs run later, on their own clock
        if isinstance(node, _LOOP_NODES):
            self._enter_loop(node)
            return
        if self.loops:
            self._inspect(node)
        if isinstance(node, ast.Attribute) and attr_path(node) is not None:
            # A pure chain's children are the same load, not new ones —
            # stopping here is what makes REPRO017 count maximal chains.
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child)

    def _enter_loop(self, node: ast.stmt) -> None:
        variant = _assigned_names(node.body)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    variant.add(sub.id)
            # The iterable is evaluated once, before the first lap:
            # nothing in it runs per iteration.
            per_iteration: List[ast.AST] = list(node.body)
        else:
            per_iteration = [node.test, *node.body]
        frame = _LoopFrame(node, variant)
        self.loops.append(frame)
        for region_node in per_iteration:
            self._walk(region_node)
        self.loops.pop()
        self._flush_attr_loads(frame)

    def _inspect(self, node: ast.AST) -> None:
        """Per-node rule evaluation inside at least one loop."""
        frame = self.loops[-1]
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)):
                    self._comparator_skip.add(id(comparator))
        if isinstance(node, ast.expr) and id(node) not in self._comparator_skip:
            label = _allocation_label(node)
            if label is not None and not any(
                _load_names(node) & outer.variant for outer in self.loops
            ):
                self._add(
                    node,
                    "REPRO016",
                    f"{label} is loop-invariant but rebuilt every "
                    f"iteration of the loop at line "
                    f"{self.loops[0].header_line} — hoist it "
                    f"(in {self.qualname})",
                )
        if isinstance(node, ast.Attribute):
            self._record_attr(node, frame)
        if isinstance(node, ast.Call):
            self._check_insert_front(node)
        if isinstance(node, ast.Compare):
            self._check_list_membership(node)
        if isinstance(node, ast.AugAssign):
            self._check_concat_growth(node)
        if isinstance(node, (ast.Assign, ast.Expr, ast.AugAssign)):
            self._check_temp_chain(node)

    # -- REPRO017 -------------------------------------------------------

    def _record_attr(self, node: ast.Attribute, frame: _LoopFrame) -> None:
        path = attr_path(node)
        if path is None:
            return
        if isinstance(node.ctx, ast.Load):
            # Only maximal chains count: ``a.b`` inside ``a.b.c`` is
            # the same load, not a second one.  _walk visits parents
            # before children, so suppress children here.
            frame.attr_loads[path] = frame.attr_loads.get(path, 0) + 1
            frame.first_load.setdefault(path, node)
        else:
            frame.attr_stores.add(path)

    def _flush_attr_loads(self, frame: _LoopFrame) -> None:
        for path, count in frame.attr_loads.items():
            if count < _ATTR_LOAD_THRESHOLD:
                continue
            root = path.split(".", 1)[0]
            stored_prefix = any(
                store == path or path.startswith(store + ".")
                for store in frame.attr_stores
            )
            # A rebound root (other than the for-target itself) or a
            # stored prefix would make the local binding stale.
            target_names: Set[str] = set()
            if isinstance(frame.node, (ast.For, ast.AsyncFor)):
                target_names = {
                    sub.id
                    for sub in ast.walk(frame.node.target)
                    if isinstance(sub, ast.Name)
                }
            rebound_root = (
                root in _assigned_names(frame.node.body)
                and root not in target_names
            )
            if stored_prefix or rebound_root:
                continue
            anchor = frame.first_load[path]
            self._add(
                anchor,
                "REPRO017",
                f"'{path}' is loaded {count}x per iteration of the loop "
                f"at line {frame.header_line} — bind it to a local "
                f"(in {self.qualname})",
            )

    # -- REPRO018 -------------------------------------------------------

    def _check_insert_front(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "insert"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0
        ):
            self._add(
                node,
                "REPRO018",
                "insert(0, ...) inside a loop shifts the whole list "
                f"every call — build reversed and flip once, or use a "
                f"deque (in {self.qualname})",
            )

    def _check_list_membership(self, node: ast.Compare) -> None:
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                comparator, ast.List
            ):
                self._add(
                    node,
                    "REPRO018",
                    "membership test against a list inside a loop is a "
                    f"linear scan per lap — use a set or frozenset "
                    f"(in {self.qualname})",
                )

    def _check_concat_growth(self, node: ast.AugAssign) -> None:
        if not isinstance(node.op, ast.Add):
            return
        value = node.value
        grows = (
            isinstance(value, (ast.List, ast.ListComp, ast.JoinedStr))
            or (isinstance(value, ast.Constant) and isinstance(value.value, str))
        )
        if grows:
            self._add(
                node,
                "REPRO018",
                "+= concatenation inside a loop recopies the "
                f"accumulator every lap — append/extend and join once "
                f"(in {self.qualname})",
            )

    # -- REPRO019 -------------------------------------------------------

    def _check_temp_chain(self, node: ast.stmt) -> None:
        value = getattr(node, "value", None)
        if value is None or not self.array_names:
            return
        temps = self._count_temps(value)
        if temps < _TEMP_CHAIN_THRESHOLD:
            return
        if not (_load_names(value) & self.array_names):
            return
        self._add(
            node,
            "REPRO019",
            f"expression chains {temps} array-producing operations "
            f"inside a loop — reuse a scratch buffer via out= "
            f"(in {self.qualname})",
        )

    def _count_temps(self, expr: ast.expr) -> int:
        count = 0
        for sub in ast.walk(expr):
            if isinstance(sub, ast.BinOp) and isinstance(
                sub.op, _BINOP_TEMP_OPS
            ):
                count += 1
            elif isinstance(sub, ast.Call) and (
                _numpy_callee(sub) in _NUMPY_ELEMENTWISE
            ):
                count += 1
        return count


# ----------------------------------------------------------------------
# Call-graph rooting
# ----------------------------------------------------------------------


def _collect_functions(
    module: Module,
) -> Tuple[Dict[str, FunctionNode], Dict[str, Set[str]], List[str]]:
    """Module functions and same-class methods, with resolved calls.

    Keys are ``name`` for module-level functions and ``Class.name``
    for methods (:attr:`Module.functions`); ``Name(...)`` calls and
    ``self.<m>()`` calls are the edges, so listed methods
    (``CompiledChainPlan.solve_bounds``) reach their private ``_impl``
    helpers.  The roots are the functions the module's
    :data:`~repro.verify.contracts.CONTRACTS` entries name.  The one
    within-module call graph: the determinism pass walks it from the
    same roots, the concurrency pass from its entries.
    """
    functions = module.functions
    calls: Dict[str, Set[str]] = {}
    for key, node in functions.items():
        owner, _, _ = key.rpartition(".")
        reached: Set[str] = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Name) and func.id in functions:
                reached.add(func.id)
            elif (
                owner
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and f"{owner}.{func.attr}" in functions
            ):
                reached.add(f"{owner}.{func.attr}")
        calls[key] = reached

    roots = [key for key in functions if key in module.contracts]
    return functions, calls, roots


def _reachable(calls: Dict[str, Set[str]], roots: List[str]) -> Set[str]:
    reached: Set[str] = set()
    frontier = list(roots)
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        frontier.extend(calls.get(key, ()))
    return reached


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def check(module: Module) -> List[Finding]:
    """The hot-path pass over one parsed module."""
    functions, calls, roots = _collect_functions(module)
    findings: List[Finding] = []
    # Scan order is immaterial: the driver sorts findings by position.
    for key in _reachable(calls, roots):
        _FunctionScanner(module, findings, key).scan(functions[key])
    return findings


def in_scope(path: Path) -> bool:
    """Scope repo files to the contracted solver packages."""
    return in_packages(path, _SCOPED_PACKAGES)
