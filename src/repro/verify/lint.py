"""repro-lint: repository-specific static checks, as an AST pass.

Generic linters cannot know this codebase's conventions — that hot-path
classes must be slotted, that a disabled
:class:`~repro.instrumentation.counters.OpCounter` must be the shared
``NULL_COUNTER`` singleton, or that telemetry publishes on hot paths
are guarded.  This module encodes those rules over the stdlib
:mod:`ast` so they run anywhere the package runs, with no third-party
dependency:

==========  ==========================================================
Code        Rule
==========  ==========================================================
REPRO002    Classes defined under ``core/``, ``engine/``, ``desim/``,
            ``realtime/`` or ``machine/`` must declare ``__slots__`` —
            the first two are per-query hot paths, the simulators
            allocate per-event/per-message.  Exception types,
            ``NamedTuple``/``TypedDict``/``Protocol`` classes and
            ``enum`` subclasses are exempt.
REPRO005    Never construct a disabled ``OpCounter`` — use the shared
            ``NULL_COUNTER`` singleton so no-op counters are free and
            state cannot leak into ad-hoc instances.
REPRO012    Telemetry publishes in the solver hot paths (``core/``,
            ``engine/``) and the per-event report/simulation layers
            (``analysis/``, ``realtime/``) must sit inside an
            ``if <hub>.enabled:`` guard, so disabled telemetry never
            pays for building the event dict — the
            :data:`repro.observability.live.NULL_HUB` contract.
==========  ==========================================================

Every static pass shares this module's machinery: the :class:`Module`
record (each file read, parsed and pragma-scanned once), the
:class:`Finding` type, the pragma grammar and the AST name helpers.
The passes run from one table in :mod:`repro.verify.passes`, which
``repro analyze`` and this module's :func:`main` both drive:
REPRO013 (shared-state lock discipline) in
:mod:`repro.verify.concurrency`, REPRO011 (docstrings contradicting
the ``CONTRACTS`` budgets) in
:mod:`repro.verify.contracts`, REPRO016-REPRO019 (hot-path allocation
and dispatch hygiene) in :mod:`repro.verify.hotpath` and REPRO023
(determinism taint) in :mod:`repro.verify.faultflow`.  REPRO009 (the
empirical complexity gate) lives in :mod:`repro.verify.empirical`.
The full code registry lives in :mod:`repro.verify.codes`.

Any finding can be suppressed on its line (for classes and functions,
the ``class``/``def`` line) with a pragma comment; several codes may be
listed, separated by commas and/or whitespace, and trailing free text
is treated as the justification::

    class QueryRecord:  # repro-lint: disable=REPRO002
    hub.publish(e)  # repro-lint: disable=REPRO012,REPRO005 (fixture)

Run it as a module::

    python -m repro.verify.lint src/ tests/ benchmarks/
    python -m repro.verify.lint --list-rules

Exit status: 0 clean, 1 findings, 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    TypeVar,
    Union,
)

from repro.verify.codes import messages_for
from repro.verify.contracts import CONTRACTS, Contract
from repro.verify.markers import CONCURRENT_ENTRIES, SHARED_STATE

#: This linter's rules, drawn from the central registry so codes can
#: never collide across analyzers (see :mod:`repro.verify.codes`).
RULES: Dict[str, str] = messages_for("repro.verify.lint")

#: Packages whose classes must be slotted (REPRO002): the per-query
#: solver hot paths, plus the simulators — whose event/message/packet
#: objects are allocated in the innermost loops of every demo run.
_SLOTTED_PACKAGES = frozenset(("core", "engine", "desim", "realtime", "machine"))

#: Module allowed to construct disabled OpCounters (REPRO005): the one
#: defining NULL_COUNTER itself.
_COUNTER_HOME = "counters.py"

#: Packages whose hub publishes must be guarded (REPRO012): the
#: per-query solver hot paths, where an unguarded publish would build
#: the event dict even with telemetry disabled, plus the report/
#: simulation layers (``analysis``, ``realtime``) that iterate per
#: event — intentional unguarded publishes there take a pragma.
_HUB_GUARDED_PACKAGES = frozenset(("core", "engine", "analysis", "realtime"))

#: Base classes that make __slots__ meaningless or automatic.
_SLOTS_EXEMPT_BASES = frozenset(
    (
        "Exception",
        "BaseException",
        "NamedTuple",
        "TypedDict",
        "Protocol",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "ABC",
    )
)

_PRAGMA_RE = re.compile(r"#\s*repro-lint\s*:\s*disable\s*=\s*(.*)$")
#: Shape of a rule code inside a pragma's code list.  The list may be
#: comma- and/or whitespace-separated and followed by free justification
#: text; anything not shaped like a code is ignored rather than glued
#: onto a neighbouring code.
_PRAGMA_CODE_RE = re.compile(r"[A-Z]+\d+$")


class Finding:
    """One rule violation at a source location."""

    __slots__ = ("path", "line", "col", "code", "message")

    def __init__(
        self, path: Path, line: int, col: int, code: str, message: str
    ) -> None:
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.message = message

    def __repr__(self) -> str:
        return f"Finding({self.code} at {self.path}:{self.line})"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


def pragma_disables(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule codes disabled on that line.

    Computed once per file by :class:`Module` and honoured by every
    analysis pass, so one pragma grammar rules them all.
    """
    disables: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match:
            codes = frozenset(
                token
                for token in re.split(r"[,\s]+", match.group(1))
                if _PRAGMA_CODE_RE.match(token)
            )
            if codes:
                disables[lineno] = codes
    return disables


class Surface(NamedTuple):
    """What the code declares about itself, keyed by qualified name
    (``repro.core.bandwidth.bandwidth_min``): complexity contracts,
    shared-state classes with their lock attribute, and the functions
    and methods callable from several threads at once."""

    contracts: Mapping[str, Contract] = MappingProxyType({})
    shared_state: Mapping[str, str] = MappingProxyType({})
    concurrent_entries: AbstractSet[str] = frozenset()


#: The repository's declared surface: :data:`repro.verify.contracts.CONTRACTS`
#: and the two :mod:`repro.verify.markers` tables.
SURFACE = Surface(CONTRACTS, SHARED_STATE, CONCURRENT_ENTRIES)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_V = TypeVar("_V")


def module_name(path: Path) -> str:
    """The dotted name of the module at ``path``: from the innermost
    ``repro`` folder down when the file lives in one
    (``src/repro/core/bandwidth.py`` -> ``repro.core.bandwidth``, also
    in a checkout that is itself named ``repro``), else the file's
    stem."""
    folders = path.parts[:-1]
    parts: List[str] = []
    if "repro" in folders:
        parts = list(folders[len(folders) - 1 - folders[::-1].index("repro"):])
    if path.stem != "__init__" or not parts:
        parts.append(path.stem)
    return ".".join(parts)


def _local(table: Mapping[str, _V], prefix: str) -> Dict[str, _V]:
    """The entries of ``table`` under ``prefix``, keyed by the rest."""
    return {
        key[len(prefix):]: value
        for key, value in table.items()
        if key.startswith(prefix)
    }


class Module:
    """One source file, read, parsed and pragma-scanned once.

    The record every analysis pass receives; :meth:`flag` is the one
    pragma-aware way a pass reports a finding.  It also carries the
    module's dotted :attr:`name`, its :attr:`functions` (module-level
    functions and class methods by ``name`` / ``Class.name``) and the
    declared-surface entries for this file, keyed the same way.
    """

    __slots__ = (
        "path", "source", "tree", "disables", "name", "functions",
        "contracts", "shared_state", "concurrent_entries",
    )

    def __init__(
        self, path: Path, source: str, surface: Surface = SURFACE
    ) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.disables = pragma_disables(source)
        self.name = module_name(path)
        self.functions: Dict[str, FunctionNode] = {}
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.functions[f"{stmt.name}.{member.name}"] = member
        prefix = self.name + "."
        self.contracts: Dict[str, Contract] = _local(surface.contracts, prefix)
        self.shared_state: Dict[str, str] = _local(surface.shared_state, prefix)
        self.concurrent_entries: FrozenSet[str] = frozenset(
            key[len(prefix):]
            for key in surface.concurrent_entries
            if key.startswith(prefix)
        )

    @classmethod
    def read(cls, path: Path) -> "Module":
        return cls(path, path.read_text(encoding="utf-8"))

    def flag(
        self,
        findings: List[Finding],
        node: ast.AST,
        code: str,
        message: str,
        anchors: Iterable[int] = (),
    ) -> None:
        """Append a finding at ``node`` unless a pragma disables ``code``
        on its line or on one of the extra ``anchors`` lines (the
        enclosing loop headers of a loop-scoped rule)."""
        line = getattr(node, "lineno", 0)
        for anchor in (line, *anchors):
            if code in self.disables.get(anchor, ()):
                return
        findings.append(
            Finding(self.path, line, getattr(node, "col_offset", 0),
                    code, message)
        )


def rightmost_name(node: ast.expr) -> Optional[str]:
    """The rightmost name of a ``Name``/``Attribute`` (a callee, a
    decorator, an exception type), if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def attr_path(node: ast.expr) -> Optional[str]:
    """Dotted path of a pure ``Name.attr.attr...`` chain, else None.

    Subscripts or calls anywhere in the chain break it — the load is
    then not a rebindable constant path.
    """
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


def in_packages(path: Path, packages: FrozenSet[str]) -> bool:
    """Is ``path`` inside one of the ``repro`` sub-``packages``?

    The package scope of a pass: files outside a ``repro`` package
    (fixtures, tests) are always in scope.
    """
    parts = path.parts
    if "repro" not in parts:
        return True
    inner = parts[parts.index("repro") + 1:-1]
    return bool(packages.intersection(inner))


def _base_name(node: ast.expr) -> Optional[str]:
    """The rightmost name of a base-class expression, if any."""
    if isinstance(node, ast.Subscript):  # Protocol[T], Generic[T], ...
        return _base_name(node.value)
    return rightmost_name(node)


def _has_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
    return False


def _is_slots_exempt(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        name = _base_name(base)
        if name is not None and (
            name in _SLOTS_EXEMPT_BASES or name.endswith(("Error", "Exception"))
        ):
            return True
    for deco in cls.decorator_list:
        # @dataclass(slots=True) (py>=3.10) generates __slots__ itself.
        if (
            isinstance(deco, ast.Call)
            and rightmost_name(deco.func) == "dataclass"
            and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            )
        ):
            return True
    return False


def _disabled_counter_call(node: ast.Call) -> bool:
    """True for ``OpCounter(False)`` / ``OpCounter(enabled=False)``."""
    if rightmost_name(node.func) != "OpCounter":
        return False
    for arg in node.args[:1]:
        if isinstance(arg, ast.Constant) and arg.value is False:
            return True
    for kw in node.keywords:
        if (
            kw.arg == "enabled"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
        ):
            return True
    return False


class _Checker(ast.NodeVisitor):
    """Single-file rule evaluation; path decides which rules apply."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.findings: List[Finding] = []
        path = module.path
        parts = path.parts
        # The slots rule targets the *library's* hot paths: require the
        # ``repro`` package in the path so ``tests/core`` / ``tests/engine``
        # (plain test classes, never per-query allocations) stay out.
        self._check_slots = (
            "repro" in parts and bool(_SLOTTED_PACKAGES.intersection(parts))
        )
        self._check_counter = path.name != _COUNTER_HOME
        self._check_hub = (
            "repro" in parts and bool(_HUB_GUARDED_PACKAGES.intersection(parts))
        )
        # Lexical nesting depth of ``if <x>.enabled:`` guards around the
        # node being visited (REPRO012).
        self._hub_guard = 0

    def _add(self, node: ast.AST, code: str) -> None:
        self.module.flag(self.findings, node, code, RULES[code])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._check_slots and not _has_slots(node) and not _is_slots_exempt(node):
            self._add(node, "REPRO002")
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        # An ``if`` whose test reads any ``.enabled`` attribute guards
        # its body (only) for REPRO012; the else-branch stays unguarded.
        guarded = self._check_hub and any(
            isinstance(sub, ast.Attribute) and sub.attr == "enabled"
            for sub in ast.walk(node.test)
        )
        self.visit(node.test)
        if guarded:
            self._hub_guard += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self._hub_guard -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self._check_hub
            and self._hub_guard == 0
            and isinstance(func, ast.Attribute)
            and func.attr.startswith("publish")
        ):
            self._add(node, "REPRO012")
        if self._check_counter and _disabled_counter_call(node):
            self._add(node, "REPRO005")
        self.generic_visit(node)


def check(module: Module) -> List[Finding]:
    """The lint pass (REPRO002, REPRO005, REPRO012) over one parsed
    module."""
    checker = _Checker(module)
    checker.visit(module.tree)
    return checker.findings


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """The one file walk: every ``.py`` file under ``paths``, sorted."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.lint",
        description="Repository-specific AST lint rules "
        "(REPRO002, REPRO005, REPRO012).",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
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
    # Deferred: the pass table imports every analyzer module.
    from repro.verify.passes import analyze

    try:
        findings, checked = analyze(targets, ("lint",))["lint"]
    except SyntaxError as exc:
        print(f"error: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}",
              file=sys.stderr)
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
