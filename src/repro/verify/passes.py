"""The analyzer driver: one file walk, one parse per file, one pass table.

Every static pass is declared here as data — its ``check(module) ->
findings`` function over a :class:`~repro.verify.lint.Module` (the
record each file is read, parsed and pragma-scanned into exactly once)
and its package-scope predicate, if it has one.

``repro analyze`` runs the :data:`ANALYZE_SECTIONS` and ``python -m
repro.verify.lint`` runs ``lint``, both through :func:`analyze`.

Findings come back per file in source order (line, column, code), the
order every report and test relies on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.verify import concurrency, contracts, faultflow, hotpath, lint
from repro.verify.lint import SURFACE, Finding, Module, Surface, iter_python_files


class Pass(NamedTuple):
    """One static pass: its ``check(module)`` function and its
    ``(path) -> bool`` package-scope predicate (``None``: every file)."""

    check: Callable[[Module], List[Finding]]
    scope: Optional[Callable[[Path], bool]] = None


#: Every static pass, by the report section it fills.
PASSES: Dict[str, Pass] = {
    "lint": Pass(lint.check),
    "contracts": Pass(contracts.check),
    "concurrency": Pass(concurrency.check),
    "hotpath": Pass(hotpath.check, hotpath.in_scope),
    "faults": Pass(faultflow.check, faultflow.in_scope),
}

#: The sections ``repro analyze`` runs, in report order.
ANALYZE_SECTIONS: Tuple[str, ...] = (
    "contracts", "concurrency", "hotpath", "faults",
)


def _in_scope(section: str, path: Path) -> bool:
    scope = PASSES[section].scope
    return scope is None or scope(path)


def run(module: Module, section: str) -> List[Finding]:
    """One pass over one parsed module, findings in source order."""
    findings = PASSES[section].check(module)
    return sorted(findings, key=lambda f: (f.line, f.col, f.code))


def check_source(
    section: str, source: str, path: Path, surface: Surface = SURFACE
) -> List[Finding]:
    """One pass over source text; raises ``SyntaxError`` on bad input.

    ``surface`` replaces the repository's declared surface (contracts,
    shared-state classes, concurrent entries), so a test can declare
    the entries of the source it checks.
    """
    return run(Module(path, source, surface), section)


def analyze(
    paths: Iterable[Path], sections: Sequence[str]
) -> Dict[str, Tuple[List[Finding], int]]:
    """Run ``sections`` over files/trees: ``{section: (findings, files)}``.

    Each file in some selected pass's scope is parsed once and handed to
    every selected pass whose scope holds it; ``files`` counts the files
    a pass checked.  Raises ``SyntaxError`` on the first unparseable one.
    """
    findings: Dict[str, List[Finding]] = {name: [] for name in sections}
    checked = dict.fromkeys(sections, 0)
    for path in iter_python_files(paths):
        selected = [name for name in sections if _in_scope(name, path)]
        if not selected:
            continue
        module = Module.read(path)
        for name in selected:
            findings[name].extend(run(module, name))
            checked[name] += 1
    return {name: (findings[name], checked[name]) for name in sections}
