"""Domain-aware AST mutation operators for the solver kill pipeline.

Each operator seeds one family of semantic faults that Algorithm 4.1's
``O(n + p log q)`` construction invites — boundary comparisons in the
critical-window predicate, ±1 shifts in prime-subpath index arithmetic,
dropped cut-set elements, omitted cache-key fields, inverted heap
priorities, unsorted greedy sweeps.  The registry is deliberately small
and *targeted*: every operator models a bug class the target's tier-1
tests claim to catch, so a surviving mutant is direct evidence of a
missing test.

Sites are enumerated by a deterministic pre-order walk (grammar field
order) of the parsed module, so a ``(module, operator, index)`` triple
names the same mutation on every run and every machine — the property
the seeded sampler and the committed CI baseline both rely on.

Subtrees that cannot carry runtime semantics are never mutated:
annotations (``PEP 563`` strings at runtime), ``returns`` clauses, and
dunder assignments such as ``__slots__``/``__all__``.  Tuples appearing
as a ``Subscript`` slice are excluded from the tuple-field operator —
they are overwhelmingly typing expressions (``Tuple[int, bool]``),
which would only breed equivalent mutants.

Genuinely equivalent mutants are annotated in the *target* source with::

    # repro-mutate: equivalent=<op>[,<op>...] -- reason

on the mutated line (bare ``equivalent`` covers every operator).  The
engine excludes annotated sites from the score denominator and reports
them separately, mirroring the ``# repro-lint: disable=`` pragma
grammar.
"""

from __future__ import annotations

import ast
import copy
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MutationSite",
    "MutationOperator",
    "OPERATORS",
    "operator_catalog",
    "enumerate_sites",
    "apply_site",
    "equivalent_annotations",
]


class MutationSite:
    """One applicable mutation: ``(operator, index)`` plus provenance.

    ``index`` is the occurrence number of the operator within the
    module's deterministic walk — together with the module name it is a
    stable mutant identifier across runs.
    """

    __slots__ = ("operator", "index", "lineno", "col_offset", "description")

    def __init__(
        self,
        operator: str,
        index: int,
        lineno: int,
        col_offset: int,
        description: str,
    ) -> None:
        self.operator = operator
        self.index = index
        self.lineno = lineno
        self.col_offset = col_offset
        self.description = description

    def key(self) -> Tuple[str, int]:
        return (self.operator, self.index)

    def __repr__(self) -> str:
        return (
            f"MutationSite({self.operator}#{self.index} "
            f"@{self.lineno}:{self.col_offset} {self.description!r})"
        )


class MutationOperator:
    """Base class: match AST nodes and produce mutated replacements.

    ``candidates`` returns ``(variant, description)`` pairs for one node
    (several when a node carries multiple mutable positions, e.g. a
    chained comparison).  ``mutate`` edits a *deep-copied* node in place
    or returns a replacement node.
    """

    __slots__ = ()

    name = ""
    summary = ""

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        raise NotImplementedError

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        raise NotImplementedError


_COMPARE_FLIPS: Dict[type, type] = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
}

_COMPARE_SYMBOLS: Dict[type, str] = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


class FlipComparison(MutationOperator):
    """``<`` ↔ ``<=`` / ``>`` ↔ ``>=`` — weight-bound boundary flips.

    Models the classic critical-window bug: treating a subpath of weight
    exactly ``K`` as critical (or vice versa).
    """

    __slots__ = ()

    name = "flip-compare"
    summary = "flip a strict/non-strict comparison (`<` <-> `<=`, `>` <-> `>=`)"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if not isinstance(node, ast.Compare):
            return ()
        out: List[Tuple[int, str]] = []
        for i, op in enumerate(node.ops):
            flip = _COMPARE_FLIPS.get(type(op))
            if flip is not None:
                out.append(
                    (i, f"`{_COMPARE_SYMBOLS[type(op)]}` -> `{_COMPARE_SYMBOLS[flip]}`")
                )
        return out

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.Compare)
        node.ops[variant] = _COMPARE_FLIPS[type(node.ops[variant])]()
        return node


class ShiftIndexBoundary(MutationOperator):
    """``x ± 1`` → ``x ± 2`` — off-by-one shifts in index arithmetic.

    Targets the prime-subpath endpoint arithmetic (``b + 1`` prefix
    offsets, ``a + 2`` window floors, ``lo[j] - 1`` gamma translation).
    """

    __slots__ = ()

    name = "shift-index"
    summary = "shift a +/-1 or +/-2 offset one further (off-by-one seeding)"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.Add, ast.Sub))
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int
            and 1 <= node.right.value <= 2
        ):
            sym = "+" if isinstance(node.op, ast.Add) else "-"
            v = node.right.value
            return ((0, f"`{sym} {v}` -> `{sym} {v + 1}`"),)
        return ()

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant)
        node.right = ast.Constant(value=node.right.value + 1)
        return node


class SwapArithmetic(MutationOperator):
    """``+`` ↔ ``-`` on non-literal operands — prefix-sum sign bugs.

    Complements :class:`ShiftIndexBoundary`: hits the subtraction-form
    weight expressions (``prefix[b + 1] - prefix[a]``) rather than the
    literal offsets inside them.
    """

    __slots__ = ()

    name = "swap-arith"
    summary = "swap `+` <-> `-` where the right operand is not a small literal"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
            return ()
        # Small-literal offsets belong to shift-index; skip to keep the
        # two operators' site sets disjoint.
        if (
            isinstance(node.right, ast.Constant)
            and type(node.right.value) is int
            and 1 <= node.right.value <= 2
        ):
            return ()
        if isinstance(node.op, ast.Add):
            return ((0, "`+` -> `-`"),)
        return ((0, "`-` -> `+`"),)

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.BinOp)
        node.op = ast.Sub() if isinstance(node.op, ast.Add) else ast.Add()
        return node


class DropAppend(MutationOperator):
    """Delete an ``x.append(...)`` / ``x.add(...)`` statement.

    Models dropped cut-set elements (a cut edge never emitted), dropped
    prime candidates, and lost op-count accounting.
    """

    __slots__ = ()

    name = "drop-append"
    summary = "delete a statement-level `.append(...)` / `.add(...)` call"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr in ("append", "add")
        ):
            return ((0, f"delete `.{node.value.func.attr}(...)` statement"),)
        return ()

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        return ast.Pass()


class DropTupleField(MutationOperator):
    """Drop the last element of a literal tuple — cache-key omissions.

    Models a fingerprint/cache key missing a distinguishing field
    (``(bound, apply_reduction)`` → ``(bound,)``) and truncated
    multi-value returns.
    """

    __slots__ = ()

    name = "drop-tuple-field"
    summary = "drop the final element of a literal tuple (cache-key omission)"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if (
            isinstance(node, ast.Tuple)
            and isinstance(node.ctx, ast.Load)
            and len(node.elts) >= 2
            and field != "slice"  # Subscript slices are typing expressions
            and not any(isinstance(e, ast.Starred) for e in node.elts)
        ):
            return ((0, f"drop final element of {len(node.elts)}-tuple"),)
        return ()

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.Tuple)
        node.elts = node.elts[:-1]
        return node


class InvertHeapOrder(MutationOperator):
    """Negate the priority pushed onto a heap — min-heap → max-heap.

    Targets ``heapq.heappush(heap, (priority, payload))`` call sites in
    the baselines and simulators.
    """

    __slots__ = ()

    name = "heap-invert"
    summary = "negate the first tuple element pushed via `heappush`"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if not isinstance(node, ast.Call):
            return ()
        func = node.func
        named = (
            (isinstance(func, ast.Attribute) and func.attr == "heappush")
            or (isinstance(func, ast.Name) and func.id == "heappush")
        )
        if (
            named
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Tuple)
            and len(node.args[1].elts) >= 1
        ):
            return ((0, "negate heap priority (min-heap -> max-heap)"),)
        return ()

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.Call)
        tup = node.args[1]
        assert isinstance(tup, ast.Tuple)
        tup.elts[0] = ast.UnaryOp(op=ast.USub(), operand=tup.elts[0])
        return node


class DropSorted(MutationOperator):
    """``sorted(x, ...)`` → ``list(x)`` — unsorted greedy sweeps.

    Models the bottleneck greedy consuming edges in arbitrary order
    (key functions and ``reverse=`` flags are dropped along with the
    sort).
    """

    __slots__ = ()

    name = "drop-sorted"
    summary = "replace `sorted(x, ...)` with `list(x)`"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and len(node.args) >= 1
        ):
            return ((0, "`sorted(x, ...)` -> `list(x)`"),)
        return ()

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.Call)
        return ast.Call(
            func=ast.Name(id="list", ctx=ast.Load()),
            args=[node.args[0]],
            keywords=[],
        )


class FlipMinMax(MutationOperator):
    """``min(...)`` ↔ ``max(...)`` — extremum selection bugs.

    Targets the cache stability interval (``min_prime_weight``) and the
    TEMP_S minimum-weight selection.
    """

    __slots__ = ()

    name = "flip-minmax"
    summary = "swap a builtin `min(...)` <-> `max(...)` call"

    def candidates(
        self, node: ast.AST, parent: ast.AST, field: str
    ) -> Sequence[Tuple[int, str]]:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")
        ):
            other = "max" if node.func.id == "min" else "min"
            return ((0, f"`{node.func.id}(...)` -> `{other}(...)`"),)
        return ()

    def mutate(self, node: ast.AST, variant: int) -> ast.AST:
        assert isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        node.func.id = "max" if node.func.id == "min" else "min"
        return node


#: Registry in canonical order — enumeration, sampling and reporting all
#: iterate this tuple, so its order is part of the determinism contract.
OPERATORS: Tuple[MutationOperator, ...] = (
    FlipComparison(),
    ShiftIndexBoundary(),
    SwapArithmetic(),
    DropAppend(),
    DropTupleField(),
    InvertHeapOrder(),
    DropSorted(),
    FlipMinMax(),
)

_OPERATORS_BY_NAME: Dict[str, MutationOperator] = {op.name: op for op in OPERATORS}


def operator_catalog() -> List[Tuple[str, str]]:
    """``(name, summary)`` pairs for docs and ``--help`` style output."""
    return [(op.name, op.summary) for op in OPERATORS]


# ----------------------------------------------------------------------
# Deterministic traversal
# ----------------------------------------------------------------------

#: Node fields whose subtrees carry no runtime semantics worth mutating.
_SKIPPED_FIELDS = frozenset(("annotation", "returns"))


def _is_dunder_assign(node: ast.AST) -> bool:
    """True for ``__slots__ = ...`` style statements (never mutated)."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    for target in targets:
        if (
            isinstance(target, ast.Name)
            and target.id.startswith("__")
            and target.id.endswith("__")
        ):
            return True
    return False


def _walk(
    node: ast.AST,
) -> Iterator[Tuple[ast.AST, ast.AST, str]]:
    """Pre-order ``(child, parent, field)`` walk in grammar field order."""
    for field, value in ast.iter_fields(node):
        if field in _SKIPPED_FIELDS:
            continue
        if isinstance(value, ast.AST):
            children: List[ast.AST] = [value]
        elif isinstance(value, list):
            children = [v for v in value if isinstance(v, ast.AST)]
        else:
            continue
        for child in children:
            if _is_dunder_assign(child):
                continue
            yield child, node, field
            yield from _walk(child)


def enumerate_sites(tree: ast.Module) -> List[MutationSite]:
    """All mutation sites of the module, in canonical order.

    Canonical order is the pre-order walk, with the operator registry
    order breaking ties on a single node; per-operator indices count up
    in that same order, so ``(operator, index)`` is a stable address.
    """
    counters: Dict[str, int] = {op.name: 0 for op in OPERATORS}
    sites: List[MutationSite] = []
    for node, parent, field in _walk(tree):
        lineno = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        for op in OPERATORS:
            for _variant, description in op.candidates(node, parent, field):
                sites.append(
                    MutationSite(op.name, counters[op.name], lineno, col, description)
                )
                counters[op.name] += 1
    return sites


def apply_site(tree: ast.Module, site: MutationSite) -> ast.Module:
    """Return a deep-copied module with the site's mutation applied.

    Raises :class:`LookupError` when the site does not exist in the
    tree (stale index — e.g. source drifted under a saved baseline).
    """
    op = _OPERATORS_BY_NAME.get(site.operator)
    if op is None:
        raise LookupError(f"unknown mutation operator {site.operator!r}")
    clone = copy.deepcopy(tree)
    seen = 0
    for node, parent, field in _walk(clone):
        for variant, _description in op.candidates(node, parent, field):
            if seen == site.index:
                replacement = op.mutate(node, variant)
                if replacement is not node:
                    _replace_child(parent, field, node, replacement)
                ast.fix_missing_locations(clone)
                return clone
            seen += 1
    raise LookupError(
        f"mutation site {site.operator}#{site.index} not found "
        f"({seen} sites of that operator exist)"
    )


def _replace_child(
    parent: ast.AST, field: str, old: ast.AST, new: ast.AST
) -> None:
    value = getattr(parent, field)
    if isinstance(value, list):
        value[value.index(old)] = new
    else:
        setattr(parent, field, new)


# ----------------------------------------------------------------------
# Equivalent-mutant annotations
# ----------------------------------------------------------------------

_PRAGMA_RE = re.compile(
    r"#\s*repro-mutate:\s*equivalent(?:=(?P<ops>[A-Za-z0-9_,\- ]+?))?\s*(?:--|$)"
)


def equivalent_annotations(source: str) -> Dict[int, FrozenSet[str]]:
    """Per-line equivalent-mutant annotations from the original source.

    Maps 1-based line numbers to the set of operator names annotated as
    equivalent on that line; the sentinel ``"*"`` covers every operator
    (bare ``# repro-mutate: equivalent``).  Unknown operator names are
    kept verbatim — the engine reports them rather than crashing, so a
    typo shows up as an annotation that never matches.
    """
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        ops = match.group("ops")
        if ops is None:
            out[lineno] = frozenset(("*",))
        else:
            names = frozenset(p.strip() for p in ops.split(",") if p.strip())
            out[lineno] = names if names else frozenset(("*",))
    return out


def site_is_annotated(
    site: MutationSite, annotations: Dict[int, FrozenSet[str]]
) -> bool:
    """True when the site's line carries a matching equivalence pragma."""
    names: Optional[FrozenSet[str]] = annotations.get(site.lineno)
    if names is None:
        return False
    return "*" in names or site.operator in names
