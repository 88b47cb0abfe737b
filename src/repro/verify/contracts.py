"""Machine-readable complexity contracts for the paper's solvers.

The paper's headline result is an asymptotic claim — Algorithm 4.1
partitions a chain in ``O(n + p log q)`` against Nicol & O'Hallaron's
``O(n log n)`` — and this module turns such claims into data the build
can check.  Every public solver carries a :func:`complexity` decorator::

    @complexity("n + p log q", counters=("prime_tasks_scanned", "search_steps"))
    def bandwidth_min(chain, bound, ...):
        ...

The decorator parses the budget into a :class:`ComplexityBudget`
(canonical sum-of-products form), attaches it to the function as
``__complexity_contract__`` and records it in a process-wide registry —
at zero per-call cost, the function object itself is returned unchanged.

Three consumers read the contracts:

- the AST pass in this module (:func:`check`), which fails
  when an exported solver lacks a contract (**REPRO010**) or when its
  docstring states ``O(...)`` claims that all disagree with the declared
  budget (**REPRO011**);
- the empirical gate (:mod:`repro.verify.empirical`), which fits
  measured :class:`~repro.instrumentation.counters.OpCounter` telemetry
  against ``budget.evaluate(...)`` at geometric scales (**REPRO009**);
- humans, via ``repro analyze`` and the docs.

Budget grammar (whitespace-separated product factors, ``+``-separated
terms; see ``docs/verification.md``)::

    budget  := term ("+" term)*
    term    := factor factor*
    factor  := VAR            # n, p, q, r, m, s, c, l  (any [a-z]+ name)
             | VAR "^" INT    # n^2
             | "log" VAR      # log n   (also accepts log(n))
             | INT "^" VAR    # 2^n     (exponential brute-force budgets)
             | INT            # constant factors, ignored asymptotically

This module is deliberately stdlib-only: solver modules in
:mod:`repro.core` and :mod:`repro.baselines` import it at definition
time, so it must not import them (or anything that does) back.  For the
same reason the AST pass imports :mod:`repro.verify.lint` only when it
runs: ``import repro`` must not load the lint module, or ``python -m
repro.verify.lint`` would find it already imported.
"""

from __future__ import annotations

import ast
import math
import re
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.verify.codes import messages_for

if TYPE_CHECKING:
    from repro.verify.lint import Finding, Module

#: Rule codes enforced by the contract AST pass (the empirical gate owns
#: REPRO009; see :mod:`repro.verify.empirical`).
#: Drawn from the central registry (:mod:`repro.verify.codes`).
CONTRACT_RULES: Dict[str, str] = messages_for("repro.verify.contracts")


class BudgetSyntaxError(ValueError):
    """A budget string does not conform to the contract grammar."""


_VAR_RE = re.compile(r"[a-z]+$")
_POW_RE = re.compile(r"([a-z]+)\^(\d+)$")
_EXP_RE = re.compile(r"(\d+)\^([a-z]+)$")
_INT_RE = re.compile(r"\d+$")
_LOG_CALL_RE = re.compile(r"log\s*\(\s*([a-z]+)\s*\)")

#: One canonical product term: sorted polynomial factors ``(var, exp)``,
#: sorted log factors ``(var, exp)`` and sorted exponential factors
#: ``(base, var)``.
Term = Tuple[
    Tuple[Tuple[str, int], ...],
    Tuple[Tuple[str, int], ...],
    Tuple[Tuple[int, str], ...],
]


def _parse_term(text: str) -> Optional[Term]:
    """One product term -> canonical form, or ``None`` if malformed."""
    poly: Dict[str, int] = {}
    logs: Dict[str, int] = {}
    exps: Dict[Tuple[int, str], int] = {}
    tokens = text.split()
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "log":
            if i + 1 >= len(tokens) or not _VAR_RE.match(tokens[i + 1]):
                return None
            logs[tokens[i + 1]] = logs.get(tokens[i + 1], 0) + 1
            i += 2
            continue
        match = _POW_RE.match(token)
        if match:
            var, exp = match.group(1), int(match.group(2))
            poly[var] = poly.get(var, 0) + exp
            i += 1
            continue
        match = _EXP_RE.match(token)
        if match:
            base, var = int(match.group(1)), match.group(2)
            exps[(base, var)] = 1
            i += 1
            continue
        if _INT_RE.match(token):
            i += 1  # constant factor: asymptotically irrelevant
            continue
        if _VAR_RE.match(token):
            poly[token] = poly.get(token, 0) + 1
            i += 1
            continue
        return None
    return (
        tuple(sorted(poly.items())),
        tuple(sorted(logs.items())),
        tuple(sorted(exps)),
    )


class ComplexityBudget:
    """A parsed asymptotic budget in canonical sum-of-products form."""

    __slots__ = ("source", "terms")

    def __init__(self, source: str, terms: FrozenSet[Term]) -> None:
        self.source = source
        self.terms = terms

    @classmethod
    def parse(cls, text: str) -> "ComplexityBudget":
        """Parse a budget string; :class:`BudgetSyntaxError` on bad input."""
        budget = cls.try_parse(text)
        if budget is None:
            raise BudgetSyntaxError(
                f"cannot parse complexity budget {text!r}; expected e.g. "
                "'n + p log q', 'n log n', 'n^2', '2^n n'"
            )
        return budget

    @classmethod
    def try_parse(cls, text: str) -> Optional["ComplexityBudget"]:
        """Lenient variant used on docstring claims: ``None`` on failure."""
        cleaned = text.lower()
        for noise in ("·", "*", "\\cdot", "⋅"):
            cleaned = cleaned.replace(noise, " ")
        cleaned = _LOG_CALL_RE.sub(r"log \1", cleaned)
        if any(ch in cleaned for ch in "()[]{}|_"):
            return None  # nested/structured claims are out of grammar
        terms: List[Term] = []
        parts = cleaned.split("+")
        if not any(part.strip() for part in parts):
            return None
        for part in parts:
            if not part.strip():
                return None
            term = _parse_term(part)
            if term is None:
                return None
            terms.append(term)
        return cls(text, frozenset(terms))

    def canonical(self) -> FrozenSet[Term]:
        return self.terms

    def variables(self) -> FrozenSet[str]:
        names: set = set()
        for poly, logs, exps in self.terms:
            names.update(var for var, _ in poly)
            names.update(var for var, _ in logs)
            names.update(var for _, var in exps)
        return frozenset(names)

    def evaluate(self, **values: float) -> float:
        """The budget's value at concrete sizes, floored at 1.

        ``log`` factors evaluate to ``log2`` and contribute 0 when their
        argument is at most 1 (a term like ``p log q`` vanishes when
        every edge sits in one prime).  The floor keeps the empirical
        gate's log-log fit defined on degenerate instances.
        """
        total = 0.0
        for poly, logs, exps in self.terms:
            value = 1.0
            for var, exp in poly:
                value *= float(values[var]) ** exp
            for var, exp in logs:
                arg = float(values[var])
                value *= (math.log2(arg) if arg > 1.0 else 0.0) ** exp
            for base, var in exps:
                value *= float(base) ** float(values[var])
            total += value
        return max(total, 1.0)

    def matches(self, other: "ComplexityBudget") -> bool:
        return self.terms == other.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexityBudget):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"ComplexityBudget({self.source!r})"


class ComplexityContract:
    """The machine-readable contract attached to a solver."""

    __slots__ = ("budget", "counters", "qualname")

    def __init__(
        self,
        budget: ComplexityBudget,
        counters: Tuple[str, ...] = (),
        qualname: str = "",
    ) -> None:
        self.budget = budget
        self.counters = counters
        self.qualname = qualname

    def __repr__(self) -> str:
        return (
            f"ComplexityContract({self.qualname or '<anonymous>'}: "
            f"O({self.budget.source}))"
        )


#: qualname -> contract, filled as solver modules import.
_REGISTRY: Dict[str, ComplexityContract] = {}

F = TypeVar("F", bound=Callable[..., Any])


def complexity(
    budget: str, *, counters: Sequence[str] = ()
) -> Callable[[F], F]:
    """Declare a solver's asymptotic budget (see module docstring).

    ``counters`` names the :class:`OpCounter` keys whose sum measures
    the solver's dominant work — documentation for the empirical gate's
    probes, not enforced per call.  The budget string is parsed once at
    decoration time; the wrapped function is returned unchanged, so the
    contract costs nothing on any call path.
    """
    parsed = ComplexityBudget.parse(budget)

    def mark(fn: F) -> F:
        contract = ComplexityContract(
            parsed,
            counters=tuple(counters),
            qualname=f"{fn.__module__}.{fn.__qualname__}",
        )
        fn.__complexity_contract__ = contract  # type: ignore[attr-defined]
        _REGISTRY[contract.qualname] = contract
        return fn

    return mark


def get_contract(fn: Callable[..., Any]) -> Optional[ComplexityContract]:
    return getattr(fn, "__complexity_contract__", None)


def registered_contracts() -> Dict[str, ComplexityContract]:
    """A snapshot of every contract registered so far, by qualname."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Static enforcement: REPRO010 / REPRO011
# ----------------------------------------------------------------------

#: Path suffix (posix) -> function names that MUST carry a contract.
#: This is the exported-solver surface of the reproduction: the paper's
#: three algorithms, every baseline it is compared against, and the
#: engine's fast-path kernels.
REQUIRED_CONTRACTS: Dict[str, FrozenSet[str]] = {
    "repro/core/bandwidth.py": frozenset({"bandwidth_min"}),
    "repro/core/bottleneck.py": frozenset(
        {"bottleneck_min", "bottleneck_min_naive"}
    ),
    "repro/core/processor_min.py": frozenset({"processor_min"}),
    "repro/core/prime_subpaths.py": frozenset(
        {"find_prime_subpaths", "compute_prime_structure"}
    ),
    "repro/core/recurrence.py": frozenset({"bandwidth_min_naive"}),
    "repro/core/ring.py": frozenset({"ring_bandwidth_min"}),
    "repro/baselines/nicol.py": frozenset({"bandwidth_min_nlogn"}),
    "repro/baselines/exact_dp.py": frozenset({"bandwidth_min_dp"}),
    "repro/baselines/tree_dp.py": frozenset({"min_cuts_exact"}),
    "repro/baselines/sliding_window.py": frozenset({"bandwidth_min_deque"}),
    "repro/baselines/hansen_lih.py": frozenset({"ccp_hansen_lih"}),
    "repro/baselines/bokhari.py": frozenset({"ccp_dp", "ccp_probe"}),
    "repro/baselines/kundu_misra.py": frozenset({"processor_min_bottom_up"}),
    "repro/baselines/heterogeneous.py": frozenset(
        {"ccp_hetero_dp", "ccp_hetero_probe"}
    ),
    "repro/baselines/brute_force.py": frozenset({"chain_min_bandwidth"}),
    "repro/baselines/greedy.py": frozenset({"first_fit_cut"}),
    "repro/baselines/star_knapsack.py": frozenset({"knapsack_01"}),
    "repro/engine/kernels.py": frozenset({"temps_sweep", "bandwidth_sweep"}),
    "repro/engine/plan.py": frozenset(
        {"compile_chain", "solve_bounds", "solve_beta_sweep"}
    ),
}


def _decorator_budget(node: ast.expr) -> Optional[str]:
    """The budget string of a ``@complexity(...)`` decorator, if that is
    what ``node`` is (``@complexity("...")`` or ``@contracts.complexity``)."""
    from repro.verify.lint import rightmost_name

    if not isinstance(node, ast.Call) or rightmost_name(node.func) != "complexity":
        return None
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return ""


def _oh_claims(docstring: str) -> List[str]:
    """Every ``O(...)`` claim in a docstring, parens balanced."""
    claims: List[str] = []
    i = 0
    while True:
        i = docstring.find("O(", i)
        if i < 0:
            return claims
        if i > 0 and (docstring[i - 1].isalnum() or docstring[i - 1] == "_"):
            i += 2  # part of a longer identifier, e.g. FOO(
            continue
        depth = 0
        for j in range(i + 1, len(docstring)):
            if docstring[j] == "(":
                depth += 1
            elif docstring[j] == ")":
                depth -= 1
                if depth == 0:
                    claims.append(docstring[i + 2 : j])
                    break
        else:
            return claims  # unbalanced tail; stop scanning
        i = j + 1


def _docstring_disagrees(budget: ComplexityBudget, docstring: str) -> bool:
    """True when the docstring makes parseable ``O(...)`` claims and not
    one of them matches the declared budget.  Docstrings routinely cite
    *other* bounds for comparison ("versus Nicol's O(n log n)"), so any
    single match clears the function; claims outside the grammar (sums
    over sets, nested parens) are ignored rather than guessed at."""
    parsed = [
        claim_budget
        for claim in _oh_claims(docstring)
        if (claim_budget := ComplexityBudget.try_parse(claim)) is not None
    ]
    if not parsed:
        return False
    return all(not budget.matches(claim) for claim in parsed)


class _ContractChecker(ast.NodeVisitor):
    """Per-file REPRO010/REPRO011 evaluation."""

    def __init__(self, module: Module, required: FrozenSet[str]) -> None:
        self.module = module
        self.required = required
        self.findings: List[Finding] = []

    def _add(self, node: ast.AST, code: str, detail: str) -> None:
        self.module.flag(
            self.findings, node, code, f"{CONTRACT_RULES[code]}: {detail}"
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: Any) -> None:
        budget_src: Optional[str] = None
        for deco in node.decorator_list:
            budget_src = _decorator_budget(deco)
            if budget_src is not None:
                break
        if budget_src is None:
            if node.name in self.required:
                self._add(node, "REPRO010", node.name)
            return
        budget = ComplexityBudget.try_parse(budget_src)
        if budget is None:
            self._add(
                node, "REPRO011", f"{node.name} declares unparseable budget"
            )
            return
        docstring = ast.get_docstring(node) or ""
        if _docstring_disagrees(budget, docstring):
            self._add(
                node,
                "REPRO011",
                f"{node.name} declares O({budget_src}) but its docstring "
                "claims a different bound",
            )


def check(module: Module) -> List[Finding]:
    """The contract pass over one parsed module.

    REPRO010 applies only to files on the :data:`REQUIRED_CONTRACTS`
    surface; REPRO011 applies to every ``@complexity``-decorated
    function anywhere.
    """
    posix = module.path.as_posix()
    required: FrozenSet[str] = frozenset()
    for suffix, names in REQUIRED_CONTRACTS.items():
        if posix.endswith(suffix):
            required = names
            break
    checker = _ContractChecker(module, required)
    checker.visit(module.tree)
    return checker.findings
