"""Machine-readable complexity contracts for the paper's solvers.

The paper's headline result is an asymptotic claim — Algorithm 4.1
partitions a chain in ``O(n + p log q)`` against Nicol & O'Hallaron's
``O(n log n)`` — and this module turns such claims into data the build
can check.  Every public solver has an entry in :data:`CONTRACTS`,
keyed by its qualified name::

    "repro.core.bandwidth.bandwidth_min": (
        "n + p log q", ("prime_tasks_scanned", ..., "search_steps"),
    ),

The first field is the budget, parsed by :class:`ComplexityBudget`
(canonical sum-of-products form); the second names the
:class:`~repro.instrumentation.counters.OpCounter` keys whose sum
measures the solver's dominant work.  The solver itself carries no
marker and imports nothing from :mod:`repro.verify`.

Three consumers read the table:

- the AST pass in this module (:func:`check`), which fails when a
  listed solver's docstring states ``O(...)`` claims that all disagree
  with its budget (**REPRO011**);
- the empirical gate (:mod:`repro.verify.empirical`), which fits
  measured :class:`~repro.instrumentation.counters.OpCounter` telemetry
  against ``budget.evaluate(...)`` at geometric scales (**REPRO009**);
- the hot-path and determinism passes (:mod:`repro.verify.hotpath`,
  :mod:`repro.verify.faultflow`), which root their call graphs at the
  listed functions.

Budget grammar (whitespace-separated product factors, ``+``-separated
terms; see ``docs/verification.md``)::

    budget  := term ("+" term)*
    term    := factor factor*
    factor  := VAR            # n, p, q, r, m, s, c, l  (any [a-z]+ name)
             | VAR "^" INT    # n^2
             | "log" VAR      # log n   (also accepts log(n))
             | INT "^" VAR    # 2^n     (exponential brute-force budgets)
             | INT            # constant factors, ignored asymptotically

:mod:`repro.verify.lint` reads :data:`CONTRACTS` into each parsed
:class:`~repro.verify.lint.Module`, so this module imports ``lint``
only for type checking.
"""

from __future__ import annotations

import ast
import math
import re
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

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


#: One contract: the budget string (see the grammar above) and the
#: :class:`~repro.instrumentation.counters.OpCounter` keys whose sum
#: measures the solver's dominant work.
Contract = Tuple[str, Tuple[str, ...]]

#: Qualified name -> contract: the exported-solver surface of the
#: reproduction (the paper's algorithms, every baseline it is compared
#: against, and the engine's fast-path kernels).
CONTRACTS: Dict[str, Contract] = {
    "repro.core.bandwidth.bandwidth_min": (
        "n + p log q",
        (
            "prime_tasks_scanned",
            "prime_window_advances",
            "prime_candidates",
            "prime_edge_scans",
            "search_steps",
        ),
    ),
    "repro.core.bottleneck.bottleneck_min": ("n log n", ()),
    "repro.core.bottleneck.bottleneck_min_naive": ("n^2", ()),
    "repro.core.prime_subpaths.compute_prime_structure": (
        "n",
        (
            "prime_tasks_scanned",
            "prime_window_advances",
            "prime_candidates",
            "prime_edge_scans",
        ),
    ),
    "repro.core.prime_subpaths.find_prime_subpaths": (
        "n",
        ("prime_tasks_scanned", "prime_window_advances", "prime_candidates"),
    ),
    "repro.core.processor_min.processor_min": ("n log n", ()),
    "repro.core.recurrence.bandwidth_min_naive": ("n + r q", ()),
    "repro.core.ring.ring_bandwidth_min": ("l n + l p log q", ()),
    "repro.baselines.bokhari.bokhari_pipelined_dp": ("m n^2", ()),
    "repro.baselines.bokhari.ccp_dp": ("m n^2", ()),
    "repro.baselines.bokhari.ccp_probe": ("n log u", ()),
    "repro.baselines.brute_force.chain_min_bandwidth": ("2^n n", ()),
    "repro.baselines.exact_dp.bandwidth_min_dp": ("n^2", ()),
    "repro.baselines.greedy.first_fit_cut": ("n", ()),
    "repro.baselines.hansen_lih.ccp_hansen_lih": ("m n log n", ()),
    "repro.baselines.heterogeneous.ccp_hetero_dp": ("m n^2", ()),
    "repro.baselines.heterogeneous.ccp_hetero_probe": ("n log u", ()),
    "repro.baselines.kundu_misra.processor_min_bottom_up": ("n log n", ()),
    "repro.baselines.nicol.bandwidth_min_nlogn": (
        "n log n", ("heap_pushes", "heap_pops"),
    ),
    "repro.baselines.sliding_window.bandwidth_min_deque": ("n", ()),
    "repro.baselines.star_knapsack.knapsack_01": ("n c", ()),
    "repro.baselines.tree_dp.min_cuts_exact": ("n s^2", ()),
    "repro.engine.kernels.bandwidth_sweep": ("n + p log q", ()),
    "repro.engine.kernels.structure_sweep": ("n + p log q", ()),
    "repro.engine.kernels.sweep_min_cut": ("n + p log q", ()),
    "repro.engine.kernels.temps_sweep": ("n + p log q", ()),
    "repro.engine.plan.CompiledChainPlan.solve_bounds": (
        "k log k + g n log q", (),
    ),
    "repro.engine.plan.compile_chain": ("n", ()),
}


# ----------------------------------------------------------------------
# Static enforcement: REPRO011
# ----------------------------------------------------------------------


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


def check(module: Module) -> List[Finding]:
    """The contract pass over one parsed module: REPRO011 for each
    function the module's :data:`CONTRACTS` entries name."""
    findings: List[Finding] = []
    functions = module.functions
    for qualname, (budget_src, _counters) in module.contracts.items():
        node = functions.get(qualname)
        if node is None:
            continue  # the table test resolves every entry by import
        budget = ComplexityBudget.try_parse(budget_src)
        if budget is None:
            detail = f"{qualname} declares unparseable budget"
        elif _docstring_disagrees(budget, ast.get_docstring(node) or ""):
            detail = (
                f"{qualname} declares O({budget_src}) but its docstring "
                "claims a different bound"
            )
        else:
            continue
        module.flag(
            findings, node, "REPRO011", f"{CONTRACT_RULES['REPRO011']}: {detail}"
        )
    return findings
