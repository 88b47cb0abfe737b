"""Single registry of every ``REPROxxx`` verification rule.

The analyzer modules (``lint.py``, ``empirical.py``, ``contracts.py``,
``concurrency.py``, ``hotpath.py``, ``faultflow.py``) *derive* their
rule tables from this one place via :func:`messages_for`, so codes
cannot collide or drift from ``docs/verification.md``, and
``tests/verify/test_codes.py`` asserts every registered code is
documented and exercised.  The passes themselves run from one table in
:mod:`repro.verify.passes`.

This is a stdlib-only leaf module (like ``repro.verify.markers``): the
analyzers import it at module load, so it must not import anything from
the rest of the package.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class RuleSpec(NamedTuple):
    """Everything the docs/rule-index table needs to know about a rule.

    ``scope`` is how a ``# repro-lint: disable=`` pragma anchors:
    ``"line"`` (the pragma must sit on the finding's own line) or
    ``"loop"`` (a pragma on any enclosing loop header also suppresses
    findings inside that loop's body — the REPRO016–REPRO018 rules).
    ``certifier`` names the dynamic counterpart that proves the static
    claim at runtime — a module, or a test file relative to the
    repository root — or ``""`` when the rule is purely static.
    """

    message: str
    module: str
    scope: str
    certifier: str


#: Every verification rule the repository ships, by code.  Analyzer
#: modules build their own tables with :func:`messages_for`; adding a
#: rule here without documenting and testing it fails
#: ``tests/verify/test_codes.py``.
REGISTRY: Dict[str, RuleSpec] = {
    "REPRO002": RuleSpec(
        "class in a slotted package without __slots__ (hot-path allocation)",
        "repro.verify.lint", "line", "",
    ),
    "REPRO009": RuleSpec(
        "measured op-count growth exceeds the declared complexity budget",
        "repro.verify.empirical", "line", "repro.verify.empirical",
    ),
    "REPRO011": RuleSpec(
        "docstring O(...) claims all disagree with the declared budget",
        "repro.verify.contracts", "line", "",
    ),
    "REPRO013": RuleSpec(
        "unguarded write to shared state on a concurrent path "
        "(wrap in 'with self.<lock>:')",
        "repro.verify.concurrency", "line",
        "tests/engine/test_threads_and_faults.py",
    ),
    "REPRO016": RuleSpec(
        "loop-invariant allocation rebuilt every iteration (hoist it "
        "out of the loop)",
        "repro.verify.hotpath", "loop", "repro.verify.allocs",
    ),
    "REPRO017": RuleSpec(
        "attribute path loaded repeatedly per iteration (bind it to a "
        "local before the loop)",
        "repro.verify.hotpath", "loop", "repro.verify.allocs",
    ),
    "REPRO018": RuleSpec(
        "accidentally-quadratic idiom inside a loop (insert(0,...), "
        "list membership, += concatenation)",
        "repro.verify.hotpath", "loop", "repro.verify.allocs",
    ),
    "REPRO019": RuleSpec(
        "chained NumPy expression builds avoidable temporaries inside a "
        "loop (reuse a scratch buffer via out=)",
        "repro.verify.hotpath", "line", "repro.verify.allocs",
    ),
    "REPRO023": RuleSpec(
        "nondeterministic source on a contracted path (unseeded random, "
        "wall clock, os.environ, unordered iteration)",
        "repro.verify.faultflow", "line",
        "tests/engine/test_threads_and_faults.py",
    ),
}


#: Codes that were registered once and have been retired (see
#: ``docs/verification.md``).  They are never reissued, so a stale
#: ``# repro-lint: disable=`` pragma naming one cannot silence a
#: different rule.
RETIRED: Tuple[str, ...] = (
    "REPRO001", "REPRO003", "REPRO004", "REPRO005", "REPRO006",
    "REPRO007", "REPRO008", "REPRO010", "REPRO012", "REPRO014",
    "REPRO015", "REPRO020", "REPRO021", "REPRO022", "REPRO024",
)


def messages_for(module: str) -> Dict[str, str]:
    """The ``{code: message}`` rule table owned by ``module``.

    This is what the per-analyzer ``RULES`` constants are built from,
    so a code can never live in two analyzers or fall out of the
    registry silently.
    """
    return {
        code: spec.message
        for code, spec in REGISTRY.items()
        if spec.module == module
    }


def all_codes() -> Tuple[str, ...]:
    """Every registered code, sorted — the docs/consistency-test view."""
    return tuple(sorted(REGISTRY))
