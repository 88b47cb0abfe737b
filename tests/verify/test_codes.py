"""Consistency tests for :mod:`repro.verify.codes` — the rule registry.

The satellite contract: every registered REPROxxx code must be (a)
documented in ``docs/verification.md`` and (b) exercised by at least
one test under ``tests/``.  With the registry as the single source of
truth, adding a rule without docs or coverage fails here instead of
silently shipping.
"""

import importlib
import re
from pathlib import Path

from repro.verify.codes import REGISTRY, RETIRED, RuleSpec, all_codes, messages_for
from repro.verify.lint import iter_python_files, pragma_disables

REPO = Path(__file__).resolve().parents[2]
DOCS = REPO / "docs" / "verification.md"
TESTS = REPO / "tests"

#: The analyzer modules allowed to own rules.
ANALYZERS = {
    "repro.verify.lint",
    "repro.verify.empirical",
    "repro.verify.contracts",
    "repro.verify.concurrency",
    "repro.verify.hotpath",
    "repro.verify.faultflow",
}


def test_codes_are_well_formed():
    for code, spec in REGISTRY.items():
        assert re.fullmatch(r"REPRO\d{3}", code), code
        assert isinstance(spec, RuleSpec)
        assert spec.message.strip(), code
        assert spec.module in ANALYZERS, (code, spec.module)
        assert spec.scope in ("line", "loop"), (code, spec.scope)
        # A certifier is a test file or an importable module; "" means
        # the rule is purely static.
        if spec.certifier.endswith(".py"):
            assert (REPO / spec.certifier).is_file(), (code, spec.certifier)
        elif spec.certifier:
            importlib.import_module(spec.certifier)


def test_codes_are_contiguous_from_001():
    # Retired codes keep their numbers: live and retired together count
    # up from 001 with no gaps, and no code is both.
    assert not set(REGISTRY) & set(RETIRED)
    numbers = sorted(int(code[5:]) for code in (*REGISTRY, *RETIRED))
    assert numbers == list(range(1, len(REGISTRY) + len(RETIRED) + 1))


def test_all_codes_is_sorted_and_complete():
    assert list(all_codes()) == sorted(REGISTRY)


def test_messages_for_partitions_the_registry():
    seen = {}
    for module in ANALYZERS:
        for code in messages_for(module):
            assert code not in seen, f"{code} owned by both {seen[code]} and {module}"
            seen[code] = module
    assert set(seen) == set(REGISTRY)


def test_analyzer_tables_derive_from_registry():
    from repro.verify.concurrency import CONCURRENCY_RULES
    from repro.verify.contracts import CONTRACT_RULES
    from repro.verify.empirical import EMPIRICAL_RULES
    from repro.verify.faultflow import FAULTFLOW_RULES
    from repro.verify.hotpath import HOTPATH_RULES
    from repro.verify.lint import RULES

    assert RULES == messages_for("repro.verify.lint")
    assert EMPIRICAL_RULES == messages_for("repro.verify.empirical")
    assert CONTRACT_RULES == messages_for("repro.verify.contracts")
    assert CONCURRENCY_RULES == messages_for("repro.verify.concurrency")
    assert HOTPATH_RULES == messages_for("repro.verify.hotpath")
    assert FAULTFLOW_RULES == messages_for("repro.verify.faultflow")


def test_loop_scope_matches_the_loop_scoped_rule_set():
    from repro.verify.hotpath import LOOP_SCOPED_RULES

    loop_scoped = {c for c, spec in REGISTRY.items() if spec.scope == "loop"}
    assert loop_scoped == set(LOOP_SCOPED_RULES)


def test_every_code_is_documented():
    text = DOCS.read_text(encoding="utf-8")
    missing = [code for code in REGISTRY if code not in text]
    assert not missing, f"codes absent from docs/verification.md: {missing}"


def test_every_code_is_exercised_by_a_test():
    corpus = ""
    for path in sorted(TESTS.rglob("test_*.py")):
        if path.name == "test_codes.py":
            continue  # this file mentions every code by construction
        corpus += path.read_text(encoding="utf-8")
    missing = [code for code in REGISTRY if code not in corpus]
    assert not missing, f"codes never exercised by any test: {missing}"


def test_pragmas_name_only_live_codes():
    # A pragma naming a retired or unknown code silences nothing: it is
    # stale, and would hide a reissued rule if numbers were ever reused.
    stale = [
        f"{path.relative_to(REPO)}:{line}: {code}"
        for path in iter_python_files([REPO / "src", TESTS, REPO / "benchmarks"])
        for line, codes in pragma_disables(path.read_text(encoding="utf-8")).items()
        for code in sorted(codes - set(REGISTRY))
    ]
    assert not stale, f"pragmas naming no live rule: {stale}"
