"""The analyzer fixture corpus: every file gives exactly its seeded codes.

Each file under ``fixtures/<section>/`` seeds violations (and safe
twins) for one analyzer.  The expectations are hard-coded here, not
derived from a run of the analyzer, so a change that makes an analyzer
report one finding more or fewer on any fixture fails this test.
:data:`DECLARED` holds what each fixture declares (contracts,
shared-state classes, concurrent entries): each file is checked as the
module named by its stem.
"""

from collections import Counter
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.verify.lint import Surface
from repro.verify.passes import check_source

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Fixture directory -> the report sections run over its files.
SECTIONS: Dict[str, Tuple[str, ...]] = {
    "concurrency": ("concurrency",),
    "hotpath": ("hotpath",),
    "faults": ("faults",),
}

#: ``<directory>/<file>`` -> the exact code counts its sections report.
EXPECTED: Dict[str, Dict[str, int]] = {
    "concurrency/unlocked_class.py": {"REPRO013": 2},
    "concurrency/globals.py": {"REPRO013": 3},
    "concurrency/clean.py": {},
    "hotpath/invariant_allocs.py": {"REPRO016": 3, "REPRO019": 1},
    "hotpath/attr_dispatch.py": {"REPRO017": 2},
    "hotpath/quadratic.py": {"REPRO018": 3},
    "hotpath/numpy_temps.py": {"REPRO019": 1},
    "hotpath/pragma_scoped.py": {"REPRO016": 1},
    "hotpath/clean.py": {},
    "faults/tainted.py": {"REPRO023": 5},
    "faults/pragma_scoped.py": {"REPRO023": 1},
    "faults/clean.py": {},
}


#: ``<directory>/<file>`` -> the surface it declares (default: none).
DECLARED: Dict[str, Surface] = {
    "concurrency/unlocked_class.py": Surface(
        shared_state={"unlocked_class.Cache": "_lock"},
        concurrent_entries=frozenset(
            {"unlocked_class.Cache.get", "unlocked_class.Cache.reset"}
        ),
    ),
    "concurrency/globals.py": Surface(
        concurrent_entries=frozenset({"globals.record"})
    ),
    "concurrency/clean.py": Surface(
        shared_state={"clean.Guarded": "_lock"},
        concurrent_entries=frozenset({"clean.Guarded.add"}),
    ),
    "hotpath/invariant_allocs.py": Surface(
        contracts={"invariant_allocs.rebuild": ("n", ())}
    ),
    "hotpath/attr_dispatch.py": Surface(contracts={"attr_dispatch.drain": ("n", ())}),
    "hotpath/quadratic.py": Surface(contracts={"quadratic.churn": ("n", ())}),
    "hotpath/numpy_temps.py": Surface(contracts={"numpy_temps.sweep": ("n q", ())}),
    "hotpath/pragma_scoped.py": Surface(contracts={"pragma_scoped.padded": ("n", ())}),
    "hotpath/clean.py": Surface(contracts={"clean.tally": ("n", ())}),
    "faults/tainted.py": Surface(
        contracts={"tainted.solve": ("n", ()), "tainted.seeded": ("n", ())}
    ),
    "faults/pragma_scoped.py": Surface(
        contracts={"pragma_scoped.solve": ("n", ()), "pragma_scoped.jitter": ("n", ())}
    ),
}


def test_corpus_matches_expectations():
    on_disk = {
        path.relative_to(FIXTURES).as_posix()
        for path in FIXTURES.rglob("*.py")
    }
    assert on_disk == set(EXPECTED)
    assert set(DECLARED) <= on_disk


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_reports_exactly_its_seeded_codes(name):
    path = FIXTURES / name
    source = path.read_text(encoding="utf-8")
    surface = DECLARED.get(name, Surface())
    findings = [
        finding
        for section in SECTIONS[path.parent.name]
        for finding in check_source(section, source, Path(path.name), surface)
    ]
    got = Counter(finding.code for finding in findings)
    assert got == Counter(EXPECTED[name]), [f.render() for f in findings]
