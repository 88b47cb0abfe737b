"""Tests for :mod:`repro.verify.contracts`: grammar, table, AST pass."""

from pathlib import Path

import pytest

from repro.verify.contracts import CONTRACTS, BudgetSyntaxError, ComplexityBudget
from repro.verify.lint import Surface, module_name
from repro.verify.passes import analyze, check_source

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def codes(source: str, path: str, budget: str = "") -> list:
    """Run the pass with ``f`` contracted to ``budget`` (if given)."""
    contracts = {f"{module_name(Path(path))}.f": (budget, ())} if budget else {}
    return [
        f.code
        for f in check_source("contracts", source, Path(path), Surface(contracts))
    ]


class TestBudgetGrammar:
    @pytest.mark.parametrize(
        "text",
        ["n", "n log n", "n + p log q", "n^2", "m n^2", "2^n n", "n c",
         "l n + l p log q", "n s^2", "log n", "3 n"],
    )
    def test_parses(self, text):
        assert ComplexityBudget.parse(text) is not None

    @pytest.mark.parametrize("text", ["", "+", "n +", "n!", "O(n)", "n log"])
    def test_rejects(self, text):
        with pytest.raises(BudgetSyntaxError):
            ComplexityBudget.parse(text)

    def test_canonical_ignores_order_and_constants(self):
        a = ComplexityBudget.parse("p log q + n")
        b = ComplexityBudget.parse("n + 2 log q p")
        assert a.matches(b)

    def test_different_shapes_do_not_match(self):
        assert not ComplexityBudget.parse("n log n").matches(
            ComplexityBudget.parse("n + p log q")
        )

    def test_try_parse_handles_log_call_and_dots(self):
        budget = ComplexityBudget.try_parse("n · log(n)")
        assert budget is not None
        assert budget.matches(ComplexityBudget.parse("n log n"))

    def test_try_parse_rejects_structured_claims(self):
        assert ComplexityBudget.try_parse("sum_i |P_i|") is None
        assert ComplexityBudget.try_parse("L (n + p log q)") is None

    def test_variables(self):
        budget = ComplexityBudget.parse("n + p log q + 2^s c")
        assert budget.variables() == frozenset({"n", "p", "q", "s", "c"})


class TestEvaluate:
    def test_linear(self):
        assert ComplexityBudget.parse("n").evaluate(n=64) == 64.0

    def test_sum_of_products(self):
        budget = ComplexityBudget.parse("n + p log q")
        assert budget.evaluate(n=100, p=10, q=4) == 100 + 10 * 2.0

    def test_log_of_at_most_one_is_zero_term(self):
        budget = ComplexityBudget.parse("n + p log q")
        assert budget.evaluate(n=100, p=10, q=1) == 100.0

    def test_floor_at_one(self):
        assert ComplexityBudget.parse("p log q").evaluate(p=5, q=1) == 1.0

    def test_exponential(self):
        assert ComplexityBudget.parse("2^n").evaluate(n=10) == 1024.0

    def test_power(self):
        assert ComplexityBudget.parse("n^2").evaluate(n=9) == 81.0


class TestContractTable:
    def test_real_solvers_carry_contracts(self):
        assert ComplexityBudget.parse(
            CONTRACTS["repro.core.bandwidth.bandwidth_min"][0]
        ).matches(ComplexityBudget.parse("n + p log q"))
        assert ComplexityBudget.parse(
            CONTRACTS["repro.baselines.nicol.bandwidth_min_nlogn"][0]
        ).matches(ComplexityBudget.parse("n log n"))


class TestRepro011DocstringDisagreement:
    def test_contradicting_docstring_flagged(self):
        src = (
            "def f(x):\n"
            '    """Runs in O(n^2)."""\n'
        )
        assert codes(src, "src/repro/core/x.py", "n log n") == ["REPRO011"]

    def test_matching_claim_clears(self):
        src = (
            "def f(x):\n"
            '    """O(n + p log q), versus O(n log n) for the baseline."""\n'
        )
        assert codes(src, "src/repro/core/x.py", "n + p log q") == []

    def test_unparseable_claims_ignored(self):
        src = (
            "def f(x):\n"
            '    """Costs O(sum_i |P_i|) in this naive form."""\n'
        )
        assert codes(src, "src/repro/core/x.py", "n + r q") == []

    def test_no_docstring_clean(self):
        src = "def f(x):\n    pass\n"
        assert codes(src, "src/repro/core/x.py", "n") == []

    def test_unparseable_declared_budget_flagged(self):
        # A table entry whose budget is outside the grammar.
        src = "def f(x):\n    pass\n"
        assert codes(src, "src/repro/core/x.py", "n!") == ["REPRO011"]


class TestDriver:
    def test_src_tree_is_clean(self):
        findings, checked = analyze([SRC_ROOT], ["contracts"])["contracts"]
        assert checked > 50
        assert findings == [], [f.render() for f in findings]
