"""Tests for :mod:`repro.verify.contracts`: grammar, decorator, AST pass."""

from pathlib import Path

import pytest

from repro.verify.contracts import (
    REQUIRED_CONTRACTS,
    BudgetSyntaxError,
    ComplexityBudget,
    complexity,
    get_contract,
    registered_contracts,
)
from repro.verify.passes import analyze, check_source

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def codes(source: str, path: str) -> list:
    return [f.code for f in check_source("contracts", source, Path(path))]


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


class TestDecorator:
    def test_attaches_contract_and_registers(self):
        @complexity("n log n", counters=("steps",))
        def solver_under_test(x):
            return x

        contract = get_contract(solver_under_test)
        assert contract is not None
        assert contract.budget.matches(ComplexityBudget.parse("n log n"))
        assert contract.counters == ("steps",)
        assert solver_under_test(3) == 3  # unchanged function object
        assert contract.qualname in registered_contracts()

    def test_bad_budget_raises_at_decoration_time(self):
        with pytest.raises(BudgetSyntaxError):
            complexity("n!")

    def test_real_solvers_carry_contracts(self):
        from repro.baselines.nicol import bandwidth_min_nlogn
        from repro.core.bandwidth import bandwidth_min

        assert get_contract(bandwidth_min).budget.matches(
            ComplexityBudget.parse("n + p log q")
        )
        assert get_contract(bandwidth_min_nlogn).budget.matches(
            ComplexityBudget.parse("n log n")
        )


REQUIRED_FILE = "src/repro/core/bandwidth.py"


class TestRepro010MissingContract:
    def test_required_function_without_decorator(self):
        src = "def bandwidth_min(chain, bound):\n    pass\n"
        assert codes(src, REQUIRED_FILE) == ["REPRO010"]

    def test_required_function_with_decorator_clean(self):
        src = (
            "@complexity('n + p log q')\n"
            "def bandwidth_min(chain, bound):\n    pass\n"
        )
        assert codes(src, REQUIRED_FILE) == []

    def test_unrequired_function_not_flagged(self):
        assert codes("def helper():\n    pass\n", REQUIRED_FILE) == []

    def test_unrequired_file_not_flagged(self):
        src = "def bandwidth_min(chain, bound):\n    pass\n"
        assert codes(src, "src/repro/analysis/report.py") == []

    def test_pragma_suppresses(self):
        src = (
            "def bandwidth_min(c, b):  # repro-lint: disable=REPRO010\n"
            "    pass\n"
        )
        assert codes(src, REQUIRED_FILE) == []


class TestRepro011DocstringDisagreement:
    def test_contradicting_docstring_flagged(self):
        src = (
            "@complexity('n log n')\n"
            "def f(x):\n"
            '    """Runs in O(n^2)."""\n'
        )
        assert codes(src, "src/repro/core/x.py") == ["REPRO011"]

    def test_matching_claim_clears(self):
        src = (
            "@complexity('n + p log q')\n"
            "def f(x):\n"
            '    """O(n + p log q), versus O(n log n) for the baseline."""\n'
        )
        assert codes(src, "src/repro/core/x.py") == []

    def test_unparseable_claims_ignored(self):
        src = (
            "@complexity('n + r q')\n"
            "def f(x):\n"
            '    """Costs O(sum_i |P_i|) in this naive form."""\n'
        )
        assert codes(src, "src/repro/core/x.py") == []

    def test_no_docstring_clean(self):
        src = "@complexity('n')\ndef f(x):\n    pass\n"
        assert codes(src, "src/repro/core/x.py") == []

    def test_unparseable_declared_budget_flagged(self):
        # Via the AST (a string the runtime decorator would reject).
        src = "@complexity('n!')\ndef f(x):\n    pass\n"
        assert codes(src, "src/repro/core/x.py") == ["REPRO011"]


class TestDriver:
    def test_src_tree_is_clean(self):
        findings, checked = analyze([SRC_ROOT], ["contracts"])["contracts"]
        assert checked > 50
        assert findings == [], [f.render() for f in findings]

    def test_every_required_file_exists(self):
        for suffix in REQUIRED_CONTRACTS:
            assert (SRC_ROOT.parent / "src" / suffix.replace("repro/", "repro/", 1)).parent.exists()
            matches = list(SRC_ROOT.rglob(Path(suffix).name))
            assert matches, f"no file matches {suffix}"
