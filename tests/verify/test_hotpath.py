"""Tests for :mod:`repro.verify.hotpath`: hot-path allocation analysis.

Acceptance criteria from the issue: each rule (REPRO016 loop-invariant
allocations, REPRO017 repeated attribute loads, REPRO018
accidentally-quadratic idioms, REPRO019 NumPy temporary chains) gets a
rule x construct golden matrix, pragmas on loop headers must suppress
the loop-scoped rules anywhere inside the loop body (nested loops
included), call-graph propagation must reach helpers and same-class
methods, and the analyzer must run clean over the repo's own ``src/``
tree after the remediation.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.verify.hotpath import HOTPATH_RULES, LOOP_SCOPED_RULES
from repro.verify.lint import Surface, module_name
from repro.verify.passes import analyze, check_source

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def dedent(source: str) -> str:
    return textwrap.dedent(source)


def codes(source: str, path: str = "example.py", roots=("hot",)) -> list:
    return [f.code for f in findings(source, path, roots)]


def findings(source: str, path: str = "example.py", roots=("hot",)) -> list:
    """Run the pass with a contract declared for each of ``roots``
    (``name`` / ``Class.name``) in the module."""
    module = module_name(Path(path))
    surface = Surface(contracts={f"{module}.{root}": ("n", ()) for root in roots})
    return check_source("hotpath", dedent(source), Path(path), surface)


# ----------------------------------------------------------------------
# Rooting and call-graph propagation
# ----------------------------------------------------------------------


class TestRooting:
    def test_undecorated_function_is_not_analyzed(self):
        source = """
            def cold(rows):
                for row in rows:
                    scale = [1, 2, 3]
                    row.consume(scale)
        """
        assert codes(source) == []

    def test_decorated_function_is_analyzed(self):
        source = """
            def hot(rows):
                for row in rows:
                    scale = [1, 2, 3]
                    row.consume(scale)
        """
        assert codes(source) == ["REPRO016"]

    def test_helper_called_from_root_is_analyzed(self):
        source = """
            def helper(rows):
                for row in rows:
                    table = {"a": 1}
                    row.consume(table)

            def hot(rows):
                return helper(rows)
        """
        assert codes(source) == ["REPRO016"]

    def test_self_method_called_from_decorated_method(self):
        source = """
            class Plan:
                def solve(self, rows):
                    return self._impl(rows)

                def _impl(self, rows):
                    for row in rows:
                        table = {"a": 1}
                        row.consume(table)
        """
        assert codes(source, roots=("Plan.solve",)) == ["REPRO016"]

    def test_unreached_sibling_method_is_not_analyzed(self):
        source = """
            class Plan:
                def solve(self, rows):
                    return list(rows)

                def unreached(self, rows):
                    for row in rows:
                        table = {"a": 1}
                        row.consume(table)
        """
        assert codes(source, roots=("Plan.solve",)) == []

    def test_dotted_complexity_decorator_roots(self):
        # A file inside the repro package is keyed by its dotted module
        # name (repro.core.solver.hot), not by its file name.
        source = """
            def hot(rows):
                for row in rows:
                    scale = [1, 2]
                    row.consume(scale)
        """
        assert codes(source, "src/repro/core/solver.py") == ["REPRO016"]


# ----------------------------------------------------------------------
# REPRO016: loop-invariant allocations
# ----------------------------------------------------------------------


class TestLoopInvariantAllocations:
    @pytest.mark.parametrize(
        "alloc",
        [
            "[lo, hi]",
            "{'lo': lo}",
            "{lo, hi}",
            "(lo, hi)",
            "[x * lo for x in weights]",
            "{x for x in weights}",
            "{x: lo for x in weights}",
            "np.zeros(lo)",
            "np.empty(hi)",
            "np.array(weights)",
            "np.full(lo, hi)",
        ],
    )
    def test_invariant_allocation_is_flagged(self, alloc):
        source = f"""
            import numpy as np

            def hot(rows, weights, lo, hi):
                for row in rows:
                    scratch = {alloc}
                    row.consume(scratch)
        """
        assert codes(source) == ["REPRO016"]

    @pytest.mark.parametrize(
        "alloc",
        [
            "[row, row]",
            "{'row': row}",
            "np.zeros(row)",
            "[x for x in row]",
        ],
    )
    def test_loop_dependent_allocation_is_not_flagged(self, alloc):
        source = f"""
            import numpy as np

            def hot(rows):
                for row in rows:
                    scratch = {alloc}
                    use(scratch)
        """
        assert codes(source) == []

    def test_empty_literal_accumulator_is_exempt(self):
        source = """
            def hot(rows):
                out = []
                for row in rows:
                    bucket = []
                    table = {}
                    out.append((bucket, table))
                return out
        """
        assert codes(source) == []

    def test_all_constant_tuple_is_exempt(self):
        source = """
            def hot(rows):
                for row in rows:
                    row.consume((1, 2, 3))
        """
        assert codes(source) == []

    def test_name_assigned_in_body_counts_as_variant(self):
        source = """
            def hot(rows):
                for row in rows:
                    size = row.size
                    scratch = [size, size]
                    use(scratch)
        """
        assert codes(source) == []

    def test_invariant_in_inner_loop_checks_all_enclosing_loops(self):
        # ``col`` varies with the *outer* loop: hoisting past it would
        # change behaviour, so no enclosing loop admits the hoist.
        source = """
            def hot(rows, cols):
                for col in cols:
                    for row in rows:
                        pair = [col, col]
                        use(pair)
        """
        assert codes(source) == []

    def test_finding_names_function_and_loop_line(self):
        source = """
            def hot(rows, lo):
                for row in rows:
                    row.consume([lo, lo])
        """
        (finding,) = findings(source)
        assert finding.code == "REPRO016"
        assert "hot" in finding.message
        assert "list literal" in finding.message


# ----------------------------------------------------------------------
# REPRO017: repeated attribute loads
# ----------------------------------------------------------------------


class TestRepeatedAttributeLoads:
    def test_two_loads_per_iteration_flagged_once(self):
        source = """
            def hot(edges):
                total = 0
                for edge in edges:
                    if edge.first_prime > 0:
                        total += edge.first_prime
                return total
        """
        found = findings(source)
        assert [f.code for f in found] == ["REPRO017"]
        assert "edge.first_prime" in found[0].message
        assert "2x" in found[0].message

    def test_single_load_is_fine(self):
        source = """
            def hot(edges):
                total = 0
                for edge in edges:
                    total += edge.weight
                return total
        """
        assert codes(source) == []

    def test_maximal_chain_only(self):
        source = """
            def hot(self, edges):
                for edge in edges:
                    use(self.cache.table)
                    use(self.cache.table)
        """
        found = findings(source)
        assert [f.code for f in found] == ["REPRO017"]
        assert "self.cache.table" in found[0].message

    def test_stored_path_is_exempt(self):
        source = """
            def hot(self, edges):
                for edge in edges:
                    self.total = self.total + edge.weight
        """
        assert codes(source) == []

    def test_stored_prefix_is_exempt(self):
        source = """
            def hot(self, edges):
                for edge in edges:
                    use(self.box.value)
                    use(self.box.value)
                    self.box = edge
        """
        assert codes(source) == []

    def test_rebound_root_is_exempt(self):
        source = """
            def hot(nodes):
                for n in nodes:
                    cursor = n
                    use(cursor.next)
                    cursor = cursor.next
                    use(cursor.next)
        """
        assert codes(source) == []

    def test_while_test_counts_as_per_iteration(self):
        source = """
            def hot(q, sentinel):
                while q.head is not None and q.head is not sentinel:
                    q.pop()
        """
        found = findings(source)
        assert [f.code for f in found] == ["REPRO017"]
        assert "q.head" in found[0].message

    def test_subscripted_chain_is_not_counted(self):
        source = """
            def hot(rows):
                for row in rows:
                    use(rows[0].weight)
                    use(rows[0].weight)
        """
        assert codes(source) == []

    def test_loads_in_different_loops_do_not_accumulate(self):
        source = """
            def hot(edges):
                for edge in edges:
                    use(edge.weight)
                for edge in edges:
                    use(edge.weight)
        """
        assert codes(source) == []


# ----------------------------------------------------------------------
# REPRO018: accidentally-quadratic idioms
# ----------------------------------------------------------------------


class TestQuadraticIdioms:
    def test_insert_front_is_flagged(self):
        source = """
            def hot(rows):
                out = []
                for row in rows:
                    out.insert(0, row)
                return out
        """
        assert codes(source) == ["REPRO018"]

    def test_insert_elsewhere_is_fine(self):
        source = """
            def hot(rows):
                out = []
                for row in rows:
                    out.insert(1, row)
                return out
        """
        assert codes(source) == []

    def test_list_membership_is_flagged(self):
        source = """
            def hot(rows):
                for row in rows:
                    if row in [1, 2, 3]:
                        use(row)
        """
        assert codes(source) == ["REPRO018"]

    def test_set_membership_is_fine(self):
        source = """
            def hot(rows):
                for row in rows:
                    if row in {1, 2, 3}:
                        use(row)
        """
        assert codes(source) == []

    @pytest.mark.parametrize(
        "stmt",
        [
            "acc += [row]",
            "acc += [r for r in row]",
            'acc += "x"',
            'acc += f"{row}"',
        ],
    )
    def test_concat_growth_is_flagged(self, stmt):
        source = f"""
            def hot(rows, acc):
                for row in rows:
                    {stmt}
                return acc
        """
        assert codes(source) == ["REPRO018"]

    def test_numeric_augassign_is_fine(self):
        source = """
            def hot(rows):
                total = 0
                for row in rows:
                    total += 1
                return total
        """
        assert codes(source) == []

    def test_outside_loop_is_fine(self):
        source = """
            def hot(rows):
                out = list(rows)
                out.insert(0, None)
                return out
        """
        assert codes(source) == []


# ----------------------------------------------------------------------
# REPRO019: NumPy temporary chains
# ----------------------------------------------------------------------


class TestNumpyTemporaryChains:
    def test_chained_binops_on_arrays_flagged(self):
        source = """
            import numpy as np

            def hot(bounds):
                acc = np.zeros(8)
                for k in bounds:
                    out = acc * k + acc
                    use(out)
        """
        assert codes(source) == ["REPRO019"]

    def test_single_binop_is_fine(self):
        source = """
            import numpy as np

            def hot(bounds):
                acc = np.zeros(8)
                for k in bounds:
                    use(acc * k)
        """
        assert codes(source) == []

    def test_scalar_chain_is_fine(self):
        source = """
            def hot(bounds):
                for k in bounds:
                    use(k * 2 + 1 - 3)
        """
        assert codes(source) == []

    def test_elementwise_call_counts_as_temporary(self):
        source = """
            import numpy as np

            def hot(bounds):
                acc = np.zeros(8)
                for k in bounds:
                    out = np.minimum(acc, k) + acc
                    use(out)
        """
        assert codes(source) == ["REPRO019"]

    def test_parameter_fed_to_numpy_is_array_like(self):
        source = """
            import numpy as np

            def hot(prefix, bounds):
                idx = np.searchsorted(prefix, 0.0)
                for k in bounds:
                    gap = prefix * k + prefix
                    use(gap)
        """
        assert codes(source) == ["REPRO019"]

    def test_derived_array_names_propagate(self):
        source = """
            import numpy as np

            def hot(bounds):
                base = np.zeros(8)
                derived = base
                for k in bounds:
                    out = derived * k + derived
                    use(out)
        """
        assert codes(source) == ["REPRO019"]

    def test_outside_loop_is_fine(self):
        source = """
            import numpy as np

            def hot(k):
                acc = np.zeros(8)
                return acc * k + acc
        """
        assert codes(source) == []


# ----------------------------------------------------------------------
# Pragmas: loop-scoped suppression (REPRO016-REPRO018)
# ----------------------------------------------------------------------


class TestLoopScopedPragmas:
    def test_pragma_on_finding_line_suppresses(self):
        source = """
            def hot(rows, lo):
                for row in rows:
                    row.consume([lo, lo])  # repro-lint: disable=REPRO016
        """
        assert codes(source) == []

    def test_pragma_on_loop_header_suppresses_body(self):
        source = """
            def hot(rows, lo):
                for row in rows:  # repro-lint: disable=REPRO016
                    row.consume([lo, lo])
        """
        assert codes(source) == []

    def test_pragma_on_outer_loop_covers_nested_loops(self):
        source = """
            def hot(rows, cols, lo):
                for col in cols:  # repro-lint: disable=REPRO016,REPRO017
                    for row in rows:
                        use(col.scale)
                        use(col.scale)
                        row.consume([lo, lo])
        """
        assert codes(source) == []

    def test_pragma_on_inner_loop_does_not_cover_outer_body(self):
        source = """
            def hot(rows, cols, lo):
                for col in cols:
                    for row in rows:  # repro-lint: disable=REPRO016
                        row.consume([lo, lo])
                    col.consume([lo, lo])
        """
        found = findings(source)
        assert [f.code for f in found] == ["REPRO016"]
        # Only the outer-loop allocation survives.
        assert found[0].line == 6

    def test_pragma_for_other_code_does_not_suppress(self):
        source = """
            def hot(rows, lo):
                for row in rows:  # repro-lint: disable=REPRO017
                    row.consume([lo, lo])
        """
        assert codes(source) == ["REPRO016"]

    def test_repro019_pragma_is_line_anchored_only(self):
        source = """
            import numpy as np

            def hot(bounds):
                acc = np.zeros(8)
                for k in bounds:  # repro-lint: disable=REPRO019
                    out = acc * k + acc
                    use(out)
        """
        # Loop-header pragma does NOT cover the line-scoped REPRO019.
        assert codes(source) == ["REPRO019"]
        suppressed = source.replace(
            "out = acc * k + acc",
            "out = acc * k + acc  # repro-lint: disable=REPRO019",
        )
        assert codes(suppressed) == []

    def test_loop_scoped_rule_set(self):
        assert LOOP_SCOPED_RULES == {"REPRO016", "REPRO017", "REPRO018"}


# ----------------------------------------------------------------------
# Scoping, tree checks, CLI
# ----------------------------------------------------------------------


class TestTreeAndCli:
    def test_rule_table_is_complete(self):
        assert set(HOTPATH_RULES) == {
            "REPRO016",
            "REPRO017",
            "REPRO018",
            "REPRO019",
        }

    def test_src_tree_is_clean(self):
        found, checked = analyze([SRC], ["hotpath"])["hotpath"]
        assert checked > 20
        assert found == [], "\n".join(f.render() for f in found)

    def test_scope_excludes_non_solver_repro_packages(self, tmp_path):
        pkg = tmp_path / "repro" / "observability"
        pkg.mkdir(parents=True)
        # bandwidth_min is a contracted root in repro.core.bandwidth.
        bad = (
            "def bandwidth_min(rows, lo):\n"
            "    for row in rows:\n"
            "        row.consume([lo, lo])\n"
        )
        (pkg / "metrics.py").write_text(bad)
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "bandwidth.py").write_text(bad)
        found, checked = analyze([tmp_path], ["hotpath"])["hotpath"]
        assert checked == 1
        assert [f.code for f in found] == ["REPRO016"]
        assert "core" in str(found[0].path)

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            check_source("hotpath", "def broken(:\n", Path("bad.py"))

    # ``repro analyze --hotpath`` is the pass's command-line entry point.

    def test_main_missing_path(self, capsys):
        assert main(["analyze", "--hotpath", "does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_main_no_paths(self, capsys):
        # No paths: the installed repro package, which is clean.
        assert main(["analyze", "--hotpath"]) == 0
        assert "analyze: clean (hotpath)" in capsys.readouterr().err

    def test_main_reports_findings(self, tmp_path, capsys):
        # The file layout declares the root: bandwidth_min is contracted
        # in repro.core.bandwidth.
        target = tmp_path / "repro" / "core" / "bandwidth.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "def bandwidth_min(rows, lo):\n"
            "    for row in rows:\n"
            "        row.consume([lo, lo])\n"
        )
        assert main(["analyze", "--hotpath", str(target)]) == 1
        assert "REPRO016" in capsys.readouterr().out

    def test_main_clean_run(self, tmp_path, capsys):
        target = tmp_path / "cold.py"
        target.write_text("def cold():\n    return 1\n")
        assert main(["analyze", "--hotpath", "--json", str(target)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hotpath"] == {"files": 1, "findings": []}

    def test_main_syntax_error(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def broken(:\n")
        assert main(["analyze", "--hotpath", str(target)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_findings_are_sorted(self, tmp_path):
        source = """
            def hot(rows, lo):
                out = []
                for row in rows:
                    out.insert(0, row)
                    row.consume([lo, lo])
                return out
        """
        found = findings(source)
        assert [f.code for f in found] == ["REPRO018", "REPRO016"]
        assert found[0].line < found[1].line


# ----------------------------------------------------------------------
# Async constructs and analyzer edge cases
# ----------------------------------------------------------------------


class TestAsyncAndEdgeCases:
    def test_async_function_and_async_for_are_analyzed(self):
        source = """
            async def agg(stream, k):
                total = 0
                async for cursor in stream:
                    pad = [k, k]
                    cursor = cursor.step
                    total += cursor.bias * cursor.bias + pad[0]
                return total
        """
        found = codes(source, roots=("agg",))
        # The invariant literal and the doubled cursor.bias load both
        # fire; rebinding the async-for target does not exempt it.
        assert sorted(found) == ["REPRO016", "REPRO017"]

    def test_async_for_target_is_loop_variant(self):
        source = """
            async def collect(stream):
                out = []
                async for row in stream:
                    out.append([row, row])
                return out
        """
        assert codes(source, roots=("collect",)) == []

    def test_deleted_name_is_loop_variant(self):
        source = """
            def consume(rows, handle):
                out = []
                for row in rows:
                    out.append([handle, handle])
                    del handle
                return out
        """
        # `del handle` inside the body means the name cannot be hoisted
        # past the loop — it must count as loop-variant.
        assert codes(source, roots=("consume",)) == []

    def test_not_in_list_membership_flagged_once(self):
        source = """
            def skim(rows):
                kept = []
                for row in rows:
                    if row not in [3, 5, 7]:
                        kept.append(row)
                return kept
        """
        # REPRO018 for the linear scan; the comparator literal must not
        # double-report as a REPRO016 allocation.
        assert codes(source, roots=("skim",)) == ["REPRO018"]

    def test_array_seed_fixpoint_handles_self_assignment(self):
        source = """
            import numpy as np

            def normalize(rows):
                buf = np.zeros(8)
                buf = buf * 1.0
                out = 0.0
                for row in rows:
                    out += float((buf - row + buf * row).sum())
                return out
        """
        # `buf = buf * 1.0` makes targets == array_names exactly: the
        # seeding fixpoint must still terminate and keep buf array-like.
        assert codes(source, roots=("normalize",)) == ["REPRO019"]
