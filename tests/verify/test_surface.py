"""The declared surface: tables that resolve, and solvers that stand alone.

:data:`repro.verify.contracts.CONTRACTS` and the two
:mod:`repro.verify.markers` tables name product functions and classes
by qualified name; every name must import and be what the table says it
is.  The product packages, in turn, import nothing from
:mod:`repro.verify` unless ``REPRO_VERIFY`` asks them to, and a
``repro batch`` loads no :mod:`repro.baselines` module.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def resolve(qualname: str) -> object:
    """The object ``qualname`` names: the longest importable module
    prefix, then attribute lookups for the rest."""
    parts = qualname.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"no module prefix of {qualname} imports")


def test_every_declared_name_resolves():
    from repro.verify.contracts import CONTRACTS, ComplexityBudget
    from repro.verify.markers import CONCURRENT_ENTRIES, SHARED_STATE

    for qualname in (*CONTRACTS, *CONCURRENT_ENTRIES):
        fn = resolve(qualname)
        assert inspect.isfunction(fn), qualname
        assert f"{fn.__module__}.{fn.__qualname__}" == qualname
    for budget, counters in CONTRACTS.values():
        ComplexityBudget.parse(budget)  # raises on a malformed budget
        assert all(isinstance(name, str) for name in counters)
    for qualname, lock in SHARED_STATE.items():
        cls = resolve(qualname)
        assert inspect.isclass(cls), qualname
        assert f"{cls.__module__}.{cls.__qualname__}" == qualname
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        assigned = {
            target.attr
            for node in ast.walk(init)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        }
        assert lock in assigned, f"{qualname}.__init__ never sets self.{lock}"


CHILD = """
import json, sys
from repro.cli import main
code = main(["batch"])
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", package])
baselines = loaded("baselines")
import repro.baselines, repro.core, repro.engine, repro.graphs, repro.observability
report = {"code": code, "baselines": baselines, "loaded": loaded("verify")}
print(json.dumps(report), file=sys.stderr)
"""


def test_product_packages_load_no_verify_module():
    env = {k: v for k, v in os.environ.items() if k != "REPRO_VERIFY"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        input='{"alpha": [4,3,5,2,6], "beta": [7,1,9,2], "bound": 9}\n',
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stderr.strip().splitlines()[-1])
    assert report == {"code": 0, "baselines": [], "loaded": []}
    (line,) = result.stdout.splitlines()
    assert json.loads(line)["weight"] == 3.0
