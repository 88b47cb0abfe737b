"""The declared surface: tables that resolve, and solvers that stand alone.

:data:`repro.verify.contracts.CONTRACTS` and the two
:mod:`repro.verify.markers` tables name product functions and classes
by qualified name; every name must import and be what the table says it
is.  The product packages, in turn, import nothing from
:mod:`repro.verify` unless ``REPRO_VERIFY`` asks them to, and a
``repro batch`` loads no :mod:`repro.baselines` module: it loads exactly
:data:`BATCH_MODULES`, and no NumPy where the native library loads.
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

import pytest

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


#: Every ``repro`` module a ``repro batch`` child loads, on an empty
#: input and on one bandwidth query alike: the CLI, the engine's batch,
#: plan and kernel path, the chain solvers behind the other objectives,
#: and the telemetry the engine reports through.  Anything more is a
#: start-up cost every ``repro batch`` pays.
BATCH_MODULES = sorted([
    "repro", "repro._lazy", "repro.cli", "repro.exitcodes",
    "repro.core", "repro.core.bandwidth", "repro.core.bottleneck",
    "repro.core.feasibility", "repro.core.pipeline", "repro.core.prime_subpaths",
    "repro.core.processor_min", "repro.core.temp_s",
    "repro.engine", "repro.engine.batch", "repro.engine.cache",
    "repro.engine.kernels", "repro.engine.native", "repro.engine.plan",
    "repro.graphs", "repro.graphs.chain", "repro.graphs.partition",
    "repro.graphs.task_graph", "repro.graphs.tree",
    "repro.instrumentation", "repro.instrumentation.counters",
    "repro.observability", "repro.observability.metrics",
])

CHILD = """
import json, sys
from repro.cli import main
code = main(["batch"])
def loaded(package):
    return sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", package])
modules = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
numpy = "numpy" in sys.modules
baselines = loaded("baselines")
from repro.engine import kernels
native = kernels.native_sweep_loaded()
import repro.baselines, repro.core, repro.engine, repro.graphs, repro.observability
report = {"code": code, "baselines": baselines, "loaded": loaded("verify"),
          "modules": modules, "numpy": numpy, "native": native}
print(json.dumps(report), file=sys.stderr)
"""


def _child(script, stdin=""):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_VERIFY"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result, json.loads(result.stderr.strip().splitlines()[-1])


def _check_batch_child(stdin):
    """Run ``repro batch`` on ``stdin`` in a child: it loads exactly
    :data:`BATCH_MODULES`, no baseline or verify module, and no NumPy
    when the native library loaded."""
    result, report = _child(CHILD, stdin)
    assert (report["code"], report["baselines"], report["loaded"]) == (0, [], [])
    assert report["modules"] == BATCH_MODULES
    if report["native"]:
        assert not report["numpy"], "repro batch imported NumPy with the native library loaded"
    return result


def test_product_packages_load_no_verify_module():
    result = _check_batch_child(
        '{"alpha": [4,3,5,2,6], "beta": [7,1,9,2], "bound": 9}\n')
    (line,) = result.stdout.splitlines()
    assert json.loads(line)["weight"] == 3.0


def test_empty_batch_loads_the_same_modules():
    assert _check_batch_child("").stdout == ""


def test_import_repro_loads_no_subpackage():
    script = ("import json, sys, repro\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))),"
              " file=sys.stderr)")
    _, modules = _child(script)
    assert modules == ["repro", "repro._lazy"]


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.engine", "repro.graphs", "repro.instrumentation",
    "repro.observability", "repro.verify",
])
def test_lazy_package_exports_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert name in dir(module)
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
