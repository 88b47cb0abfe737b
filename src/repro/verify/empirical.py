"""The empirical complexity gate: ``repro analyze --complexity``.

Static contracts (:mod:`repro.verify.contracts`) say what a solver's
cost *should* be; this module checks what it *is*.  Each
:class:`ComplexityProbe` runs a solver on generated workloads (the
paper's Figure-2 instance family) at geometrically spaced scales,
reads the measured operation count out of
:class:`~repro.instrumentation.counters.OpCounter` telemetry, and fits

.. math::

    \\log_2 \\mathrm{ops}(n)
        \\;\\approx\\; \\beta \\cdot \\log_2 B(n, p, q, \\ldots) + c

by least squares, where ``B`` is the declared budget evaluated at the
measured instance parameters.  For an implementation that honours its
contract the growth exponent ``beta`` is at most 1 (up to constant
factors, which the log-log fit absorbs into ``c``); an implementation
that silently became quadratic fits ``beta`` near 2 against a linear
budget.  A probe fails — rule **REPRO009** — when ``beta`` exceeds
``1 + tolerance``.

Operation counts, not wall-clock: counters are exact, deterministic for
a seeded workload, immune to machine noise, and (by construction — see
:func:`repro.core.prime_subpaths.find_prime_subpaths`) monotone in the
instance size, so the fit never sees timer jitter.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.verify.codes import messages_for
from repro.verify.contracts import CONTRACTS, ComplexityBudget

#: Drawn from the central registry (:mod:`repro.verify.codes`).
EMPIRICAL_RULES: Dict[str, str] = messages_for("repro.verify.empirical")

#: A probe measurement: (operation count, instance parameters by name).
Measurement = Tuple[float, Dict[str, float]]

#: Default geometric scales — big enough that asymptotics dominate,
#: small enough that the CI gate stays in the seconds.
DEFAULT_SCALES: Tuple[int, ...] = (512, 1024, 2048, 4096, 8192)
DEFAULT_TOLERANCE = 0.25
DEFAULT_REPS = 2


class ComplexityProbe:
    """One solver's empirical check: a budget plus a measurement hook."""

    __slots__ = ("name", "budget", "measure", "counters")

    def __init__(
        self,
        name: str,
        budget: ComplexityBudget,
        measure: Callable[[int, random.Random], Measurement],
        counters: Tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.budget = budget
        self.measure = measure
        self.counters = counters

    @classmethod
    def for_function(
        cls,
        name: str,
        fn: Callable[..., object],
        measure: Callable[[int, random.Random], Measurement],
    ) -> "ComplexityProbe":
        """Build a probe from the solver's :data:`CONTRACTS` entry, so
        the budget under test is the one the static pass enforces."""
        qualname = f"{fn.__module__}.{fn.__qualname__}"
        if qualname not in CONTRACTS:
            raise ValueError(f"{name}: {qualname} has no entry in CONTRACTS")
        budget, counters = CONTRACTS[qualname]
        return cls(name, ComplexityBudget.parse(budget), measure, counters)

    def __repr__(self) -> str:
        return f"ComplexityProbe({self.name}: O({self.budget.source}))"


class ProbeResult:
    """The fitted outcome of one probe across all scales."""

    __slots__ = (
        "name",
        "budget",
        "slope",
        "tolerance",
        "passed",
        "points",
        "code",
        "message",
    )

    def __init__(
        self,
        name: str,
        budget: str,
        slope: float,
        tolerance: float,
        points: List[Dict[str, float]],
    ) -> None:
        self.name = name
        self.budget = budget
        self.slope = slope
        self.tolerance = tolerance
        self.passed = slope <= 1.0 + tolerance
        self.points = points
        self.code: Optional[str] = None if self.passed else "REPRO009"
        self.message = (
            f"{name}: measured growth exponent {slope:.3f} against declared "
            f"O({budget}) (limit {1.0 + tolerance:.2f})"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "budget": self.budget,
            "slope": round(self.slope, 4),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "code": self.code,
            "points": self.points,
        }


class GateReport:
    """All probe results from one ``run_complexity_gate`` invocation."""

    __slots__ = ("results", "scales", "seed")

    def __init__(
        self, results: List[ProbeResult], scales: Tuple[int, ...], seed: int
    ) -> None:
        self.results = results
        self.scales = scales
        self.seed = seed

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> List[ProbeResult]:
        return [result for result in self.results if not result.passed]

    def as_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "scales": list(self.scales),
            "seed": self.seed,
            "probes": [result.as_dict() for result in self.results],
        }

    def render(self) -> str:
        lines = []
        for result in self.results:
            status = "ok  " if result.passed else "FAIL"
            prefix = f"{result.code} " if result.code else ""
            lines.append(f"  {status} {prefix}{result.message}")
        verdict = "passed" if self.passed else "FAILED"
        lines.append(f"complexity gate {verdict} ({len(self.results)} probe(s))")
        return "\n".join(lines)


def _fit_slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of ``log2 ops`` against ``log2 budget``."""
    xs = [math.log2(max(budget, 1.0)) for budget, _ in points]
    ys = [math.log2(max(ops, 1.0)) for _, ops in points]
    k = len(points)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x <= 1e-12:
        return 0.0  # budget did not grow over the scales; nothing to fit
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var_x


def run_complexity_gate(
    probes: Optional[Sequence[ComplexityProbe]] = None,
    *,
    scales: Sequence[int] = DEFAULT_SCALES,
    reps: int = DEFAULT_REPS,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> GateReport:
    """Run every probe at every scale and fit the growth exponents.

    Workloads are seeded per ``(seed, probe, scale, rep)``, so the gate
    is reproducible run to run; ``reps`` instances per scale are
    averaged before fitting to smooth instance-to-instance variation in
    the derived parameters (``p``, ``q``).
    """
    if probes is None:
        probes = default_probes()
    results: List[ProbeResult] = []
    for probe in probes:
        fit_points: List[Tuple[float, float]] = []
        report_points: List[Dict[str, float]] = []
        for scale in scales:
            ops_total = 0.0
            var_totals: Dict[str, float] = {}
            for rep in range(reps):
                rng = random.Random(f"{seed}:{probe.name}:{scale}:{rep}")
                ops, variables = probe.measure(scale, rng)
                ops_total += ops
                for key, value in variables.items():
                    var_totals[key] = var_totals.get(key, 0.0) + value
            mean_ops = ops_total / reps
            mean_vars = {k: v / reps for k, v in var_totals.items()}
            budget_value = probe.budget.evaluate(**mean_vars)
            fit_points.append((budget_value, mean_ops))
            point: Dict[str, float] = {
                "scale": float(scale),
                "ops": mean_ops,
                "budget_value": budget_value,
            }
            point.update(mean_vars)
            report_points.append(point)
        slope = _fit_slope(fit_points)
        results.append(
            ProbeResult(
                probe.name, probe.budget.source, slope, tolerance, report_points
            )
        )
    return GateReport(results, tuple(scales), seed)


# ----------------------------------------------------------------------
# Built-in probes: the paper's headline claims
# ----------------------------------------------------------------------

_FIG2_W_MAX = 10.0
_FIG2_RATIO = 4.0


def _fig2_instance(n: int, rng: random.Random) -> Tuple[object, float]:
    from repro.graphs.generators import bound_for_ratio, figure2_chain

    chain = figure2_chain(n, w_max=_FIG2_W_MAX, rng=rng)
    return chain, bound_for_ratio(chain, _FIG2_RATIO)


def _measure_bandwidth_min(n: int, rng: random.Random) -> Measurement:
    """Algorithm 4.1 end to end: preprocessing counters + search steps."""
    from repro.core.bandwidth import bandwidth_min
    from repro.core.prime_subpaths import compute_prime_structure
    from repro.instrumentation.counters import OpCounter

    chain, bound = _fig2_instance(n, rng)
    counter = OpCounter()
    structure = compute_prime_structure(chain, bound, counter=counter)  # type: ignore[arg-type]
    result = bandwidth_min(
        chain, bound, structure=structure, collect_stats=True  # type: ignore[arg-type]
    )
    stats = result.stats
    assert stats is not None
    ops = float(sum(counter.as_dict().values()) + stats.search_steps)
    return ops, {
        "n": float(n),
        "p": float(stats.p),
        "q": float(stats.q),
    }


def _measure_prime_structure(n: int, rng: random.Random) -> Measurement:
    """The O(n) preprocessing alone (analytic sweep counters)."""
    from repro.core.prime_subpaths import compute_prime_structure
    from repro.instrumentation.counters import OpCounter

    chain, bound = _fig2_instance(n, rng)
    counter = OpCounter()
    compute_prime_structure(chain, bound, counter=counter)  # type: ignore[arg-type]
    return float(sum(counter.as_dict().values())), {"n": float(n)}


def _measure_nicol(n: int, rng: random.Random) -> Measurement:
    """The O(n log n) baseline, measured through its tracer span counts."""
    from repro.baselines.nicol import bandwidth_min_nlogn
    from repro.observability.spans import Tracer

    chain, bound = _fig2_instance(n, rng)
    tracer = Tracer()
    bandwidth_min_nlogn(chain, bound, tracer=tracer)
    heap_ops = 0.0
    for record in tracer.records():
        counts = record.get("counts", {})
        heap_ops += counts.get("heap_pushes", 0) + counts.get("heap_pops", 0)
    # The DP reads every task regardless of heap traffic: Omega(n).
    return float(n) + heap_ops, {"n": float(n)}


def default_probes() -> List[ComplexityProbe]:
    """The built-in probe set: Algorithm 4.1, its preprocessing, and the
    Nicol baseline — the three complexity claims the paper rests on."""
    from repro.baselines.nicol import bandwidth_min_nlogn
    from repro.core.bandwidth import bandwidth_min
    from repro.core.prime_subpaths import compute_prime_structure

    return [
        ComplexityProbe.for_function(
            "core.bandwidth_min", bandwidth_min, _measure_bandwidth_min
        ),
        ComplexityProbe.for_function(
            "core.compute_prime_structure",
            compute_prime_structure,
            _measure_prime_structure,
        ),
        ComplexityProbe.for_function(
            "baselines.bandwidth_min_nlogn", bandwidth_min_nlogn, _measure_nicol
        ),
    ]
