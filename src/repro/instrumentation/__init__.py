"""Operation counting, timing and RNG helpers for the experiments."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - names for type checkers only
    from repro.instrumentation.counters import AlgorithmStats, OpCounter
    from repro.instrumentation.rng import spawn_rng
    from repro.instrumentation.stopwatch import Stopwatch

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.instrumentation.counters": ("AlgorithmStats", "OpCounter"),
    "repro.instrumentation.rng": ("spawn_rng",),
    "repro.instrumentation.stopwatch": ("Stopwatch",),
})

__all__ = ["AlgorithmStats", "OpCounter", "Stopwatch", "spawn_rng"]
