"""Operation counters used to reproduce the paper's cost measurements.

Figure 2 and the Section 2.3.2 discussion reason about *abstract*
operation counts (``p log q`` search steps, TEMP_S queue lengths) rather
than wall-clock time, so the algorithms accept an optional
:class:`OpCounter` and report how much work they actually did.  Counting
is opt-in: off is ``counter=None``, which costs nothing (the algorithms
check for ``None`` once per phase, not per operation).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List


class OpCounter:
    """A named bag of monotone counters plus optional value traces.

    ``counter.add("comparisons", 3)`` bumps a counter;
    ``counter.trace("temp_s_len", 7)`` appends to a series (used for the
    Appendix-B queue-length measurements).  Counting off is ``None``:
    the algorithms take ``counter=None`` and skip the calls.
    """

    __slots__ = ("counts", "traces")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)
        self.traces: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def trace(self, name: str, value: float) -> None:
        self.traces[name].append(value)

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def trace_mean(self, name: str) -> float:
        series = self.traces.get(name, [])
        return sum(series) / len(series) if series else 0.0

    def trace_max(self, name: str) -> float:
        series = self.traces.get(name, [])
        return max(series) if series else 0.0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({inner})"


class AlgorithmStats:
    """Structured statistics reported by the bandwidth algorithm.

    Mirrors the quantities of Figure 2:

    - ``n`` — number of tasks;
    - ``p`` — number of prime subpaths;
    - ``r`` — number of non-redundant edges (``r <= min(n - 1, 2p - 1)``);
    - ``q_values`` — per-edge prime-subpath membership counts ``q_i``;
    - ``q`` — their mean (the paper's ``q = sum(q_i) / r``);
    - ``max_temp_s_len`` / ``mean_temp_s_len`` — TEMP_S queue lengths
      (Appendix B);
    - ``search_steps`` — binary-search comparisons performed.
    """

    __slots__ = (
        "n",
        "p",
        "r",
        "q_values",
        "max_temp_s_len",
        "mean_temp_s_len",
        "search_steps",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.p = 0
        self.r = 0
        self.q_values: List[int] = []
        self.max_temp_s_len = 0
        self.mean_temp_s_len = 0.0
        self.search_steps = 0

    @property
    def q(self) -> float:
        """Average number of prime subpaths per non-redundant edge."""
        if not self.q_values:
            return 0.0
        return sum(self.q_values) / len(self.q_values)

    @property
    def p_log_q(self) -> float:
        """The paper's cost measure ``p * log2(q)`` (0 when q <= 1)."""
        import math

        q = self.q
        return self.p * math.log2(q) if q > 1.0 else 0.0

    @property
    def n_log_n(self) -> float:
        import math

        return self.n * math.log2(self.n) if self.n > 1 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "p_log_q": self.p_log_q,
            "n_log_n": self.n_log_n,
            "max_temp_s_len": self.max_temp_s_len,
            "mean_temp_s_len": self.mean_temp_s_len,
            "search_steps": self.search_steps,
        }

    def __repr__(self) -> str:
        return (
            f"AlgorithmStats(n={self.n}, p={self.p}, r={self.r}, "
            f"q={self.q:.2f}, p_log_q={self.p_log_q:.1f})"
        )
