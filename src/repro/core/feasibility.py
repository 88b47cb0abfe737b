"""Feasibility checks shared by all partitioning algorithms.

Every problem in the paper carries the *execution-time bound* condition:
after removing the cut, no connected component may weigh more than ``K``.
Since cutting every edge leaves single vertices, the bound is achievable
iff every vertex weight is at most ``K`` (the paper assumes
``K > max_i alpha_i``; we accept equality, which still admits the
all-singletons partition).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple


class PartitioningError(Exception):
    """Base class for partitioning failures."""


class InfeasibleBoundError(PartitioningError):
    """Raised when no cut can satisfy the execution-time bound ``K``."""

    def __init__(self, bound: float, max_weight: float) -> None:
        super().__init__(
            f"bound K={bound:g} is below the maximum vertex weight "
            f"{max_weight:g}; no partition can satisfy the execution-time "
            "bound"
        )
        self.bound = bound
        self.max_weight = max_weight

    def __reduce__(self) -> Tuple[type, Tuple[float, float]]:
        return (type(self), (self.bound, self.max_weight))


class OptimumOverflowError(PartitioningError):
    """Raised when the optimal cut weight is not representable.

    Feasible cuts exist, but every one of them weighs more than the
    largest float64: its weight sum overflows to ``inf``, which is not
    an answer.  Processor minimization raises it, with its own
    ``message``, when a Section 2.2 total overflows: a vertex and its
    children summing to ``inf`` cannot say which children to prune.
    """

    def __init__(self, bound: float, message: Optional[str] = None) -> None:
        super().__init__(
            message
            or f"the optimal cut weight at K={bound:g} overflows float64: "
            "every feasible cut weighs inf"
        )
        self.bound = bound

    def __reduce__(self) -> Tuple[type, Tuple[float, str]]:
        return (type(self), (self.bound, str(self)))


def total_overflow(bound: float) -> OptimumOverflowError:
    """The error for a Section 2.2 total (a cluster plus its children)
    that overflowed to ``inf`` at bound ``bound``."""
    return OptimumOverflowError(
        bound,
        f"a Section 2.2 total at K={bound:g} overflows float64: a cluster "
        "and its children weigh inf, so which to prune is not computable",
    )


def finite_optimum(weight: float, bound: float) -> float:
    """Return an optimal cut weight, or raise
    :class:`OptimumOverflowError` when it overflowed to ``inf``.

    The one rule every chain solver applies to its answer.
    """
    if weight == math.inf:
        raise OptimumOverflowError(bound)
    return weight


def validate_bound(vertex_weights: Iterable[float], bound: float) -> float:
    """Validate ``K`` against the vertex weights and return the max weight.

    Raises :class:`InfeasibleBoundError` when some vertex alone exceeds
    ``K`` and :class:`ValueError` unless ``0 < K < inf`` (NaN included).
    """
    if not 0 < bound < math.inf:
        raise ValueError(f"bound K must be positive and finite, got {bound:g}")
    max_weight = max(vertex_weights)
    if max_weight > bound:
        raise InfeasibleBoundError(bound, max_weight)
    return max_weight
