"""Nested tracing spans — the wall-clock/op-count backbone of the repo.

The paper's evidence is a *cost model* (``O(n + p log q)`` search steps,
TEMP_S queue lengths), so credible measurement has to tie wall-clock
phases to the abstract quantities they spend.  A :class:`Tracer` hands
out nested :class:`Span` context managers::

    tracer = Tracer()
    with tracer.span("bandwidth_min", n=chain.num_tasks) as root:
        with tracer.span("prime_structure") as sp:
            structure = compute_prime_structure(chain, bound)
            sp.set("p", structure.p)
        root.add("queries")

Each span records its wall-clock duration, arbitrary attributes
(:meth:`Span.set`), and operation counts/value traces through an
embedded :class:`~repro.instrumentation.counters.OpCounter`
(:meth:`Span.add` / :meth:`Span.trace`) — the same counter object the
algorithms already accept, so a traced run reproduces
``AlgorithmStats`` bit-for-bit rather than approximating it.

Tracing off is ``tracer=None``, as counting off is ``counter=None``:
instrumented code tests ``tracer is None`` once per phase and then runs
the untraced path, so production calls pay one branch.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional

from repro.instrumentation.counters import OpCounter


class Span:
    """One timed, attributed phase of a run.

    Created by :meth:`Tracer.span` and used as a context manager; the
    parent/child structure follows the runtime nesting of ``with``
    blocks.  ``attrs`` hold scalar facts (``p``, ``q``, cache outcome),
    ``counter`` holds monotone op-counts and value traces.
    """

    __slots__ = (
        "name",
        "attrs",
        "counter",
        "start_s",
        "duration_s",
        "children",
        "path",
        "depth",
        "_tracer",
        "_t0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.counter = OpCounter()
        self.start_s = 0.0
        self.duration_s = 0.0
        self.children: List["Span"] = []
        self.path = name
        self.depth = 0
        self._tracer = tracer
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._t0 = time.perf_counter()
        self.start_s = self._t0 - self._tracer.epoch
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration_s = time.perf_counter() - self._t0
        self._tracer._pop(self)

    def to_record(self) -> Dict[str, Any]:
        """This span as a JSON-ready record (the per-span shape of
        :meth:`Tracer.records`, minus the tree-global ``order``)."""
        return {
            "kind": "span",
            "path": self.path,
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "counts": self.counter.as_dict(),
            "traces": {
                name: _trace_summary(series)
                for name, series in self.counter.traces.items()
            },
        }

    def set(self, name: str, value: Any) -> None:
        """Record a scalar attribute on this span."""
        self.attrs[name] = value

    def add(self, name: str, amount: int = 1) -> None:
        """Bump a named operation count."""
        self.counter.add(name, amount)

    def trace(self, name: str, value: float) -> None:
        """Append to a named value series (e.g. per-edge TEMP_S length)."""
        self.counter.trace(name, value)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms)"


def _trace_summary(series: List[float]) -> Dict[str, float]:
    """Compress a value series to the summary the paper reports.

    ``mean`` uses the same ``sum / len`` expression as
    :meth:`OpCounter.trace_mean`, so exported summaries match
    ``AlgorithmStats`` exactly.
    """
    return {
        "count": len(series),
        "mean": sum(series) / len(series) if series else 0.0,
        "max": max(series) if series else 0.0,
    }


class Tracer:
    """Factory and collector for nested spans.

    Code that may run untraced takes ``tracer: Optional[Tracer]`` and
    tests ``tracer is None``.
    """

    __slots__ = ("roots", "epoch", "_stack")

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self.epoch = time.perf_counter()
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as ``with tracer.span("phase", n=n) as s:``."""
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        if self._stack:
            parent = self._stack[-1]
            parent.children.append(span)
            span.path = f"{parent.path}/{span.name}"
            span.depth = parent.depth + 1
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Pop back to (and including) the span: tolerates a span exited
        # out of order rather than silently corrupting the tree.
        while self._stack:
            if self._stack.pop() is span:
                return

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        """All finished and open spans, depth-first in start order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> Optional[Span]:
        """First span with the given name, depth-first (test/CLI use)."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def total_seconds(self) -> float:
        return sum(span.duration_s for span in self.roots)

    def records(self) -> List[Dict[str, Any]]:
        """Flatten the span tree to JSON-ready dicts.

        Each record carries ``path`` (slash-joined ancestor names),
        ``depth``, ``order`` (depth-first index — deterministic for a
        given run), timing, attributes, op-counts and trace summaries.
        """
        out: List[Dict[str, Any]] = []
        for span in self.iter_spans():
            record = span.to_record()
            record["order"] = len(out)
            out.append(record)
        return out

    def __repr__(self) -> str:
        return f"Tracer(roots={len(self.roots)})"
