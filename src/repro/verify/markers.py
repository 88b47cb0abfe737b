"""Runtime concurrency markers: ``@concurrent_entry`` / ``@shared_state``.

These are the *declaration* half of the concurrency-safety contract:
:func:`shared_state` registers a class as shared mutable state and
names the lock attribute that guards it; :func:`concurrent_entry`
marks a function or method as callable from multiple threads at once.
The *enforcement* half lives in :mod:`repro.verify.concurrency`
(static rules REPRO013 and REPRO015) and :mod:`repro.verify.races` (the
dynamic race-hammer harness over :data:`SHARED_REGISTRY`).

The markers live in this tiny stdlib-only leaf module — not in the
analyzer — because the engine and observability hot paths apply them at
class-creation time: importing them must not drag the AST machinery
(or anything else) into every process that solves a chain.  Both are
pure annotations; neither wraps the callable nor costs anything at call
time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, TypeVar

#: Runtime inventory of shared-state classes: qualified class name ->
#: declared lock attribute.  Filled by :func:`shared_state` at class
#: decoration time; the race-hammer harness and the tests iterate it.
SHARED_REGISTRY: Dict[str, str] = {}

_F = TypeVar("_F", bound=Callable[..., Any])
_C = TypeVar("_C", bound=type)


def concurrent_entry(fn: _F) -> _F:
    """Mark ``fn`` as callable from multiple threads concurrently.

    A pure marker: the function is returned unchanged (no wrapper, no
    overhead) with ``__concurrent_entry__ = True`` set so runtime
    tooling can discover the annotated surface.  The static pass keys
    off the decorator *name*, so it needs no imports to see it.
    """
    fn.__concurrent_entry__ = True  # type: ignore[attr-defined]
    return fn


def shared_state(lock: str = "_lock") -> Callable[[_C], _C]:
    """Class decorator declaring shared mutable state guarded by ``lock``.

    Registers the class in :data:`SHARED_REGISTRY` and stamps
    ``__shared_lock__`` on it; the class itself is returned unchanged.
    """

    def register(cls: _C) -> _C:
        cls.__shared_lock__ = lock  # type: ignore[attr-defined]
        SHARED_REGISTRY[f"{cls.__module__}.{cls.__qualname__}"] = lock
        return cls

    return register
