"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package lists which module defines each of its public names;
``import repro`` or ``import repro.engine`` then loads nothing else, and
a name's module is imported on its first access.  ``repro batch`` pays
only for the modules it runs, and NumPy stays unloaded unless a fallback
kernel needs it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Any, Callable, Dict, List, Sequence, Tuple

#: The package attribute holding its ``name -> defining module`` table.
_TABLE = "_lazy_exports"


class _LazyPackage(ModuleType):
    """The module type of a lazy package.

    The import system binds each imported submodule on its package.
    Where the submodule shares its name with the name the package
    exports from it (``repro.core.processor_min``), the exported object
    is bound instead, as an eager ``from ... import`` in the
    ``__init__`` used to leave it.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) and (
            self.__dict__.get(_TABLE, {}).get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a module to the names the package takes from it.
    A resolved name is stored in the package's namespace, so the next
    access skips ``__getattr__``.
    """
    where = {name: module for module, names in exports.items() for name in names}
    module = sys.modules[package]
    namespace = module.__dict__
    namespace[_TABLE] = where
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> Any:
        try:
            source = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(source), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
