"""Lazy package surfaces (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule, and with them numpy, the simulator and the
controller, even in a process that uses one of them.  :func:`exports`
builds the package's module-level ``__getattr__`` / ``__dir__`` so a
re-exported name imports its submodule on first access; the resolved
object is then cached in the package's globals, so later accesses are
plain attribute lookups.  ``from repro.core import X`` and
``repro.core.X`` keep working unchanged.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["exports"]


def exports(
    package: str,
    namespace: Dict[str, object],
    origins: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``origins`` maps each submodule (relative name) to the names it
    provides; ``namespace`` is the package's ``globals()``.
    """
    owner = {
        name: f"{package}.{module}"
        for module, names in origins.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
