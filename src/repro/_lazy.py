"""Lazy package exports: a package's public names, imported on first access.

Every package ``__init__`` declares what it re-exports as one table,
``{module: (name, ...)}``, and hands it to :func:`lazy_exports`, which
returns the module-level ``__getattr__`` / ``__dir__`` hooks of PEP 562 and
the ``__all__`` list derived from the same table.  ``from repro.sim import
RequestCluster`` then imports :mod:`repro.sim.cluster` and nothing else of
the package, so a run loads only the substrate it executes.  A resolved name
is stored in the package's namespace, so the hook runs once per name.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    *,
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module's absolute name to the names the package
    re-exports from it; ``submodules`` are subpackages or modules exposed as
    attributes themselves (``repro.api``).
    """
    home = {name: module for module, names in exports.items() for name in names}
    submodules = tuple(submodules)
    public = [*submodules, *home]

    def __getattr__(name: str) -> Any:
        if name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        elif name in home:
            value = getattr(importlib.import_module(home[name]), name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
