"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names once, in a table mapping
each name to the submodule that defines it, and hands that table to
:func:`attach`::

    _EXPORTS = {"TraceDataset": ".dataset", ...}
    __getattr__, __dir__, __all__ = attach(globals(), _EXPORTS)

A name's submodule is imported on first access and the resolved value is
cached in the package's globals, so later lookups are plain dict hits
and never reach ``__getattr__`` again.  Assigning the attribute (as a
test or a tracer patching ``package.name`` does) replaces the cached
value like any other module global.

The point is the import graph: ``import repro.serve`` should not drag in
the trace generator, the simulation stack and scipy merely because the
package ``__init__`` re-exports them.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable


def attach(
    namespace: dict, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package owning ``namespace``.

    ``exports`` maps each public name to the relative module (``".io"``)
    that defines it.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, sorted(exports)
