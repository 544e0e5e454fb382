"""Package namespaces whose names load on first use.

A run imports the modules on its own path and nothing else: a package
``__init__`` declares which submodule provides each public name, and the
module-level ``__getattr__`` (PEP 562) imports that submodule the first
time the name is read — ``from repro.ics import make_sod`` loads
``repro.ics.sod`` and no other IC builder.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the module ``package``, whose
    ``exports`` map each submodule (relative to the module's package:
    ``".octree"``) to the names it provides.

    A name is imported once and then stored in the package namespace, as
    an eager import would have stored it.  A name that is the submodule
    itself (``"api"`` from ``".api"``) is the module.
    """
    where = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__
    anchor = namespace["__package__"]

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module, anchor)
        value = loaded if module == f".{name}" else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
