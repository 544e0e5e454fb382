"""Backend registry + dispatch for the compiled SPH hot path.

Two execution backends stand behind every pair-loop phase:

``numpy``
    The reference.  ``Backend.ops is None`` and each phase runs its
    original vectorized code — byte-for-byte the pre-backend behaviour.
``cffi``
    The fused kernels, the tree walk and the gravity walk as C, compiled
    at runtime with the system C compiler
    (:mod:`repro.backend.cffi_backend`).

``auto`` resolves silently to cffi and falls back to numpy when the
toolchain is missing.  Requesting a *specific* unavailable backend warns
exactly once per process (``RuntimeWarning``) and degrades to numpy —
never a traceback.

Selection is ``ExecConfig(backend=...)`` / ``--backend``; the resolved
name + toolchain version land in ``RunReport.backend`` provenance.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Set

from .base import (
    BACKEND_CHOICES,
    Backend,
    BackendUnavailableError,
    UnsupportedKernelError,
    backend_ops,
    kernel_spec,
)

__all__ = [
    "BACKEND_CHOICES",
    "Backend",
    "BackendUnavailableError",
    "UnsupportedKernelError",
    "backend_ops",
    "kernel_spec",
    "select_backend",
    "available_backends",
]


def _make_numpy() -> Backend:
    import numpy

    return Backend(
        name="numpy", ops=None, version=f"numpy {numpy.__version__}",
        detail="vectorized reference",
    )


def _make_cffi() -> Backend:
    from .cffi_backend import load_library
    from .compiled import CompiledOps

    ffi, lib, version = load_library()
    return Backend(
        name="cffi", ops=CompiledOps("cffi", ffi, lib), version=version,
        detail="runtime-compiled C (ABI mode)",
    )


#: Factories, monkeypatchable in tests to fake unavailability.
_FACTORIES: Dict[str, Callable[[], Backend]] = {
    "numpy": _make_numpy,
    "cffi": _make_cffi,
}

#: Preference order for ``auto``: compiled first, reference last.
_AUTO_ORDER = ("cffi", "numpy")

_INSTANCES: Dict[str, Backend] = {}

#: Named backends whose unavailability was already warned about.
_WARNED: Set[str] = set()


def _instantiate(name: str) -> Backend:
    cached = _INSTANCES.get(name)
    if cached is None:
        cached = _INSTANCES[name] = _FACTORIES[name]()
    return cached


def select_backend(name: str = "numpy") -> Backend:
    """Resolve a backend request to a usable :class:`Backend`.

    Unknown names raise ``ValueError`` listing the choices.  ``auto``
    silently picks the best available; a named-but-unavailable compiled
    backend warns once per process and returns the numpy reference.
    """
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKEND_CHOICES)}"
        )
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    if name == "auto":
        for candidate in _AUTO_ORDER:
            try:
                backend = _instantiate(candidate)
                break
            except BackendUnavailableError:
                continue
        else:  # pragma: no cover - numpy factory cannot fail
            backend = _instantiate("numpy")
    else:
        try:
            backend = _instantiate(name)
        except BackendUnavailableError as exc:
            if name not in _WARNED:
                _WARNED.add(name)
                warnings.warn(
                    f"backend {name!r} is unavailable on this host ({exc}); "
                    f"falling back to the numpy reference",
                    RuntimeWarning,
                    stacklevel=2,
                )
            backend = _instantiate("numpy")
    _INSTANCES[name] = backend
    return backend


def available_backends() -> Dict[str, bool]:
    """Map of backend name -> constructible on this host (probes lazily)."""
    out: Dict[str, bool] = {}
    for name in _FACTORIES:
        try:
            _instantiate(name)
            out[name] = True
        except BackendUnavailableError:
            out[name] = False
    return out


def _reset_backends() -> None:
    """Drop resolved instances (test isolation for fallback paths)."""
    _INSTANCES.clear()
