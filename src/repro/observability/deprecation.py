"""Warn-once plumbing: one notice per key per process.

Loud enough to act on, quiet enough not to drown a 10k-step run in
warnings.  No deprecated entry point is left in the package (the last
shims were removed in 2.0.0, see CHANGES.md); the one live caller is the
backend registry's "requested backend is unavailable, using numpy"
``RuntimeWarning``.
"""

from __future__ import annotations

import warnings
from typing import Set

__all__ = ["warn_once", "reset_deprecation_warnings"]

_WARNED: Set[str] = set()


def warn_once(
    key: str,
    message: str,
    stacklevel: int = 3,
    category: type = DeprecationWarning,
) -> None:
    """Emit ``category`` (default ``DeprecationWarning``) once per key."""
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)


def reset_deprecation_warnings() -> None:
    """Re-arm every warning (test isolation)."""
    _WARNED.clear()
