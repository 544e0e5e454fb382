"""Backend dispatch primitives: errors, kernel specs, the Backend handle.

The dispatch contract is deliberately small.  A :class:`Backend` is a
name plus an optional :class:`~repro.backend.compiled.CompiledOps`
table; ``ops is None`` means "reference numpy path" and every phase
function falls straight through to its original vectorized code — the
numpy backend is therefore *the* existing implementation, not a copy.

Compiled backends only understand the closed set of kernel families the
registry ships (M4, Wendland C2/C4/C6, sinc); :func:`kernel_spec` maps a
kernel instance to a ``(kind, p1)`` pair for the compiled shape
evaluators and raises :class:`UnsupportedKernelError` for anything else
(including *subclasses* of the known kernels, whose overridden shapes
the compiled code could not see).  Phase functions treat that as "use
numpy for this phase" — a user-registered custom kernel keeps working,
just uninterpreted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "BACKEND_CHOICES",
    "Backend",
    "BackendUnavailableError",
    "UnsupportedKernelError",
    "kernel_spec",
    "backend_ops",
]

#: Valid ``ExecConfig.backend`` / ``--backend`` values.
BACKEND_CHOICES = ("numpy", "cffi", "auto")

#: Kernel-family codes understood by the compiled shape evaluators.
KIND_M4 = 0
KIND_WENDLAND_C2 = 1
KIND_WENDLAND_C4 = 2
KIND_WENDLAND_C6 = 3
KIND_SINC = 4


class BackendUnavailableError(RuntimeError):
    """The requested backend cannot be constructed on this host."""


class UnsupportedKernelError(ValueError):
    """The compiled backends have no evaluator for this kernel type."""


def kernel_spec(kernel) -> Tuple[int, float]:
    """Map a kernel instance to the compiled ``(kind, p1)`` spec.

    ``p1`` carries the one scalar parameter a family needs: the sinc
    exponent, or the Wendland 1-D/3-D shape hint.  Matching is on exact
    type so subclassed (overridden-shape) kernels are refused.
    """
    from ..kernels.cubic_spline import CubicSplineKernel
    from ..kernels.sinc import SincKernel
    from ..kernels.wendland import (
        WendlandC2Kernel,
        WendlandC4Kernel,
        WendlandC6Kernel,
    )

    t = type(kernel)
    if t is CubicSplineKernel:
        return (KIND_M4, 0.0)
    if t is WendlandC2Kernel:
        return (KIND_WENDLAND_C2, float(kernel._dim_hint))
    if t is WendlandC4Kernel:
        return (KIND_WENDLAND_C4, float(kernel._dim_hint))
    if t is WendlandC6Kernel:
        return (KIND_WENDLAND_C6, float(kernel._dim_hint))
    if t is SincKernel:
        return (KIND_SINC, float(kernel.exponent))
    raise UnsupportedKernelError(
        f"no compiled evaluator for kernel {kernel!r}; "
        f"this phase falls back to the numpy reference"
    )


@dataclass(frozen=True)
class Backend:
    """A resolved execution backend.

    ``ops`` is ``None`` for the numpy reference (phases run their
    original vectorized code) and a ``CompiledOps`` table for compiled
    backends.  ``version`` identifies the toolchain for provenance.
    """

    name: str
    ops: Optional[object]
    version: str
    detail: str = ""

    @property
    def compiled(self) -> bool:
        return self.ops is not None

    def describe(self) -> Dict[str, object]:
        """Provenance record for ``RunReport`` / bench JSON."""
        return {
            "name": self.name,
            "compiled": self.compiled,
            "version": self.version,
            "detail": self.detail,
        }


def backend_ops(backend: Optional[Backend], kernel):
    """The compiled op table to use for a kernel-evaluating phase.

    Returns ``None`` — meaning "take the numpy path" — when no backend
    was threaded through, when the backend is the numpy reference, or
    when the kernel has no compiled evaluator.
    """
    if backend is None:
        return None
    ops = backend.ops
    if ops is None:
        return None
    return ops if ops.supports(kernel) else None
