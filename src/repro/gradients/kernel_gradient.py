"""Standard kernel-derivative gradients (ChaNGa, SPH-flow; Table 1).

The pair gradient operator used by the momentum and energy equations is
``G^(i)_ij ~ grad_i W(r_ij, h_i)`` and ``G^(j)_ij ~ grad_i W(r_ij, h_j)``;
the symmetrized average drives the artificial-viscosity terms.  Both
operators point from i toward j (the direction in which W decreases seen
from i), and satisfy ``G_ij = -G_ji`` exactly, which is what makes the
pairwise momentum exchange conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels.base import Kernel

__all__ = ["PairGradients", "kernel_pair_gradients"]


@dataclass(frozen=True)
class PairGradients:
    """Per-pair gradient operators for the force loop.

    Attributes
    ----------
    gi:
        ``G^(i)_ij`` evaluated with the i-side smoothing length, shape
        ``(n_pairs, dim)``.
    gj:
        ``G^(j)_ij`` evaluated with the j-side smoothing length.
    """

    gi: np.ndarray
    gj: np.ndarray

    @property
    def mean(self) -> np.ndarray:
        """Symmetrized operator ``(G^(i) + G^(j)) / 2``."""
        return 0.5 * (self.gi + self.gj)


def kernel_pair_gradients(
    kernel: Kernel,
    dx: np.ndarray,
    r: np.ndarray,
    h_i: np.ndarray,
    h_j: np.ndarray,
    dim: int,
) -> PairGradients:
    """Standard SPH pair gradients from the kernel's radial derivative.

    ``dx`` must be ``x_i - x_j`` (minimum image already applied).
    """
    gi = kernel.gradient(dx, r, h_i, dim)
    gj = kernel.gradient(dx, r, h_j, dim)
    return PairGradients(gi=gi, gj=gj)
