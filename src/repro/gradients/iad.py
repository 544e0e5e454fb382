"""Integral Approach to Derivatives — IAD (García-Senz et al. 2012).

SPHYNX's gradient scheme (Table 1 "IAD").  Instead of differentiating the
kernel, gradients are obtained from a linearly-consistent integral
estimator: each particle carries the inverse ``C_i`` of the local moment
matrix

    tau_i[ab] = sum_j V_j (x_j - x_i)_a (x_j - x_i)_b W(r_ij, h_i)

and the pair gradient operator becomes

    A^(i)_ij = C_i (x_j - x_i) W(r_ij, h_i).

``A`` has the same orientation as ``grad_i W`` (pointing from i toward j),
is exact for linear fields regardless of particle disorder, and — used in
the same symmetrized pair form as the standard operator — conserves linear
momentum to machine precision.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import backend_ops
from ..kernels.base import Kernel
from ..tree.box import Box
from ..tree.neighborlist import NeighborList
from ..tree.pairs import Pairs
from .kernel_gradient import PairGradients

__all__ = ["compute_iad_matrices", "iad_pair_gradients"]


def compute_iad_matrices(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    *,
    rcond: float = 1e-10,
    rows: tuple[int, int] | None = None,
    pairs: Pairs | None = None,
    backend=None,
) -> np.ndarray:
    """Per-particle IAD coefficient matrices ``C_i``, shape ``(n, dim, dim)``.

    The moment matrix is regularized by ``rcond * trace`` on the diagonal
    before inversion so isolated or degenerate particle configurations
    (e.g. perfectly coplanar neighbours in 3-D) stay finite.  ``rows``
    restricts the computation to a query-row slice, returning
    ``(hi - lo, dim, dim)`` matrices (threaded fan-out mode).  ``pairs``
    is an optional :class:`~repro.tree.pairs.Pairs` record sharing pair
    geometry and kernel values with the other phases; a compiled
    ``backend`` does geometry, ``W``, the moment sums and the
    regularized inversion in one row kernel (closed-form instead of
    LAPACK — identical to rounding, covered by the documented backend
    tolerance).
    """
    ops = backend_ops(backend, kernel)
    if ops is not None:
        lo, hi = rows if rows is not None else (0, nlist.n)
        return ops.iad_matrices(
            particles.x, particles.h, particles.m, particles.rho,
            nlist.as_int32(), box, kernel, lo, hi, rcond,
        )
    if pairs is None:
        pairs = Pairs(particles, nlist, kernel, box, rows)
    dim = particles.dim
    weights = pairs.m_j / particles.rho[pairs.j] * pairs.w_i
    # dx = x_i - x_j; tau uses (x_j - x_i) but the sign cancels in the outer
    # product, so accumulate dx (x) dx directly.
    dx = pairs.dx
    tau = pairs.reduce(dx[:, :, None] * dx[:, None, :] * weights[:, None, None])
    trace = np.einsum("kaa->k", tau)
    reg = np.maximum(trace * rcond, 1e-300)
    tau += reg[:, None, None] * np.eye(dim)[None, :, :]
    return np.linalg.inv(tau)


def iad_pair_gradients(
    c_matrices: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    dx: np.ndarray,
    w_i: np.ndarray,
    w_j: np.ndarray,
) -> PairGradients:
    """IAD pair gradients ``A^(i)_ij`` and ``A^(j)_ij``.

    ``dx`` must be ``x_i - x_j``; the operator uses ``x_j - x_i = -dx`` so
    it points toward j like the standard kernel gradient.  ``w_i`` and
    ``w_j`` are the pairs' kernel values ``W(r_ij, h_i)`` and
    ``W(r_ij, h_j)``.
    """
    towards_j = -dx
    gi = np.einsum("kab,kb->ka", c_matrices[pair_i], towards_j) * w_i[:, None]
    gj = np.einsum("kab,kb->ka", c_matrices[pair_j], towards_j) * w_j[:, None]
    return PairGradients(gi=gi, gj=gj)
