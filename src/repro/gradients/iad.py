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

__all__ = ["IAD_RCOND", "compute_iad_matrices", "iad_pair_gradients"]

#: Diagonal regularisation of the moment matrices, relative to the trace.
IAD_RCOND = 1e-10


def compute_iad_matrices(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    *,
    rcond: float = IAD_RCOND,
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
    regularized inversion in its density op (closed-form instead of
    LAPACK — identical to rounding, covered by the documented backend
    tolerance; :func:`~repro.sph.density.compute_density` with
    ``return_iad`` takes the density from the same pass).
    """
    ops = backend_ops(backend, kernel)
    if ops is not None:
        lo, hi = rows if rows is not None else (0, nlist.n)
        m = particles.m
        return ops.density_iad(
            particles.x, particles.h, m, m, particles.rho, nlist.as_int32(),
            box, kernel, lo, hi, rcond,
        )[1]
    if pairs is None:
        pairs = Pairs(particles, nlist, kernel, box, rows)
    dim = particles.dim
    tau = _moments(pairs, pairs.m_j / particles.rho[pairs.j] * pairs.w_i)
    trace = np.einsum("kaa->k", tau)
    reg = np.maximum(trace * rcond, 1e-300)
    tau += reg[:, None, None] * np.eye(dim)[None, :, :]
    return np.linalg.inv(tau)


def _moments(pairs: Pairs, weights: np.ndarray) -> np.ndarray:
    """``tau`` before regularisation: per row, ``sum weights * dx (x) dx``.

    ``dx = x_i - x_j``; tau uses ``x_j - x_i`` but the sign cancels in the
    outer product.  Only the ``dim(dim+1)/2`` distinct entries are formed
    and summed, then mirrored: ``dx_a * dx_b`` is ``dx_b * dx_a`` to the
    bit, and every entry is summed in pair order either way."""
    dim = pairs.dim
    dx = np.ascontiguousarray(pairs.dx.T)  # one contiguous row per axis
    tau = np.empty((pairs.hi - pairs.lo, dim, dim))
    for a, b in zip(*np.triu_indices(dim)):
        entry = dx[a] * dx[b]
        entry *= weights
        tau[:, a, b] = tau[:, b, a] = pairs.reduce(entry)
    return tau


def iad_pair_gradients(
    c_matrices: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    dx: np.ndarray,
    w_i: np.ndarray,
    w_j: np.ndarray,
    rev: np.ndarray | None = None,
) -> PairGradients:
    """IAD pair gradients ``A^(i)_ij`` and ``A^(j)_ij``.

    ``dx`` must be ``x_i - x_j``; the operator uses ``x_j - x_i = -dx`` so
    it points toward j like the standard kernel gradient.  ``w_i`` and
    ``w_j`` are the pairs' kernel values ``W(r_ij, h_i)`` and
    ``W(r_ij, h_j)``.  With the list's reverse-pair index ``rev``
    (:meth:`~repro.tree.neighborlist.NeighborList.transpose`), ``A^(j)_ij``
    is ``-A^(i)`` of the reverse pair: its ``dx`` is ``-dx`` to the bit, and
    negating an operand of the product negates the result exactly.
    """
    towards_j = -dx
    gi = np.einsum("kab,kb->ka", np.take(c_matrices, pair_i, axis=0), towards_j)
    gi *= w_i[:, None]
    if rev is not None:
        gj = gi.take(rev, axis=0)
        return PairGradients(gi=gi, gj=np.negative(gj, out=gj))
    gj = np.einsum("kab,kb->ka", np.take(c_matrices, pair_j, axis=0), towards_j)
    gj *= w_j[:, None]
    return PairGradients(gi=gi, gj=gj)
