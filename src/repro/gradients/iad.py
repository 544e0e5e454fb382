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
from .kernel_gradient import PairGradients

__all__ = ["compute_iad_matrices", "iad_pair_gradients"]


def _ephemeral_ctx():
    # Imported lazily: repro.sph.forces imports this module at load time,
    # so a top-level import of repro.sph here would be circular.
    from ..sph.pair_engine import PairContext

    return PairContext()


def compute_iad_matrices(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    *,
    rcond: float = 1e-10,
    rows: tuple[int, int] | None = None,
    ctx=None,
    backend=None,
) -> np.ndarray:
    """Per-particle IAD coefficient matrices ``C_i``, shape ``(n, dim, dim)``.

    The moment matrix is regularized by ``rcond * trace`` on the diagonal
    before inversion so isolated or degenerate particle configurations
    (e.g. perfectly coplanar neighbours in 3-D) stay finite.  ``rows``
    restricts the computation to a query-row slice, returning
    ``(hi - lo, dim, dim)`` matrices (threaded fan-out mode).  ``ctx`` is an
    optional :class:`~repro.sph.pair_engine.PairContext` sharing pair
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
    pc = ctx if ctx is not None else _ephemeral_ctx()
    pc.bind(particles.x, nlist, box, rows=rows)
    dim = particles.dim
    w = pc.w_i(kernel, particles.h, dim)
    vol_j = pc.gather_scratch("iad_rho_j", particles.rho, "j")
    np.divide(pc.m_j(particles.m), vol_j, out=vol_j)
    # dx = x_i - x_j; tau uses (x_j - x_i) but the sign cancels in the outer
    # product, so accumulate dx (x) dx directly.
    weights = np.multiply(vol_j, w, out=vol_j)
    dx = pc.dx
    outer = np.multiply(
        dx[:, :, None],
        dx[:, None, :],
        out=pc.arena.take("iad_outer", (pc.n_pairs, dim, dim)),
    )
    np.multiply(outer, weights[:, None, None], out=outer)
    tau = pc.reduce(outer)
    trace = np.einsum("kaa->k", tau)
    reg = np.maximum(trace * rcond, 1e-300)
    tau += reg[:, None, None] * np.eye(dim)[None, :, :]
    return np.linalg.inv(tau)


def iad_pair_gradients(
    c_matrices: np.ndarray,
    kernel: Kernel,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    dx: np.ndarray,
    r: np.ndarray,
    h_i: np.ndarray,
    h_j: np.ndarray,
    dim: int,
    ctx=None,
    h: np.ndarray | None = None,
) -> PairGradients:
    """IAD pair gradients ``A^(i)_ij`` and ``A^(j)_ij``.

    ``dx`` must be ``x_i - x_j``; the operator uses ``x_j - x_i = -dx`` so
    it points toward j like the standard kernel gradient.  With a bound
    ``ctx`` (and the full ``h`` it gathers from), the kernel values come
    out of the shared product memo and all temporaries live in reused
    arena buffers.
    """
    if ctx is not None and h is not None:
        take = ctx.arena.take
        wi = ctx.w_i(kernel, h, dim)
        wj = ctx.w_j(kernel, h, dim)
        n_pairs = ctx.n_pairs
        towards_j = np.negative(dx, out=take("iad_negdx", (n_pairs, dim)))
        cg = take("iad_cg", (n_pairs, dim, dim))
        np.take(c_matrices, pair_i, axis=0, out=cg)
        gi = np.einsum(
            "kab,kb->ka", cg, towards_j, out=take("iad_gi", (n_pairs, dim))
        )
        np.multiply(gi, wi[:, None], out=gi)
        np.take(c_matrices, pair_j, axis=0, out=cg)
        gj = np.einsum(
            "kab,kb->ka", cg, towards_j, out=take("iad_gj", (n_pairs, dim))
        )
        np.multiply(gj, wj[:, None], out=gj)
        return PairGradients(gi=gi, gj=gj)
    wi = kernel.value(r, h_i, dim)
    wj = kernel.value(r, h_j, dim)
    towards_j = -dx
    gi = np.einsum("kab,kb->ka", c_matrices[pair_i], towards_j) * wi[:, None]
    gj = np.einsum("kab,kb->ka", c_matrices[pair_j], towards_j) * wj[:, None]
    return PairGradients(gi=gi, gj=gj)
