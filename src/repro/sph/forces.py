"""Momentum and energy equations (Algorithm 1, step 3).

One fused pass over the pair list evaluates the pressure-gradient
acceleration and the internal-energy rate:

    dv_i/dt = - sum_j m_j [ P_i/(Omega_i rho_i^2) G^(i)_ij
                          + P_j/(Omega_j rho_j^2) G^(j)_ij
                          + Pi_ij Gbar_ij ]
    du_i/dt =   P_i/(Omega_i rho_i^2) sum_j m_j v_ij . G^(i)_ij
              + 1/2 sum_j m_j Pi_ij v_ij . Gbar_ij

where ``G`` is either the standard kernel gradient or the IAD operator
(Tables 1-2 "Gradients"), ``Pi_ij`` the Monaghan artificial viscosity and
``Omega`` the optional grad-h factors.  Because ``G_ij = -G_ji`` for both
operators, the pairwise exchange conserves linear momentum exactly (and
angular momentum for the standard operator, which is central).

On the numpy path pair geometry and the per-pair products come from a
:class:`~repro.tree.pairs.Pairs` record (the driver's rate evaluation's
when given, the phase's own otherwise; a compiled backend recomputes
them once per pair of a symmetric list or its lower half, and keeps
nothing): the gradients here are the same arrays
the div/curl phase computed, and ``v . dx``/``hbar``/``mu`` are
evaluated once and shared between the viscosity and the CFL diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..backend.base import backend_ops
from ..gradients.iad import iad_pair_gradients
from ..gradients.kernel_gradient import PairGradients
from ..kernels.base import Kernel
from ..tree.box import Box
from ..tree.neighborlist import NeighborList
from ..tree.pairs import Pairs
from .viscosity import ViscosityParams, pairwise_viscosity

__all__ = ["ForceResult", "compute_forces", "velocity_divergence_curl"]


@dataclass(frozen=True)
class ForceResult:
    """Output of the force loop."""

    a: np.ndarray
    du: np.ndarray
    max_mu: float  # viscous signal speed diagnostic for the time step


def velocity_divergence_curl(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    rows: Tuple[int, int] | None = None,
    pairs: Pairs | None = None,
    backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """SPH estimates of ``div v`` and ``|curl v|`` per particle.

    ``rows`` restricts the evaluation to a query-row slice (threaded
    fan-out); ``pairs`` shares pair geometry, ``grad W`` and ``v_ij`` with
    the force loop; a compiled ``backend`` runs its own row kernel.
    """
    lo, hi = rows if rows is not None else (0, nlist.n)
    dim = particles.dim
    ops = backend_ops(backend, kernel)
    if ops is not None:
        divsum, curlsum = ops.div_curl_sums(
            particles.x, particles.v, particles.h, particles.m,
            nlist.as_int32(), box, kernel, lo, hi,
        )
        if dim == 2:
            curlsum = curlsum[:, 2]
    else:
        if pairs is None:
            pairs = Pairs(particles, nlist, kernel, box, rows)
        grad, v_ij, mj = pairs.grad_i, pairs.v_ij, pairs.m_j
        divsum = pairs.reduce(mj * np.einsum("kd,kd->k", v_ij, grad))
        if dim == 3:
            cross = np.cross(v_ij, grad)
            cross *= mj[:, None]
            curlsum = pairs.reduce(cross)
        elif dim == 2:
            cz = v_ij[:, 0] * grad[:, 1] - v_ij[:, 1] * grad[:, 0]
            curlsum = pairs.reduce(mj * cz)
    rho = particles.rho[lo:hi]
    div = -divsum / rho
    if dim == 3:
        curl = np.sqrt(np.einsum("kd,kd->k", curlsum, curlsum)) / rho
    elif dim == 2:
        curl = np.abs(curlsum) / rho
    else:
        curl = np.zeros(hi - lo)
    return div, curl


def compute_forces(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    *,
    viscosity: ViscosityParams = ViscosityParams(),
    c_matrices: np.ndarray | None = None,
    rows: Tuple[int, int] | None = None,
    omega: np.ndarray | None = None,
    balsara_f: np.ndarray | None = None,
    pairs: Pairs | None = None,
    backend=None,
) -> ForceResult:
    """Evaluate accelerations and energy rates.

    The phase reads what the sub-passes before it produced and computes
    none of them itself; the phase executor runs them in order
    (:class:`repro.core.phase_executor.PhaseExecutor`).

    Parameters
    ----------
    c_matrices:
        The IAD matrices of every particle
        (:func:`~repro.gradients.iad.compute_iad_matrices`): the
        gradients are IAD when given, kernel derivatives otherwise.
    omega:
        The grad-h factors of every particle
        (:func:`~repro.sph.density.grad_h_terms`), applied to the
        pressure terms when given.
    balsara_f:
        The Balsara limiter of every particle
        (:func:`~repro.sph.viscosity.balsara_switch`), which scales the
        viscosity when given; required when ``viscosity.use_balsara``.
    rows:
        Optional query-row range ``(lo, hi)``: evaluate only those rows
        and return slice-sized arrays without touching
        ``particles.a``/``particles.du`` (the executor's per-slice entry
        point).  Without it the whole list is evaluated and
        ``particles.a``/``particles.du`` are updated in place.
    pairs:
        Optional :class:`~repro.tree.pairs.Pairs` record of ``nlist`` (and
        ``rows``), shared with the other phases of a rate evaluation.
    backend:
        Optional resolved :class:`repro.backend.Backend`; a compiled
        backend runs one row kernel for the whole pair pass.  The n-sized
        glue (``p_over``, the final ``du`` combination) stays in numpy on
        either path.
    """
    if np.any(particles.rho <= 0.0):
        raise ValueError("densities must be computed (positive) before forces")
    if viscosity.use_balsara and balsara_f is None:
        raise ValueError("a Balsara viscosity needs balsara_f (balsara_switch)")
    ops = backend_ops(backend, kernel)
    if ops is None and pairs is None:
        pairs = Pairs(particles, nlist, kernel, box, rows)
    rho2 = particles.rho**2
    p_over = particles.p / (rho2 if omega is None else omega * rho2)

    lo, hi = rows if rows is not None else (0, nlist.n)
    if ops is not None:
        a, s1, s2, max_mu = ops.forces(
            x=particles.x, v=particles.v, h=particles.h, m=particles.m,
            rho=particles.rho, p_over=p_over, cs=particles.cs,
            nlist=nlist.as_int32(), box=box, kernel=kernel, lo=lo, hi=hi,
            c_matrices=c_matrices, balsara_f=balsara_f,
            alpha=viscosity.alpha, beta=viscosity.beta, eta2=viscosity.eta**2,
        )
    else:
        a, s1, s2, max_mu = _pair_sums(
            particles, pairs, viscosity, c_matrices, p_over, balsara_f
        )
    du = p_over[lo:hi] * s1 + 0.5 * s2
    if rows is not None:
        return ForceResult(a=a, du=du, max_mu=max_mu)
    particles.a[:] = a
    particles.du[:] = du
    return ForceResult(a=particles.a, du=particles.du, max_mu=max_mu)


def _pair_sums(particles, pairs, viscosity, c_matrices, p_over, balsara_f):
    """The numpy pair pass of :func:`compute_forces`: per-row ``a``, the
    two energy sums ``sum m_j v_ij . G^(i)`` and ``sum m_j Pi_ij v_ij .
    Gbar``, and the viscous-signal diagnostic."""
    i, j = pairs.i, pairs.j
    dx, r = pairs.dx, pairs.r
    h_i, h_j = pairs.h_i, pairs.h_j
    if c_matrices is None:
        pg = PairGradients(gi=pairs.grad_i, gj=pairs.grad_j)
    else:
        pg = iad_pair_gradients(
            c_matrices, i, j, dx, pairs.w_i, pairs.w_j, rev=pairs.rev
        )
    v_ij = pairs.v_ij

    # v . dx, hbar and the viscous mu feed both the artificial viscosity
    # and the CFL diagnostic below.
    vdotr = np.einsum("kd,kd->k", v_ij, dx)
    hbar = h_i + h_j
    hbar *= 0.5
    mu = hbar * vdotr
    mu /= r * r + hbar * viscosity.eta**2 * hbar
    pi_ij = pairwise_viscosity(
        viscosity, dx, r, v_ij, h_i, h_j,
        particles.rho[i], particles.rho[j], particles.cs[i], particles.cs[j],
        None if balsara_f is None else balsara_f[i],
        None if balsara_f is None else balsara_f[j],
        vdotr=vdotr, hbar=hbar, mu=mu,
    )

    # Fresh temporaries updated in place: half the large short-lived
    # allocations of this pass, which the heap otherwise hands back to
    # the OS and faults in again every step (~2 000 minor faults a step
    # on patch-steady's list, against ~45).  Each update is the same IEEE
    # operation as its out-of-place spelling.
    mj = pairs.m_j
    gbar = pg.gi + pg.gj
    gbar *= 0.5
    acc = p_over[i][:, None] * pg.gi
    acc += p_over[j][:, None] * pg.gj
    acc += pi_ij[:, None] * gbar
    acc *= -mj[:, None]
    a = pairs.reduce(acc)
    vg = np.einsum("kd,kd->k", v_ij, pg.gi)
    vg *= mj
    s1 = pairs.reduce(vg)
    mpi = mj * pi_ij
    mpi *= np.einsum("kd,kd->k", v_ij, gbar)
    s2 = pairs.reduce(mpi)

    # Viscous signal diagnostic: max |mu_ij| enters the CFL criterion.
    # Restricted to pairs inside the true kernel support so padded
    # Verlet-skin lists (repro.tree.neighborlist.VerletNeighborCache)
    # yield exactly the fresh-list value; on exact lists the mask is a
    # no-op because the symmetric cutoff *is* the support.
    in_support = r <= np.maximum(h_i, h_j) * pairs.kernel.support
    with np.errstate(invalid="ignore", divide="ignore"):
        mu_masked = np.where((vdotr < 0.0) & in_support, mu, 0.0)
    max_mu = float(np.abs(mu_masked).max()) if mu_masked.size else 0.0
    return a, s1, s2, max_mu
