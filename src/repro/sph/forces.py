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

On the numpy path pair geometry, gathers and per-pair temporaries are
borrowed from a :class:`~repro.sph.pair_engine.PairContext` (that of the
driver's open evaluation when given, an ephemeral one otherwise; a
compiled backend recomputes them per row and keeps nothing): the
gradients here are the same arrays the div/curl phase computed,
``v_ij``/``v . dx``/``hbar``/``mu`` are evaluated once and shared between the viscosity and the CFL
diagnostic, and every temporary is an ``out=`` write into a reused
arena buffer — the arithmetic and its order are unchanged, so results
are bitwise identical to the historical allocating implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..backend.base import backend_ops
from ..gradients.iad import compute_iad_matrices, iad_pair_gradients
from ..gradients.kernel_gradient import PairGradients, kernel_pair_gradients
from ..kernels.base import Kernel
from ..tree.box import Box
from ..tree.neighborlist import NeighborList
from .density import grad_h_terms
from .pair_engine import PairContext
from .viscosity import ViscosityParams, balsara_switch, pairwise_viscosity

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
    ctx: PairContext | None = None,
    backend=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """SPH estimates of ``div v`` and ``|curl v|`` per particle.

    ``rows`` restricts the evaluation to a query-row slice (threaded
    fan-out); ``ctx`` shares pair geometry, ``grad W`` and ``v_ij`` with
    the force loop; a compiled ``backend`` runs its own row kernel.
    """
    ops = backend_ops(backend, kernel)
    if ops is not None:
        lo, hi = rows if rows is not None else (0, nlist.n)
        dim = particles.dim
        rho = particles.rho[lo:hi]
        divsum, curlsum = ops.div_curl_sums(
            particles.x, particles.v, particles.h, particles.m,
            nlist.as_int32(), box, kernel, lo, hi,
        )
        div = -divsum / rho
        if dim == 3:
            curl = np.sqrt(np.einsum("kd,kd->k", curlsum, curlsum)) / rho
        elif dim == 2:
            curl = np.abs(curlsum[:, 2]) / rho
        else:
            curl = np.zeros(hi - lo)
        return div, curl
    pc = ctx if ctx is not None else PairContext()
    pc.bind(particles.x, nlist, box, rows=rows)
    lo, hi = pc.lo, pc.hi
    dim = particles.dim
    rho = particles.rho[lo:hi]
    grad = pc.grad_i(kernel, particles.h, dim)
    v_ij = pc.vel_ij(particles.v)
    mj = pc.m_j(particles.m)
    take = pc.arena.take
    vg = np.einsum("kd,kd->k", v_ij, grad, out=take("dc_s1", (pc.n_pairs,)))
    np.multiply(mj, vg, out=vg)
    div = -pc.reduce(vg) / rho
    if dim == 3:
        cross = np.cross(v_ij, grad)
        mc = np.multiply(mj[:, None], cross, out=take("dc_v1", (pc.n_pairs, dim)))
        curl_vec = pc.reduce(mc)
        curl = np.sqrt(np.einsum("kd,kd->k", curl_vec, curl_vec)) / rho
    elif dim == 2:
        cz = np.multiply(v_ij[:, 0], grad[:, 1], out=take("dc_s1", (pc.n_pairs,)))
        zb = np.multiply(v_ij[:, 1], grad[:, 0], out=take("dc_s2", (pc.n_pairs,)))
        np.subtract(cz, zb, out=cz)
        np.multiply(mj, cz, out=cz)
        curl = np.abs(pc.reduce(cz)) / rho
    else:
        curl = np.zeros(hi - lo)
    return div, curl


def compute_forces(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    *,
    gradients: str = "standard",
    viscosity: ViscosityParams = ViscosityParams(),
    grad_h: bool = False,
    c_matrices: np.ndarray | None = None,
    rows: Tuple[int, int] | None = None,
    omega: np.ndarray | None = None,
    balsara_f: np.ndarray | None = None,
    ctx: PairContext | None = None,
    backend=None,
) -> ForceResult:
    """Evaluate accelerations and energy rates; updates particles in place.

    Parameters
    ----------
    gradients:
        ``"standard"`` (kernel derivatives) or ``"iad"``.
    c_matrices:
        Pre-computed IAD matrices; computed here when omitted.
    grad_h:
        Apply grad-h ``Omega`` corrections to the pressure terms.
    rows:
        Optional query-row range ``(lo, hi)``: evaluate only those rows
        and return slice-sized arrays without touching
        ``particles.a``/``particles.du`` (threaded fan-out mode).  Slice mode
        requires every cross-particle input to be global: ``c_matrices``
        for IAD, ``omega`` when ``grad_h``, ``balsara_f`` when the
        viscosity uses the Balsara switch.
    omega, balsara_f:
        Pre-computed global grad-h factors / Balsara limiter values; both
        are computed here when omitted (serial path).
    ctx:
        Optional :class:`~repro.sph.pair_engine.PairContext` of an open
        evaluation; subsidiary phases evaluated here (grad-h, div/curl,
        IAD) borrow the same context.
    """
    if gradients not in ("standard", "iad"):
        raise ValueError(f"gradients must be 'standard' or 'iad', got {gradients!r}")
    if np.any(particles.rho <= 0.0):
        raise ValueError("densities must be computed (positive) before forces")

    if rows is not None:
        if gradients == "iad" and c_matrices is None:
            raise ValueError("slice mode needs pre-computed global c_matrices")
        if grad_h and omega is None:
            raise ValueError("slice mode needs pre-computed global omega")
        if viscosity.use_balsara and balsara_f is None:
            raise ValueError("slice mode needs pre-computed global balsara_f")
    ops = backend_ops(backend, kernel)
    if ops is not None:
        return _compute_forces_compiled(
            ops, particles, nlist, kernel, box, gradients, viscosity,
            grad_h, c_matrices, rows, omega, balsara_f, backend,
        )
    pc = ctx if ctx is not None else PairContext()
    pc.bind(particles.x, nlist, box, rows=rows)
    lo, hi = pc.lo, pc.hi
    n_pairs = pc.n_pairs
    dx, r = pc.dx, pc.r
    take = pc.arena.take
    dim = particles.dim
    h_i = pc.h_i(particles.h)
    h_j = pc.h_j(particles.h)

    if gradients == "standard":
        pg = kernel_pair_gradients(
            kernel, dx, r, h_i, h_j, dim, ctx=pc, h=particles.h
        )
    else:
        if c_matrices is None:
            c_matrices = compute_iad_matrices(
                particles, nlist, kernel, box, ctx=pc
            )
        pg = iad_pair_gradients(
            c_matrices, kernel, pc.i, pc.j, dx, r, h_i, h_j, dim,
            ctx=pc, h=particles.h,
        )

    if omega is None:
        omega = (
            grad_h_terms(particles, nlist, kernel, box, ctx=pc)
            if grad_h
            else np.ones(particles.n)
        )
    p_over = particles.p / (omega * particles.rho**2)

    v_ij = pc.vel_ij(particles.v)
    balsara_i = balsara_j = None
    if viscosity.use_balsara:
        if balsara_f is None:
            div_v, curl_v = velocity_divergence_curl(
                particles, nlist, kernel, box, ctx=pc
            )
            balsara_f = balsara_switch(div_v, curl_v, particles.cs, particles.h)
        balsara_i = pc.gather_scratch("f_bal_i", balsara_f, "i")
        balsara_j = pc.gather_scratch("f_bal_j", balsara_f, "j")

    # v . dx, hbar and the viscous mu feed both the artificial viscosity
    # and the CFL diagnostic below; the historical code evaluated the
    # identical expressions twice, so computing them once is bitwise-free.
    vdotr = np.einsum("kd,kd->k", v_ij, dx, out=take("f_vdotr", (n_pairs,)))
    hbar = np.add(h_i, h_j, out=take("f_hbar", (n_pairs,)))
    np.multiply(hbar, 0.5, out=hbar)
    mu = np.multiply(hbar, vdotr, out=take("f_mu", (n_pairs,)))
    denom = np.multiply(r, r, out=take("f_s1", (n_pairs,)))
    eta_h = np.multiply(hbar, viscosity.eta**2, out=take("f_s2", (n_pairs,)))
    np.multiply(eta_h, hbar, out=eta_h)
    np.add(denom, eta_h, out=denom)
    np.divide(mu, denom, out=mu)

    pi_ij = pairwise_viscosity(
        viscosity,
        dx,
        r,
        v_ij,
        h_i,
        h_j,
        pc.gather_scratch("f_rho_i", particles.rho, "i"),
        pc.gather_scratch("f_rho_j", particles.rho, "j"),
        pc.gather_scratch("f_cs_i", particles.cs, "i"),
        pc.gather_scratch("f_cs_j", particles.cs, "j"),
        balsara_i,
        balsara_j,
        vdotr=vdotr,
        hbar=hbar,
        mu=mu,
    )

    mj = pc.m_j(particles.m)
    gbar = np.add(pg.gi, pg.gj, out=take("f_gbar", (n_pairs, dim)))
    np.multiply(gbar, 0.5, out=gbar)
    po_i = pc.gather_scratch("f_po_i", p_over, "i")
    po_j = pc.gather_scratch("f_po_j", p_over, "j")
    pressure_pair = np.multiply(
        po_i[:, None], pg.gi, out=take("f_vec1", (n_pairs, dim))
    )
    pres_j = np.multiply(po_j[:, None], pg.gj, out=take("f_vec2", (n_pairs, dim)))
    np.add(pressure_pair, pres_j, out=pressure_pair)
    visc_pair = np.multiply(
        pi_ij[:, None], gbar, out=take("f_vec2", (n_pairs, dim))
    )
    np.add(pressure_pair, visc_pair, out=visc_pair)
    neg_mj = np.negative(mj, out=take("f_negmj", (n_pairs,)))
    acc_pair = np.multiply(neg_mj[:, None], visc_pair, out=visc_pair)
    a = pc.reduce(acc_pair)

    vdot_gi = np.einsum("kd,kd->k", v_ij, pg.gi, out=take("f_s1", (n_pairs,)))
    vdot_gbar = np.einsum("kd,kd->k", v_ij, gbar, out=take("f_s2", (n_pairs,)))
    np.multiply(mj, vdot_gi, out=vdot_gi)
    mpi = np.multiply(mj, pi_ij, out=take("f_s3", (n_pairs,)))
    np.multiply(mpi, vdot_gbar, out=mpi)
    du = p_over[lo:hi] * pc.reduce(vdot_gi) + 0.5 * pc.reduce(mpi)

    # Viscous signal diagnostic: max |mu_ij| enters the CFL criterion.
    # Restricted to pairs inside the true kernel support so padded
    # Verlet-skin lists (repro.tree.neighborlist.VerletNeighborCache)
    # yield exactly the fresh-list value; on exact lists the mask is a
    # no-op because the symmetric cutoff *is* the support.
    hmax = np.maximum(h_i, h_j, out=take("f_s3", (n_pairs,)))
    np.multiply(hmax, kernel.support, out=hmax)
    in_support = r <= hmax
    with np.errstate(invalid="ignore", divide="ignore"):
        mu_masked = np.where((vdotr < 0.0) & in_support, mu, 0.0)
    max_mu = float(np.abs(mu_masked).max()) if mu_masked.size else 0.0

    if rows is not None:
        return ForceResult(a=a, du=du, max_mu=max_mu)
    particles.a[:] = a
    particles.du[:] = du
    return ForceResult(a=particles.a, du=particles.du, max_mu=max_mu)


def _compute_forces_compiled(
    ops, particles, nlist, kernel, box, gradients, viscosity, grad_h,
    c_matrices, rows, omega, balsara_f, backend,
):
    """Momentum/energy off the compiled row kernel: one pass computes the
    geometry, both sides' kernel factors and gradients, and accumulates
    ``a``, the two energy sums and the viscous-signal diagnostic.  The
    n-sized glue (``p_over``, the final ``du`` combination) stays in
    numpy to match the reference expressions exactly; subsidiary phases
    (IAD, grad-h, Balsara) are delegated to their own backend-aware
    entry points."""
    lo, hi = rows if rows is not None else (0, nlist.n)
    if gradients == "iad":
        if c_matrices is None:
            c_matrices = compute_iad_matrices(
                particles, nlist, kernel, box, backend=backend
            )
    else:
        c_matrices = None
    if omega is None:
        omega = (
            grad_h_terms(particles, nlist, kernel, box, backend=backend)
            if grad_h
            else np.ones(particles.n)
        )
    p_over = particles.p / (omega * particles.rho**2)

    if not viscosity.use_balsara:
        balsara_f = None
    elif balsara_f is None:
        div_v, curl_v = velocity_divergence_curl(
            particles, nlist, kernel, box, backend=backend
        )
        balsara_f = balsara_switch(div_v, curl_v, particles.cs, particles.h)

    a, s1, s2, max_mu = ops.forces(
        x=particles.x, v=particles.v, h=particles.h, m=particles.m,
        rho=particles.rho, p_over=p_over, cs=particles.cs,
        nlist=nlist.as_int32(), box=box, kernel=kernel, lo=lo, hi=hi,
        c_matrices=c_matrices, balsara_f=balsara_f,
        alpha=viscosity.alpha, beta=viscosity.beta, eta2=viscosity.eta**2,
    )
    du = p_over[lo:hi] * s1 + 0.5 * s2
    if rows is not None:
        return ForceResult(a=a, du=du, max_mu=max_mu)
    particles.a[:] = a
    particles.du[:] = du
    return ForceResult(a=particles.a, du=particles.du, max_mu=max_mu)
