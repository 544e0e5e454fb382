"""SPH density evaluation (Algorithm 1, step 3).

Implements both volume-element choices of Tables 1-2:

* **standard** — the classic mass-weighted summation
  ``rho_i = sum_j m_j W(r_ij, h_i)`` used by ChaNGa and SPH-flow.
* **generalized** — SPHYNX's generalized volume elements (Cabezón,
  García-Senz & Figueira 2017): a per-particle estimator ``X_i`` defines
  the volume ``V_i = X_i / kappa_i`` with ``kappa_i = sum_j X_j W_ij``, and
  ``rho_i = m_i / V_i``.  ``X = m`` recovers the standard summation
  exactly; ``X = (m / rho_prev)^k`` (0 < k <= 1) reduces the density error
  at contact discontinuities.

Both run over a gather-compatible CSR neighbour list (self-pair included);
pairs beyond the support of ``h_i`` contribute exactly zero, so a
symmetric-mode list may be reused.

On the numpy path the pair geometry and kernel values come from a
:class:`~repro.tree.pairs.Pairs` record: the driver passes the record of
its rate evaluation, so they are computed once and shared with the other
phases; without one the phase makes its own (same arithmetic).  A
compiled backend computes both inside its row kernel and keeps nothing;
it does each pair once, so it needs a symmetric list or the lower half
of one (what the compiled h iteration emits), not a gather-mode list.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import backend_ops
from ..gradients.iad import IAD_RCOND, compute_iad_matrices
from ..kernels.base import Kernel
from ..tree.box import Box
from ..tree.neighborlist import NeighborList
from ..tree.pairs import Pairs

__all__ = ["compute_density", "grad_h_terms"]


def compute_density(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    *,
    volume_elements: str = "standard",
    xmass_exponent: float = 0.7,
    rows: tuple[int, int] | None = None,
    pairs: Pairs | None = None,
    backend=None,
    return_iad: bool = False,
):
    """Update ``particles.rho`` in place and return it.

    Parameters
    ----------
    volume_elements:
        ``"standard"`` or ``"generalized"`` (Tables 1-2 "Volume Elements").
    xmass_exponent:
        Exponent ``k`` of the generalized estimator ``X = (m/rho_prev)^k``.
        Ignored for the standard summation.  The generalized estimator
        (like ``return_iad``) reads the previous ``particles.rho``, which
        must be positive: a caller without one runs a standard pass
        first, as the phase executor does.
    rows:
        Optional query-row range ``(lo, hi)``: evaluate only those
        particles and *return* the slice without touching
        ``particles.rho`` — the per-slice entry point of the phase
        executor's fan-out.
    pairs:
        Optional :class:`~repro.tree.pairs.Pairs` record of ``nlist``
        (and ``rows``), shared with the other phases of a rate
        evaluation.
    backend:
        Optional resolved :class:`repro.backend.Backend`; a compiled
        backend runs its row kernel over ``nlist`` (same results within
        the documented tolerance; the driver hands it the list cut to
        kernel support), the numpy reference falls through to the
        vectorized code unchanged.
    return_iad:
        Also return the IAD matrices of the same rows
        (:func:`~repro.gradients.iad.compute_iad_matrices`), as ``(rho,
        c_matrices)``.  Both read the previous ``particles.rho`` (the
        matrices through their ``m_j/rho_j`` weights) and the same ``W(r,
        h_i)``, so a compiled backend sums them in one op; numpy computes
        the matrices, then the density, off the one record — the bits of
        the two phases called one after the other.
    """
    if volume_elements not in ("standard", "generalized"):
        raise ValueError(
            f"volume_elements must be 'standard' or 'generalized', got {volume_elements!r}"
        )
    if (return_iad or volume_elements == "generalized") and np.any(
        particles.rho <= 0.0
    ):
        raise ValueError(
            "IAD and generalized volume elements read the previous density, "
            "which must be positive; run a standard pass first"
        )
    if volume_elements == "standard":
        wgt = particles.m
    else:
        wgt = (particles.m / particles.rho) ** float(xmass_exponent)
    lo, hi = rows if rows is not None else (0, nlist.n)
    ops = backend_ops(backend, kernel)
    c_matrices = None
    if ops is not None:
        csr = nlist.as_int32()
        if return_iad:
            s, c_matrices = ops.density_iad(
                particles.x, particles.h, wgt, particles.m, particles.rho, csr,
                box, kernel, lo, hi, IAD_RCOND,
            )
        else:
            s = ops.density_sums(
                particles.x, particles.h, wgt, csr, box, kernel, lo, hi
            )
    else:
        if pairs is None:
            pairs = Pairs(particles, nlist, kernel, box, rows)
        if return_iad:
            c_matrices = compute_iad_matrices(
                particles, nlist, kernel, box, rows=rows, pairs=pairs
            )
        s = pairs.reduce(wgt[pairs.j] * pairs.w_i)
    if volume_elements == "standard":
        rho = s
    else:
        # s = kappa_i = sum_j X_j W_ij
        if np.any(s <= 0.0):
            raise ValueError(
                "generalized volume elements: a particle has no kernel support "
                "(kappa <= 0); check neighbour lists include the self pair"
            )
        rho = particles.m[lo:hi] * s / wgt[lo:hi]
    if rows is None:
        particles.rho[:] = rho
        rho = particles.rho
    return (rho, c_matrices) if return_iad else rho


def grad_h_terms(
    particles,
    nlist: NeighborList,
    kernel: Kernel,
    box: Box | None = None,
    rows: tuple[int, int] | None = None,
    pairs: Pairs | None = None,
    backend=None,
) -> np.ndarray:
    """Grad-h correction factors ``Omega_i`` (Springel & Hernquist 2002).

    ``Omega_i = 1 + (h_i / (dim rho_i)) sum_j m_j dW/dh(r_ij, h_i)``.
    Pressure-gradient terms are divided by ``Omega_i`` to keep the scheme
    consistent when ``h`` varies in space.  ``rows`` restricts the
    evaluation to a query-row slice (threaded fan-out); ``pairs`` shares
    pair geometry with the other phases; a compiled ``backend`` sums
    ``dW/dh`` in its density row kernel.
    """
    lo, hi = rows if rows is not None else (0, nlist.n)
    ops = backend_ops(backend, kernel)
    if ops is not None:
        s = ops.density_sums(
            particles.x, particles.h, particles.m, nlist.as_int32(), box,
            kernel, lo, hi, dwdh=True,
        )
    else:
        if pairs is None:
            pairs = Pairs(particles, nlist, kernel, box, rows)
        s = pairs.reduce(pairs.m_j * pairs.dwdh_i)
    omega = 1.0 + particles.h[lo:hi] / (particles.dim * particles.rho[lo:hi]) * s
    # Guard against pathological clustering driving Omega toward 0.
    return np.clip(omega, 0.1, 10.0)
