"""Per-phase compute cost model.

All compute is accounted in *pair-interaction equivalents* — the cost of
one SPH particle-pair update — and converted to seconds with a single
per-(code, test) constant kappa calibrated at the smallest measured scale
(see :mod:`repro.model.calibration`).  The relative phase weights below
are order-of-magnitude ratios of the kernels' arithmetic; the scaling
*shape* of Figures 1-3 is insensitive to their exact values because it is
driven by how per-rank work, halos and collectives scale with core count.

Per-particle work items (units of pair-equivalents):

=========  =====================================================
phase      units per particle
=========  =====================================================
A  tree    ``w_tree * log2(n_local + halo)``
B  search  ``w_search * nn``                   (the tree walk)
C  h adapt ``w_search * nn * (h_iterations - 1)``  (re-walks)
D  IAD     ``w_iad * nn``                      (IAD gradients only)
E  density ``w_density * nn``                  (x1.4 generalized VE)
F  EOS     ``w_scalar``
G  forces  ``w_forces * nn``
H  aux     ``w_aux * nn``                      (div/curl, diagnostics)
I  gravity ``w_gravity * log2(N) * order_mult * density_boost``
J  update  ``w_scalar``
=========  =====================================================

Per-particle *weights* for load-balance purposes are the same expressions
evaluated per particle (the density boost makes Evrard's core heavier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PhaseWeights", "GRAVITY_ORDER_MULT", "particle_work_units"]

#: Relative M2P cost by multipole order (moment tensor sizes 1/10/20/35
#: plus the matching derivative tensors).
GRAVITY_ORDER_MULT = {None: 0.0, 0: 0.6, 2: 1.0, 3: 1.6, 4: 2.6}


@dataclass(frozen=True)
class PhaseWeights:
    """Relative compute weights (pair-interaction equivalents)."""

    tree: float = 12.0  # per particle per log2(n)
    search: float = 1.2  # per candidate pair per h-iteration
    h_iterations: float = 2.0
    iad: float = 1.6  # per pair: moment accumulation + 3x3 inverse share
    density: float = 1.0  # the definitional unit
    generalized_ve_factor: float = 1.4
    scalar: float = 4.0  # per particle: EOS, update, floors
    forces: float = 2.6  # per pair: momentum + energy + viscosity
    aux: float = 0.3  # per pair: div/curl estimates, diagnostics
    gravity: float = 28.0  # per particle per log2(N), quadrupole baseline
    gravity_density_exponent: float = 0.35  # boost ~ (rho/rhobar)^exp


def particle_work_units(
    weights: PhaseWeights,
    *,
    mean_neighbors: float,
    n_total: int,
    density_factor: np.ndarray,
    use_iad: bool,
    generalized_ve: bool,
    gravity_order: int | None,
) -> dict[str, np.ndarray]:
    """Per-particle work units for each Algorithm-1 phase.

    Returns a dict of per-particle arrays keyed by phase letter; the
    cluster model reduces them per rank with ``bincount``.
    """
    n = density_factor.shape[0]
    nn = mean_neighbors
    ones = np.ones(n)
    logn = max(np.log2(max(n_total, 2)), 1.0)
    out: dict[str, np.ndarray] = {}
    out["A"] = weights.tree * logn * ones
    out["B"] = weights.search * nn * ones
    out["C"] = weights.search * nn * max(weights.h_iterations - 1.0, 0.0) * ones
    out["D"] = (weights.iad * nn * ones) if use_iad else np.zeros(n)
    dens_w = weights.density * nn
    if generalized_ve:
        dens_w *= weights.generalized_ve_factor
    out["E"] = dens_w * ones
    out["F"] = weights.scalar * ones
    out["G"] = weights.forces * nn * ones
    out["H"] = weights.aux * nn * ones
    if gravity_order is not None:
        boost = np.maximum(density_factor, 1e-3) ** weights.gravity_density_exponent
        out["I"] = weights.gravity * logn * GRAVITY_ORDER_MULT[gravity_order] * boost
    else:
        out["I"] = np.zeros(n)
    out["J"] = weights.scalar * ones
    return out
