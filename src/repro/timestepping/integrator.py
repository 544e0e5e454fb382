"""Kick-drift-kick leapfrog integration (Algorithm 1, step 6).

The symplectic second-order integrator common to the parent codes.  The
driver owns force evaluation; this module provides the two half-kicks and
the drift as separate in-place operations so the step can interleave them
with the tree/neighbour/force phases (and so individual-time-step drivers
can kick subsets):

    kick(dt/2)  ->  drift(dt)  ->  [recompute forces]  ->  kick(dt/2)

Internal energy advances alongside velocity with the same half-step
splitting, keeping (v, u) consistent to second order.
"""

from __future__ import annotations

import numpy as np

from ..tree.box import Box

__all__ = ["kick", "drift", "apply_energy_floor"]


def kick(particles, dt: float, mask: np.ndarray | None = None) -> None:
    """Half-kick: ``v += a dt`` and ``u += du dt`` (in place).

    ``mask`` restricts the update to active particles (individual
    time-step rungs); ``None`` updates everything.
    """
    if mask is None:
        particles.v += particles.a * dt
        particles.u += particles.du * dt
    else:
        particles.v[mask] += particles.a[mask] * dt
        particles.u[mask] += particles.du[mask] * dt


def drift(particles, dt: float, box: Box | None = None) -> None:
    """Drift: ``x += v dt`` (in place), wrapping periodic axes."""
    particles.x += particles.v * dt
    if box is not None and bool(np.any(box.periodic)):
        particles.x[:] = box.wrap(particles.x)


def apply_energy_floor(particles, u_floor: float = 1e-12) -> int:
    """Clamp internal energies at a positive floor; returns #clamped.

    Strong rarefactions can transiently drive ``u`` negative at second
    order; production codes clamp rather than abort.
    """
    below = particles.u < u_floor
    count = int(np.count_nonzero(below))
    if count:
        particles.u[below] = u_floor
    return count
