"""Noh implosion initial conditions (Noh 1987), planar one-dimensional.

Cold uniform gas streams toward the origin from both sides at unit
speed; an infinite-strength shock reflects and travels outward at
``(gamma - 1)/2``.  The exact solution (see
:mod:`repro.scenarios.analytic.noh`) makes this the sharpest shock gate
in the suite — the post-shock density is a single number, ``rho0 (gamma +
1)/(gamma - 1)``.

The domain is periodic: the gas at the wrap seam streams *apart*,
opening a (physical, for this test) vacuum gap whose edges free-stream
inward at the inflow speed.  The analytic gate therefore evaluates only
the central window ``|x| < gate_fraction * length`` at times before the
gap edges reach it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box

__all__ = ["NohConfig", "make_noh"]


@dataclass(frozen=True)
class NohConfig:
    """Parameters of the planar Noh setup."""

    n_target: int = 400
    length: float = 1.0  # half-width: the tube spans [-length, length]
    rho0: float = 1.0
    v0: float = 1.0  # inflow speed
    u0: float = 1e-6  # (near-)cold start
    gamma: float = 5.0 / 3.0

    def __post_init__(self) -> None:
        if self.n_target < 20:
            raise ValueError(f"n_target must be >= 20, got {self.n_target}")
        if min(self.length, self.rho0, self.v0, self.u0) <= 0.0:
            raise ValueError("length, rho0, v0 and u0 must be positive")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")


def make_noh(
    config: NohConfig = NohConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the planar Noh tube: uniform lattice, ``v = -sign(x) v0``."""
    n = 2 * (config.n_target // 2)  # even count keeps x = 0 particle-free
    dx = 2.0 * config.length / n
    x = (-config.length + (np.arange(n) + 0.5) * dx)[:, None]
    v = -np.sign(x) * config.v0

    m = np.full(n, config.rho0 * dx)
    u = np.full(n, config.u0)
    rho = np.full(n, config.rho0)
    h = target_smoothing_lengths(m, rho, 1, n_neighbors)
    particles = ParticleSystem(x=x, v=v, m=m, h=h, rho=rho, u=u)
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)
    box = Box(
        lo=np.array([-config.length]),
        hi=np.array([config.length]),
        periodic=np.array([True]),
    )
    return particles, box, eos
