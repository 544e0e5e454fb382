"""Sod shock tube initial conditions (Sod 1978), one-dimensional.

The canonical Riemann problem: ``(rho, p) = (1, 1)`` on the left and
``(0.125, 0.1)`` on the right of the interface, ``gamma = 1.4``.  The
tube is periodic, so it actually carries *two* discontinuities — the Sod
interface at ``x_interface`` and its mirror at the wrap seam — and the
analytic-error gate is evaluated in the central window that neither the
seam waves nor the primary waves' periodic images reach by gate time.

Particles have (near-)equal masses: each side is an independent
cell-centered lattice whose pitch encodes its density, the standard SPH
discretization of a density jump.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box

__all__ = ["SodConfig", "make_sod"]


@dataclass(frozen=True)
class SodConfig:
    """Parameters of the Sod shock-tube setup."""

    n_target: int = 450
    x_min: float = -0.5
    x_interface: float = 0.5
    x_max: float = 1.5
    rho_l: float = 1.0
    p_l: float = 1.0
    rho_r: float = 0.125
    p_r: float = 0.1
    gamma: float = 1.4

    def __post_init__(self) -> None:
        if self.n_target < 20:
            raise ValueError(f"n_target must be >= 20, got {self.n_target}")
        if not self.x_min < self.x_interface < self.x_max:
            raise ValueError("require x_min < x_interface < x_max")
        if min(self.rho_l, self.rho_r, self.p_l, self.p_r) <= 0.0:
            raise ValueError("densities and pressures must be positive")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")


def make_sod(
    config: SodConfig = SodConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the 1-D Sod tube: two lattices, equal-mass particles."""
    len_l = config.x_interface - config.x_min
    len_r = config.x_max - config.x_interface
    mass_l = config.rho_l * len_l
    mass_r = config.rho_r * len_r
    n_l = max(10, round(config.n_target * mass_l / (mass_l + mass_r)))
    n_r = max(10, config.n_target - n_l)

    def lattice(lo: float, hi: float, count: int) -> np.ndarray:
        return lo + (np.arange(count) + 0.5) * (hi - lo) / count

    x_l = lattice(config.x_min, config.x_interface, n_l)
    x_r = lattice(config.x_interface, config.x_max, n_r)
    x = np.concatenate([x_l, x_r])[:, None]
    n = x.shape[0]

    m = np.concatenate([np.full(n_l, mass_l / n_l), np.full(n_r, mass_r / n_r)])
    rho = np.concatenate([np.full(n_l, config.rho_l), np.full(n_r, config.rho_r)])
    p = np.concatenate([np.full(n_l, config.p_l), np.full(n_r, config.p_r)])
    u = p / ((config.gamma - 1.0) * rho)
    h = target_smoothing_lengths(m, rho, 1, n_neighbors)

    particles = ParticleSystem(
        x=x, v=np.zeros_like(x), m=m, h=h, rho=rho, u=u
    )
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)
    box = Box(
        lo=np.array([config.x_min]),
        hi=np.array([config.x_max]),
        periodic=np.array([True]),
    )
    return particles, box, eos
