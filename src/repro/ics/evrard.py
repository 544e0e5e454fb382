"""Evrard collapse test (Evrard 1988; Section 5.1 of the paper).

An initially static, cold gas sphere with the density profile of Eq. (2),

    rho(r) = M / (2 pi R^2 r)     for r <= R,

total mass M = 1, radius R = 1, specific internal energy u0 = 0.05 and an
ideal-gas EOS with gamma = 5/3 (the configuration of Cabezón+ 2017 that
the paper follows).  Gravitational energy (~ -1 in G=M=R=1 units)
dominates the thermal energy (0.05), so the cloud collapses, bounces at
the center and launches an outward shock — exercising self-gravity and
shock capturing at once.

Particles are placed by radially stretching a uniform lattice sphere so
equal-mass particles sample the 1/r profile: a uniform-sphere point at
fractional radius s encloses mass fraction s^3; the target profile
encloses (r/R)^2, so r(s) = R s^{3/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box
from .lattice import lattice_sphere

__all__ = ["EvrardConfig", "evrard_density_profile", "make_evrard"]


@dataclass(frozen=True)
class EvrardConfig:
    """Parameters of the Evrard collapse setup."""

    n_target: int = 100_000
    total_mass: float = 1.0
    radius: float = 1.0
    u0: float = 0.05
    gamma: float = 5.0 / 3.0
    g_const: float = 1.0

    def __post_init__(self) -> None:
        if self.n_target < 10:
            raise ValueError(f"n_target must be >= 10, got {self.n_target}")
        if min(self.total_mass, self.radius, self.u0) <= 0.0:
            raise ValueError("total_mass, radius and u0 must be positive")


def evrard_density_profile(
    r: np.ndarray, config: EvrardConfig = EvrardConfig()
) -> np.ndarray:
    """Eq. (2): ``rho(r) = M/(2 pi R^2 r)`` inside R, zero outside."""
    r = np.asarray(r, dtype=np.float64)
    with np.errstate(divide="ignore"):
        inside = config.total_mass / (
            2.0 * np.pi * config.radius**2 * np.maximum(r, 1e-300)
        )
    return np.where((r <= config.radius) & (r > 0.0), inside, 0.0)


def make_evrard(
    config: EvrardConfig = EvrardConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the Evrard sphere (Table 5, second row).

    Returns the particle system, an open bounding box with expansion room
    for the post-bounce shock, and the gamma = 5/3 ideal-gas EOS.
    """
    base = lattice_sphere(config.n_target, radius=1.0)
    s = np.sqrt(np.einsum("ij,ij->i", base, base))
    # Drop the (possible) exact-center point: the stretch map is singular
    # there and a particle at r=0 contributes no volume anyway.
    keep = s > 0.0
    base = base[keep]
    s = s[keep]
    n = base.shape[0]
    # Uniform-sphere mass fraction s^3 == target fraction (r/R)^2.
    r_new = config.radius * s**1.5
    x = base * (r_new / s)[:, None]

    m = np.full(n, config.total_mass / n)
    rho = evrard_density_profile(r_new, config)
    h = target_smoothing_lengths(m, rho, 3, n_neighbors)
    u = np.full(n, config.u0)

    particles = ParticleSystem(
        x=x, v=np.zeros_like(x), m=m, h=h, rho=rho, u=u
    )
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)

    pad = 2.0 * config.radius
    box = Box(
        lo=np.full(3, -config.radius - pad),
        hi=np.full(3, config.radius + pad),
        periodic=np.zeros(3, dtype=bool),
    )
    return particles, box, eos
