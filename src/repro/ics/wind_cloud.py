"""Wind–cloud interaction initial conditions, 3-D.

A dense spherical cloud at rest, embedded in pressure equilibrium inside
a uniform wind blowing along ``+x`` through a periodic box — the classic
"blob" mixing problem (Agertz et al. 2007).  There is no analytic
solution; the scenario is gated by its conserved-quantity invariants
(mass exactly, the *nonzero* wind momentum to roundoff) and its golden
master.

Equal-mass discretization: the cloud lattice pitch is ``contrast^(-1/3)``
times the ambient pitch, so ``m = rho * cell_volume`` matches across the
density jump up to strip rounding (carried exactly by the variable-mass
particle container).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box
from .lattice import cubic_lattice

__all__ = ["WindCloudConfig", "make_wind_cloud"]


@dataclass(frozen=True)
class WindCloudConfig:
    """Parameters of the wind–cloud (blob) setup."""

    nx: int = 14  # ambient lattice cells per axis
    length: float = 1.0  # periodic box edge
    rho_ambient: float = 1.0
    density_contrast: float = 5.0  # rho_cloud / rho_ambient
    cloud_radius: float = 0.15
    cloud_center: tuple[float, float, float] = (0.35, 0.5, 0.5)
    p0: float = 0.6  # uniform pressure (equilibrium)
    mach: float = 1.5  # wind speed in ambient sound speeds
    gamma: float = 5.0 / 3.0

    def __post_init__(self) -> None:
        if self.nx < 6:
            raise ValueError(f"nx must be >= 6, got {self.nx}")
        if min(self.length, self.rho_ambient, self.p0, self.mach) <= 0.0:
            raise ValueError("length, rho_ambient, p0 and mach must be positive")
        if self.density_contrast <= 1.0:
            raise ValueError("density_contrast must exceed 1")
        if not 0.0 < self.cloud_radius < 0.5 * self.length:
            raise ValueError("cloud_radius must fit inside the box")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")

    @property
    def wind_speed(self) -> float:
        return self.mach * np.sqrt(self.gamma * self.p0 / self.rho_ambient)


def make_wind_cloud(
    config: WindCloudConfig = WindCloudConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the blob test: ambient wind lattice + dense cloud lattice."""
    big_l = config.length
    dx = big_l / config.nx
    center = np.asarray(config.cloud_center, dtype=np.float64) * big_l

    ambient = cubic_lattice([config.nx] * 3, [0.0] * 3, [big_l] * 3)
    r_amb = np.sqrt(((ambient - center) ** 2).sum(axis=1))
    ambient = ambient[r_amb > config.cloud_radius]

    rho_cl = config.density_contrast * config.rho_ambient
    pitch_cl = dx / config.density_contrast ** (1.0 / 3.0)
    # Extent = n_cl * pitch_cl exactly, so the realized cell volume (and
    # with it m = rho * cell_volume) matches the declared pitch.
    n_cl = max(2, int(np.ceil(2.0 * (config.cloud_radius + pitch_cl) / pitch_cl)))
    span = 0.5 * n_cl * pitch_cl
    cloud = cubic_lattice(
        [n_cl] * 3, (center - span).tolist(), (center + span).tolist()
    )
    r_cl = np.sqrt(((cloud - center) ** 2).sum(axis=1))
    cloud = cloud[r_cl <= config.cloud_radius]
    if cloud.shape[0] == 0:
        raise ValueError(
            "cloud under-resolved: no lattice point inside cloud_radius"
        )

    x = np.concatenate([ambient, cloud])
    n_amb = ambient.shape[0]
    m = np.concatenate(
        [
            np.full(n_amb, config.rho_ambient * dx**3),
            np.full(cloud.shape[0], rho_cl * pitch_cl**3),
        ]
    )
    rho = np.concatenate(
        [np.full(n_amb, config.rho_ambient), np.full(cloud.shape[0], rho_cl)]
    )
    v = np.zeros_like(x)
    v[:n_amb, 0] = config.wind_speed

    u = config.p0 / ((config.gamma - 1.0) * rho)
    h = target_smoothing_lengths(m, rho, 3, n_neighbors)
    particles = ParticleSystem(x=x, v=v, m=m, h=h, rho=rho, u=u)
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)
    box = Box(
        lo=np.zeros(3),
        hi=np.full(3, big_l),
        periodic=np.ones(3, dtype=bool),
    )
    return particles, box, eos
