"""Gresho–Chan vortex initial conditions (Gresho & Chan 1990), 2-D.

A triangular azimuthal velocity profile in exact centrifugal balance
with its pressure field: the configuration is a *steady state* of the
Euler equations, so the analytic solution at any time is the initial
condition itself.  The gate therefore measures how well the scheme
*preserves* the vortex — the classic probe of angular-momentum transport
by artificial viscosity (which is why the scenario default turns on the
Balsara shear limiter).

Profiles (``p0`` is the pressure at the origin, default 5):

    v_phi(r) = 5 r            (r < 0.2)
             = 2 - 5 r        (0.2 <= r < 0.4)
             = 0              (r >= 0.4)

    p(r) = p0 + 12.5 r^2                              (r < 0.2)
         = p0 + 12.5 r^2 + 4 - 20 r + 4 ln(5 r)       (0.2 <= r < 0.4)
         = p0 - 2 + 4 ln 2                            (r >= 0.4)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box
from .lattice import cubic_lattice

__all__ = [
    "GreshoConfig",
    "gresho_velocity_profile",
    "gresho_pressure_profile",
    "make_gresho",
]


@dataclass(frozen=True)
class GreshoConfig:
    """Parameters of the Gresho vortex setup."""

    nx: int = 32  # lattice cells per axis
    length: float = 1.0  # periodic box edge, centered on the vortex
    rho0: float = 1.0
    p0: float = 5.0  # central pressure
    gamma: float = 5.0 / 3.0

    def __post_init__(self) -> None:
        if self.nx < 8:
            raise ValueError(f"nx must be >= 8, got {self.nx}")
        if min(self.length, self.rho0, self.p0) <= 0.0:
            raise ValueError("length, rho0 and p0 must be positive")
        if self.length < 0.9:
            raise ValueError("box edge must cover the r = 0.4 vortex rim")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")

    @property
    def n_particles(self) -> int:
        return self.nx**2


def gresho_velocity_profile(r: np.ndarray) -> np.ndarray:
    """Azimuthal velocity ``v_phi(r)`` of the vortex."""
    r = np.asarray(r, dtype=np.float64)
    return np.where(r < 0.2, 5.0 * r, np.where(r < 0.4, 2.0 - 5.0 * r, 0.0))


def gresho_pressure_profile(r: np.ndarray, p0: float = 5.0) -> np.ndarray:
    """Pressure ``p(r)`` in centrifugal balance with the velocity profile."""
    r = np.asarray(r, dtype=np.float64)
    inner = p0 + 12.5 * r**2
    r_safe = np.maximum(r, 1e-300)
    middle = p0 + 12.5 * r**2 + 4.0 - 20.0 * r + 4.0 * np.log(5.0 * r_safe)
    outer = np.full_like(r, p0 - 2.0 + 4.0 * np.log(2.0))
    return np.where(r < 0.2, inner, np.where(r < 0.4, middle, outer))


def make_gresho(
    config: GreshoConfig = GreshoConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the 2-D Gresho vortex on a periodic square."""
    half = 0.5 * config.length
    dx = config.length / config.nx
    x = cubic_lattice([config.nx] * 2, [-half] * 2, [half] * 2)
    n = x.shape[0]
    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    v_phi = gresho_velocity_profile(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 0.0, v_phi / np.maximum(r, 1e-300), 0.0)
    v = np.stack([-scale * x[:, 1], scale * x[:, 0]], axis=1)

    p = gresho_pressure_profile(r, config.p0)
    m = np.full(n, config.rho0 * dx**2)
    u = p / ((config.gamma - 1.0) * config.rho0)
    rho = np.full(n, config.rho0)
    h = target_smoothing_lengths(m, rho, 2, n_neighbors)
    particles = ParticleSystem(x=x, v=v, m=m, h=h, rho=rho, u=u)
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)
    box = Box(
        lo=np.full(2, -half),
        hi=np.full(2, half),
        periodic=np.ones(2, dtype=bool),
    )
    return particles, box, eos
