"""Kelvin–Helmholtz instability initial conditions, 2-D.

A dense band moving right through a lighter medium moving left, in
pressure equilibrium, with a small sinusoidal transverse velocity
perturbation localized at the two interfaces (the McNally et al. 2012
style trigger).  No analytic solution exists once the billows roll up —
the scenario is gated by its conserved-quantity invariants and its
golden master.

Equal-mass discretization: the band's lattice pitch is ``1/sqrt(rho_in /
rho_out)`` times the ambient pitch, so ``m = rho * cell_area`` comes out
(nearly) identical across the density jump; residual rounding goes into
the per-strip particle mass, which the variable-mass support of
:class:`~repro.core.particles.ParticleSystem` carries exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box
from .lattice import cubic_lattice

__all__ = ["KelvinHelmholtzConfig", "make_kelvin_helmholtz"]


@dataclass(frozen=True)
class KelvinHelmholtzConfig:
    """Parameters of the Kelvin–Helmholtz shear-layer setup."""

    nx: int = 32  # ambient lattice cells across the unit box
    length: float = 1.0
    rho_out: float = 1.0
    rho_in: float = 2.0
    v_shear: float = 0.5  # half the velocity jump
    p0: float = 2.5
    gamma: float = 5.0 / 3.0
    amplitude: float = 0.01  # transverse perturbation amplitude
    mode: int = 2  # wavelengths across the box
    sigma: float = 0.05  # Gaussian width of the interface trigger

    def __post_init__(self) -> None:
        if self.nx < 8:
            raise ValueError(f"nx must be >= 8, got {self.nx}")
        if min(self.length, self.rho_out, self.rho_in, self.p0) <= 0.0:
            raise ValueError("length, densities and p0 must be positive")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.mode < 1:
            raise ValueError(f"mode must be >= 1, got {self.mode}")


def make_kelvin_helmholtz(
    config: KelvinHelmholtzConfig = KelvinHelmholtzConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the 2-D shear layer: three strips, pressure equilibrium."""
    big_l = config.length
    y_lo, y_hi = 0.25 * big_l, 0.75 * big_l
    dx = big_l / config.nx

    def strip(y0: float, y1: float, rho: float) -> tuple[np.ndarray, float]:
        pitch = dx / np.sqrt(rho / config.rho_out)
        cols = max(1, round(big_l / pitch))
        rows = max(1, round((y1 - y0) / pitch))
        pts = cubic_lattice([cols, rows], [0.0, y0], [big_l, y1])
        mass = rho * big_l * (y1 - y0) / pts.shape[0]
        return pts, mass

    bottom, m_bot = strip(0.0, y_lo, config.rho_out)
    band, m_band = strip(y_lo, y_hi, config.rho_in)
    top, m_top = strip(y_hi, big_l, config.rho_out)
    x = np.concatenate([bottom, band, top])
    counts = (bottom.shape[0], band.shape[0], top.shape[0])
    m = np.concatenate(
        [np.full(c, mm) for c, mm in zip(counts, (m_bot, m_band, m_top))]
    )
    rho = np.concatenate(
        [
            np.full(c, rr)
            for c, rr in zip(
                counts, (config.rho_out, config.rho_in, config.rho_out)
            )
        ]
    )

    in_band = (x[:, 1] >= y_lo) & (x[:, 1] < y_hi)
    v = np.zeros_like(x)
    v[:, 0] = np.where(in_band, config.v_shear, -config.v_shear)
    trigger = np.exp(-((x[:, 1] - y_lo) ** 2) / (2.0 * config.sigma**2)) + np.exp(
        -((x[:, 1] - y_hi) ** 2) / (2.0 * config.sigma**2)
    )
    v[:, 1] = (
        config.amplitude
        * np.sin(2.0 * np.pi * config.mode * x[:, 0] / big_l)
        * trigger
    )

    u = config.p0 / ((config.gamma - 1.0) * rho)
    h = target_smoothing_lengths(m, rho, 2, n_neighbors)
    particles = ParticleSystem(x=x, v=v, m=m, h=h, rho=rho, u=u)
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)
    box = Box(
        lo=np.zeros(2),
        hi=np.full(2, big_l),
        periodic=np.ones(2, dtype=bool),
    )
    return particles, box, eos
