"""Sedov–Taylor point-blast initial conditions.

A uniform-density periodic cube with the blast energy ``e0`` deposited
as internal energy in the particles nearest the center, weighted by a
smoothing kernel so the injection is resolution-consistent (the approach
of the SPH-EXA follow-up, arXiv:2005.02656, which adds Sedov–Taylor
precisely because the analytic solution provides a quantitative
correctness gate).

The injected energy sums to ``e0`` exactly: with kernel weights ``w_i``
the per-particle contribution is ``u_i = e0 w_i / sum_j m_j w_j``, so
``sum_i m_i u_i = e0`` independent of resolution and injection radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..kernels.registry import make_kernel
from ..sph.eos import IdealGasEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box
from .lattice import cubic_lattice

__all__ = ["SedovConfig", "make_sedov"]


@dataclass(frozen=True)
class SedovConfig:
    """Parameters of the Sedov–Taylor blast setup."""

    nx: int = 16  # lattice cells per axis
    length: float = 1.0  # periodic box edge
    rho0: float = 1.0
    e0: float = 1.0
    u_background: float = 1e-6  # ambient specific internal energy
    gamma: float = 5.0 / 3.0
    #: Injection smoothing length in units of the lattice spacing; the
    #: blast energy is spread over the kernel support ``2 x`` this.
    injection_h: float = 2.0

    def __post_init__(self) -> None:
        if self.nx < 4:
            raise ValueError(f"nx must be >= 4, got {self.nx}")
        if min(self.length, self.rho0, self.e0) <= 0.0:
            raise ValueError("length, rho0 and e0 must be positive")
        if self.u_background <= 0.0:
            raise ValueError("u_background must be positive (cold start is singular)")
        if self.injection_h <= 0.0:
            raise ValueError("injection_h must be positive")

    @property
    def n_particles(self) -> int:
        return self.nx**3


def make_sedov(
    config: SedovConfig = SedovConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, IdealGasEOS]:
    """Build the Sedov blast: periodic cube, kernel-smoothed injection."""
    half = 0.5 * config.length
    dx = config.length / config.nx
    x = cubic_lattice([config.nx] * 3, [-half] * 3, [half] * 3)
    n = x.shape[0]
    m = np.full(n, config.rho0 * dx**3)

    r = np.sqrt(np.einsum("ij,ij->i", x, x))
    h_inj = config.injection_h * dx
    kernel = make_kernel("wendland-c2")
    w = kernel.value(r, np.full(n, h_inj), dim=3)
    total = float((m * w).sum())
    if total <= 0.0:  # pragma: no cover - defensive (nx >= 4 guards this)
        raise ValueError("no particle falls inside the injection kernel")
    u = config.u_background + config.e0 * w / total

    rho = np.full(n, config.rho0)
    h = target_smoothing_lengths(m, rho, 3, n_neighbors)
    particles = ParticleSystem(x=x, v=np.zeros_like(x), m=m, h=h, rho=rho, u=u)
    eos = IdealGasEOS(gamma=config.gamma)
    eos.apply(particles)
    box = Box(
        lo=np.full(3, -half),
        hi=np.full(3, half),
        periodic=np.ones(3, dtype=bool),
    )
    return particles, box, eos
