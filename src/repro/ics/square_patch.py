"""Rotating square patch test (Colagrossi 2005; Section 5.1 of the paper).

A free-surface square of inviscid fluid in rigid rotation.  The velocity
field (Eq. 1 of the paper)

    v_x = omega y,   v_y = -omega x

is balanced at t=0 by the pressure field of the incompressible Poisson
problem, expressed as the rapidly-converging double sine series the paper
quotes.  Negative pressures near the corners excite the tensile
instability, which is why the test is a standard stress case for SPH.

Following Section 5.1, the 2-D ``side x side`` patch is extruded
``layers`` times along Z with periodic boundary conditions, so the 3-D
codes solve the original 2-D problem in their native formulation
(``side = layers = 100`` gives the paper's 10^6 particles).

The initial pressure is imprinted through a *variable particle mass*
perturbation consistent with the weakly-compressible EOS (exercising the
"Equal or Variable" mass feature of Table 1): ``m_i = rho(P_0(x_i)) V_cell``
so the SPH density summation reproduces the analytic field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.particles import ParticleSystem
from ..sph.eos import WeaklyCompressibleEOS
from ..sph.smoothing import SmoothingConfig, target_smoothing_lengths
from ..tree.box import Box
from .lattice import cubic_lattice

__all__ = ["SquarePatchConfig", "patch_pressure_field", "make_square_patch"]


@dataclass(frozen=True)
class SquarePatchConfig:
    """Parameters of the rotating-square-patch setup."""

    side: int = 100  # particles per side of the 2-D patch
    layers: int = 100  # Z copies (periodic)
    length: float = 1.0  # physical side length L
    omega: float = 5.0  # rad/s (paper value)
    rho0: float = 1.0
    sound_speed_factor: float = 10.0  # c0 = factor * omega * L
    series_terms: int = 40  # odd-term cutoff of the pressure series
    pressure_init: str = "mass-perturbation"  # or "uniform"

    def __post_init__(self) -> None:
        if self.side < 2 or self.layers < 1:
            raise ValueError("side must be >= 2 and layers >= 1")
        if self.length <= 0.0 or self.rho0 <= 0.0:
            raise ValueError("length and rho0 must be positive")
        if self.pressure_init not in ("mass-perturbation", "uniform"):
            raise ValueError(
                f"pressure_init must be 'mass-perturbation' or 'uniform', "
                f"got {self.pressure_init!r}"
            )

    @property
    def n_particles(self) -> int:
        return self.side * self.side * self.layers


def patch_pressure_field(
    x: np.ndarray,
    y: np.ndarray,
    config: SquarePatchConfig = SquarePatchConfig(),
) -> np.ndarray:
    """Initial pressure of the rotating patch at coordinates (x, y).

    Coordinates are patch-centered (in ``[-L/2, L/2]``).  The series (see
    Section 5.1) runs over odd m, n only — even terms vanish for this
    source — and converges like 1/(m n (m^2+n^2)).
    """
    L = config.length
    omega = config.omega
    rho = config.rho0
    # Shift to [0, L] as in the reference solution.
    xs = np.asarray(x, dtype=np.float64) + 0.5 * L
    ys = np.asarray(y, dtype=np.float64) + 0.5 * L
    mmax = config.series_terms
    ms = np.arange(1, mmax + 1, 2, dtype=np.float64)
    p = np.zeros(np.broadcast(xs, ys).shape)
    sin_mx = np.sin(np.pi * np.multiply.outer(ms, xs) / L)  # (M, ...)
    sin_ny = np.sin(np.pi * np.multiply.outer(ms, ys) / L)
    for im, m in enumerate(ms):
        for jn, n in enumerate(ms):
            coef = (-32.0 * omega**2) / (m * n * np.pi**2)
            coef /= (m * np.pi / L) ** 2 + (n * np.pi / L) ** 2
            p += coef * sin_mx[im] * sin_ny[jn]
    return rho * p


def make_square_patch(
    config: SquarePatchConfig = SquarePatchConfig(),
    n_neighbors: int = SmoothingConfig.n_target,
) -> tuple[ParticleSystem, Box, WeaklyCompressibleEOS]:
    """Build the 3-D rotating square patch (Table 5, first row).

    Returns the particle system, its box (periodic along Z only) and the
    weakly-compressible EOS consistent with the imprinted pressure.
    """
    L = config.length
    dx = L / config.side
    lz = config.layers * dx
    x = cubic_lattice(
        [config.side, config.side, config.layers],
        [-0.5 * L, -0.5 * L, 0.0],
        [0.5 * L, 0.5 * L, lz],
    )
    n = x.shape[0]
    v = np.zeros_like(x)
    # Eq. (1): rigid rotation about the Z axis.
    v[:, 0] = config.omega * x[:, 1]
    v[:, 1] = -config.omega * x[:, 0]

    c0 = config.sound_speed_factor * config.omega * L
    # Floor the Tait tension at ~2x the deepest physical negative pressure
    # of the analytic field (|P0|_min ~ 0.2 rho omega^2 L^2) so the free
    # surface stays intact while the interior tensile region survives.
    floor = -0.4 * config.rho0 * (config.omega * L) ** 2
    eos = WeaklyCompressibleEOS(
        rho0=config.rho0, c0=c0, gamma=7.0, pressure_floor=floor
    )
    p0 = patch_pressure_field(x[:, 0], x[:, 1], config)

    cell_volume = dx**3
    if config.pressure_init == "mass-perturbation":
        b = eos.c0**2 * eos.rho0 / eos.gamma
        # Invert the Tait EOS: rho(P) = rho0 (1 + P/B)^(1/gamma); clamp the
        # argument away from zero for very deep (unphysical) negatives.
        rho_init = config.rho0 * np.maximum(1.0 + p0 / b, 0.5) ** (1.0 / eos.gamma)
        m = rho_init * cell_volume
    else:
        rho_init = np.full(n, config.rho0)
        m = np.full(n, config.rho0 * cell_volume)

    h = target_smoothing_lengths(m, rho_init, 3, n_neighbors)
    particles = ParticleSystem(x=x, v=v, m=m, h=h, rho=rho_init, p=p0)
    particles.extra["p0"] = p0.copy()
    eos.apply(particles)

    # Open along X/Y (free surface), periodic along Z (paper setup).  The
    # X/Y bounds leave room for the corners to deform outward.
    box = Box(
        lo=np.array([-2.0 * L, -2.0 * L, 0.0]),
        hi=np.array([2.0 * L, 2.0 * L, lz]),
        periodic=np.array([False, False, True]),
    )
    return particles, box, eos
