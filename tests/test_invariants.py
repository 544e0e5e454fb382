"""Property-based physics invariants (hypothesis).

Three families the paper's codes all rely on, checked over randomized
inputs rather than hand-picked points:

* kernel normalization — ``int W(r, h) dV = 1`` for randomized h;
* compact support — ``W`` vanishes beyond ``2h`` and is positive inside,
  for randomized h;
* pairwise antisymmetry — the momentum-conserving force form keeps
  ``sum_i m_i a_i`` at roundoff for random particle clouds, and a short
  square-patch integration keeps the drift at roundoff over 5 steps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from repro.core.config import SimulationConfig
from repro.core.particles import ParticleSystem
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.kernels.registry import make_kernel
from repro.sph.density import compute_density
from repro.sph.forces import compute_forces
from repro.sph.smoothing import SmoothingConfig, adapt_smoothing_lengths
from repro.tree.box import Box
from repro.tree.neighborlist import VerletNeighborCache

KERNEL_NAMES = ("cubic-spline", "sinc-s5", "wendland-c2")


# ----------------------------------------------------------------------
# Kernel normalization at randomized h
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", KERNEL_NAMES)
@settings(max_examples=20, deadline=None)
@given(h=st.floats(min_value=1e-3, max_value=1e3))
def test_kernel_normalizes_at_any_h(name, h):
    kernel = make_kernel(name)
    integral, _ = quad(
        lambda r: kernel.value(np.array([r]), np.array([h]), dim=3)[0]
        * 4.0
        * np.pi
        * r**2,
        0.0,
        kernel.support * h,
        limit=200,
    )
    assert integral == pytest.approx(1.0, rel=1e-6)


# ----------------------------------------------------------------------
# Compact support at randomized h
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", KERNEL_NAMES)
@settings(max_examples=30, deadline=None)
@given(
    h=st.floats(min_value=1e-3, max_value=1e3),
    q=st.floats(min_value=1e-6, max_value=10.0),
)
def test_kernel_compact_support_at_any_h(name, q, h):
    kernel = make_kernel(name)
    r = np.array([q * h])
    w = kernel.value(r, np.array([h]), dim=3)[0]
    if q > kernel.support:
        assert w == 0.0
        assert np.all(
            kernel.gradient(np.array([[r[0], 0.0, 0.0]]), r, np.array([h]), dim=3)
            == 0.0
        )
    elif q < kernel.support * 0.999:
        assert w > 0.0


# ----------------------------------------------------------------------
# Pairwise antisymmetry -> momentum conservation at roundoff
# ----------------------------------------------------------------------
def _random_cloud(seed: int, n: int = 200) -> tuple[ParticleSystem, Box]:
    rng = np.random.default_rng(seed)
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    particles = ParticleSystem(
        x=rng.random((n, 3)),
        v=rng.normal(scale=0.2, size=(n, 3)),
        m=rng.uniform(0.5, 1.5, size=n) / n,
        h=np.full(n, 0.12),
    )
    particles.u[:] = rng.uniform(0.5, 2.0, size=n)
    return particles, box


@pytest.mark.parametrize("gradients", ["standard", "iad"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_pairwise_forces_conserve_momentum(gradients, seed):
    particles, box = _random_cloud(seed)
    nlist, _ = adapt_smoothing_lengths(
        particles, box, SmoothingConfig(n_target=40), VerletNeighborCache()
    )
    kernel = make_kernel("sinc-s5")
    compute_density(particles, nlist, kernel, box)
    particles.p[:] = (2.0 / 3.0) * particles.rho * particles.u
    particles.cs[:] = np.sqrt(particles.p / particles.rho)
    c_matrices = None
    if gradients == "iad":
        from repro.gradients.iad import compute_iad_matrices

        c_matrices = compute_iad_matrices(particles, nlist, kernel, box)
    compute_forces(particles, nlist, kernel, box, c_matrices=c_matrices)
    net = (particles.m[:, None] * particles.a).sum(axis=0)
    scale = float(np.abs(particles.m[:, None] * particles.a).sum())
    assert np.linalg.norm(net) <= 1e-13 * max(scale, 1.0)


def test_momentum_drift_stays_at_roundoff_over_five_steps():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=6))
    sim = Simulation(
        particles, box, eos, config=SimulationConfig().with_(n_neighbors=30)
    )
    sim.run(n_steps=5)
    drift = sim.conservation_drift()
    assert drift["mass"] == 0.0
    assert drift["momentum"] < 1e-12
