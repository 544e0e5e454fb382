"""Deeper physics validation: longer runs, analytic anchors.

The paper frames the two test cases as "validation and acceptance proofs
for the SPH-EXA mini-app"; these tests carry the acceptance criteria the
short smoke runs in test_simulation.py don't reach: sustained rotation of
the patch, Evrard free-fall against the analytic cold-collapse rate,
angular-momentum behavior, and cross-configuration consistency.
"""

import numpy as np
import pytest

from repro.core.presets import SPH_EXA, SPHFLOW, SPHYNX
from repro.core.simulation import Simulation
from repro.ics.evrard import EvrardConfig, make_evrard
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.timestepping.criteria import TimestepParams


@pytest.fixture(scope="module")
def patch_run():
    particles, box, eos = make_square_patch(SquarePatchConfig(side=12, layers=6))
    sim = Simulation(
        particles, box, eos,
        config=SPHFLOW.with_(n_neighbors=35,
                             timestep_params=TimestepParams(use_energy_criterion=False)),
    )
    sim.run(n_steps=8)
    return sim


@pytest.fixture(scope="module")
def evrard_run():
    particles, box, eos = make_evrard(EvrardConfig(n_target=2000))
    sim = Simulation(particles, box, eos, config=SPHYNX.with_(n_neighbors=35))
    sim.run(t_end=0.15)
    return sim


def test_patch_angular_momentum_decays_slowly(patch_run):
    """Rigid rotation carries Lz; SPH should conserve it to ~1%/run.

    (The standard operator conserves L exactly pairwise; the variable-h
    symmetrization and the periodic Z-wrap introduce the small residual.)
    """
    p = patch_run.particles
    lz_now = p.angular_momentum()[2]
    # Initial Lz of the patch: sum m omega r^2.
    first = patch_run.initial_conservation
    lz0 = first.angular_momentum[2]
    assert lz0 != 0.0
    assert abs(lz_now - lz0) / abs(lz0) < 0.05


def test_patch_pressure_imprint_in_deep_interior():
    """The mass-perturbation IC imprints the analytic pressure field.

    Two systematic effects mask it if measured naively: the uniform
    lattice kernel bias shifts the absolute pressure (a few percent of
    density through a gamma=7 Tait is large), and free-surface kernel
    deficiency bleeds ~2h inward.  Restricted to particles more than 3h
    from the surface, the measured pressure must correlate essentially
    perfectly with the analytic series — and the raw imprint is negative
    at the center (the tensile seed the test exists to provide).
    """
    from repro.kernels import make_kernel
    from repro.sph.density import compute_density
    from repro.tree.cellgrid import cell_grid_search

    particles, box, eos = make_square_patch(SquarePatchConfig(side=20, layers=6))
    p = particles
    nl = cell_grid_search(p.x, 2 * p.h, box, mode="symmetric")
    compute_density(p, nl, make_kernel("wendland-c2"), box)
    eos.apply(p)
    edge = 0.5 - np.maximum(np.abs(p.x[:, 0]), np.abs(p.x[:, 1]))
    deep = edge > 3.0 * p.h.max()
    assert deep.sum() > 100
    corr = np.corrcoef(p.p[deep], p.extra["p0"][deep])[0, 1]
    assert corr > 0.95
    r2d = np.hypot(p.x[:, 0], p.x[:, 1])
    assert np.median(p.extra["p0"][r2d < 0.15]) < 0.0


def test_patch_z_symmetry_preserved(patch_run):
    """Dynamics are Z-independent: layer velocities must stay identical."""
    p = patch_run.particles
    assert np.abs(p.v[:, 2]).max() < 1e-10 * np.abs(p.v).max()


def test_evrard_free_fall_rate(evrard_run):
    """Early collapse: compare radial infall against cold free fall.

    For pressureless 1/r collapse, every shell reaches the center at
    t_ff(r) ~ proportional to sqrt(r); at t = 0.15 the infall speed of the
    mid sphere should be within a factor ~2 of the cold estimate
    v ~ sqrt(2 G M(<r) (1/r - 1/r0)) (pressure u0 = 0.05 slows it).
    """
    p = evrard_run.particles
    r = np.linalg.norm(p.x, axis=1)
    rhat = p.x / np.maximum(r, 1e-12)[:, None]
    v_rad = np.einsum("ij,ij->i", p.v, rhat)
    shell = (r > 0.4) & (r < 0.6)
    assert np.mean(v_rad[shell]) < 0.0, "not infalling"
    # Magnitude sanity: bounded by free fall from rest over t=0.15 with
    # g ~ M(<r)/r^2 ~ (r/R)^2/r^2 = 1/R^2 = 1.
    assert np.mean(-v_rad[shell]) < 2.0 * 0.15 * 1.5


def test_evrard_center_heats_first(evrard_run):
    """Compression heats the core before the outskirts."""
    p = evrard_run.particles
    r = np.linalg.norm(p.x, axis=1)
    core = r < np.percentile(r, 20)
    skin = r > np.percentile(r, 80)
    assert p.u[core].mean() > p.u[skin].mean()


def test_evrard_virial_trend(evrard_run):
    """2K + W trends from W-dominated toward virialization (rises)."""
    hist = evrard_run.history
    first, last = hist[0].conservation, hist[-1].conservation
    virial_first = 2 * first.kinetic_energy + first.potential_energy
    virial_last = 2 * last.kinetic_energy + last.potential_energy
    assert virial_first < 0.0  # starts far from equilibrium
    assert virial_last > virial_first - 1e-12  # kinetic term growing


def test_sph_exa_preset_runs_both_cases():
    """The mini-app configuration itself passes both acceptance tests."""
    particles, box, eos = make_square_patch(SquarePatchConfig(side=8, layers=4))
    sim = Simulation(
        particles, box, eos,
        config=SPH_EXA.with_(n_neighbors=25,
                             timestep_params=TimestepParams(use_energy_criterion=False)),
    )
    sim.run(n_steps=2)
    assert sim.conservation_drift()["momentum"] < 1e-10

    particles, box, eos = make_evrard(EvrardConfig(n_target=800))
    sim = Simulation(particles, box, eos, config=SPH_EXA.with_(n_neighbors=25))
    sim.run(n_steps=2)
    assert sim.history[-1].n_m2p + sim.history[-1].n_p2p > 0  # 16-pole gravity on
    assert sim.conservation_drift()["energy"] < 0.05


def test_iad_and_standard_agree_on_smooth_flow():
    """Deep in a smooth uniform region the two gradient operators must
    produce nearly identical accelerations (they differ at boundaries)."""
    from repro.kernels import make_kernel
    from repro.gradients.iad import compute_iad_matrices
    from repro.sph.density import compute_density
    from repro.sph.eos import IdealGasEOS
    from repro.sph.forces import compute_forces
    from repro.tree.box import Box
    from repro.tree.cellgrid import cell_grid_search
    from repro.core.particles import ParticleSystem

    side = 10
    spacing = 1.0 / side
    axes = [np.arange(side) * spacing + spacing / 2] * 3
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=1)
    n = x.shape[0]
    p = ParticleSystem(x=x, v=np.zeros((n, 3)), m=np.full(n, spacing**3),
                       h=np.full(n, 1.6 * spacing))
    # Smooth large-scale pressure gradient via u(x).
    p.u[:] = 1.0 + 0.3 * np.sin(2 * np.pi * x[:, 0])
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("sinc-s5")
    nl = cell_grid_search(p.x, 2 * p.h, box, mode="symmetric")
    compute_density(p, nl, kernel, box)
    IdealGasEOS().apply(p)
    compute_forces(p, nl, kernel, box)
    a_std = p.a.copy()
    compute_forces(
        p, nl, kernel, box, c_matrices=compute_iad_matrices(p, nl, kernel, box)
    )
    a_iad = p.a.copy()
    scale = np.abs(a_std).max()
    assert np.abs(a_iad - a_std).max() < 0.15 * scale
