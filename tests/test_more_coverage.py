"""Coverage for remaining paths: grad-h, scaling reports, comm guards."""

import numpy as np
import pytest

from repro.kernels import make_kernel
from repro.sph.density import compute_density, grad_h_terms
from repro.sph.eos import IdealGasEOS
from repro.sph.forces import compute_forces
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search


# ----------------------------------------------------------------------
# grad-h corrected forces
# ----------------------------------------------------------------------
def _prepared(p, box, kernel):
    nl = cell_grid_search(p.x, 2 * p.h, box, mode="symmetric")
    compute_density(p, nl, kernel, box)
    IdealGasEOS().apply(p)
    return nl


def test_grad_h_forces_conserve_momentum(random_cloud):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    random_cloud.u[:] = 1.0
    # Non-uniform h so Omega actually deviates from 1.
    random_cloud.h *= 1.0 + 0.3 * np.sin(7 * random_cloud.x[:, 0])
    nl = _prepared(random_cloud, box, kernel)
    omega = grad_h_terms(random_cloud, nl, kernel, box)
    compute_forces(random_cloud, nl, kernel, box, omega=omega)
    force = random_cloud.m[:, None] * random_cloud.a
    assert np.linalg.norm(force.sum(axis=0)) < 1e-10 * np.abs(force).sum()


def test_grad_h_changes_forces_when_h_varies(random_cloud):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    random_cloud.u[:] = 1.0
    random_cloud.h *= 1.0 + 0.3 * np.sin(7 * random_cloud.x[:, 0])
    nl = _prepared(random_cloud, box, kernel)
    compute_forces(random_cloud, nl, kernel, box)
    a_plain = random_cloud.a.copy()
    omega = grad_h_terms(random_cloud, nl, kernel, box)
    compute_forces(random_cloud, nl, kernel, box, omega=omega)
    assert not np.allclose(a_plain, random_cloud.a)


def test_simulation_with_grad_h_runs():
    from repro.core.presets import SPHYNX
    from repro.core.simulation import Simulation
    from repro.ics.evrard import EvrardConfig, make_evrard

    particles, box, eos = make_evrard(EvrardConfig(n_target=600))
    sim = Simulation(
        particles, box, eos,
        config=SPHYNX.with_(n_neighbors=25, grad_h=True),
    )
    sim.run(n_steps=2)
    assert sim.conservation_drift()["momentum"] < 1e-9


# ----------------------------------------------------------------------
# Density estimator variants
# ----------------------------------------------------------------------
def test_xmass_exponent_changes_generalized_density(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    small_lattice.m[::2] *= 1.5  # variable masses make X != const
    nl = cell_grid_search(small_lattice.x, 2 * small_lattice.h, box, mode="symmetric")
    # Seed rho_prev with a field NOT proportional to m: if rho_prev ~ m,
    # X = (m/rho)^k collapses to a constant and every exponent agrees.
    seed = 1.0 + 0.2 * np.sin(2 * np.pi * small_lattice.x[:, 0])
    small_lattice.rho[:] = seed
    rho_a = compute_density(
        small_lattice, nl, kernel, box,
        volume_elements="generalized", xmass_exponent=0.0,
    ).copy()
    small_lattice.rho[:] = seed  # compute_density updates rho in place
    rho_b = compute_density(
        small_lattice, nl, kernel, box,
        volume_elements="generalized", xmass_exponent=1.0,
    )
    assert not np.allclose(rho_a, rho_b)


# ----------------------------------------------------------------------
# Scaling report structures
# ----------------------------------------------------------------------
def test_format_scaling_table_multiple_series():
    from repro.core.presets import SPHFLOW, SPHYNX
    from repro.model.machine import PIZ_DAINT
    from repro.model.scaling import strong_scaling
    from repro.model.workloads import build_workload
    from repro.model.scaling import format_scaling_table

    wl = build_workload("square", 30_000)
    a = strong_scaling(SPHFLOW, "square", PIZ_DAINT, (12, 48), workload=wl, n_steps=1)
    b = strong_scaling(SPHYNX, "square", PIZ_DAINT, (12, 24), workload=wl, n_steps=1)
    table = format_scaling_table([a, b])
    # Union of core counts, '-' where a series lacks a point.
    assert "24" in table and "48" in table
    assert "-" in table
    assert format_scaling_table([]) == "(no series)"
    # Series helpers.
    assert a.speedups()[0] == pytest.approx(1.0)
    assert b.parallel_efficiency()[0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# SimComm guards and timeline windows
# ----------------------------------------------------------------------
def test_simcomm_validation():
    from repro.model.comm import SimComm
    from repro.model.machine import PIZ_DAINT

    comm = SimComm(2, PIZ_DAINT.network)
    with pytest.raises(ValueError, match="expected 2 values"):
        comm.allreduce([np.ones(1)], op="sum")
    with pytest.raises(ValueError, match="non-negative"):
        comm.compute(0, -1.0)
    with pytest.raises(ValueError):
        SimComm(0, PIZ_DAINT.network)


def test_timeline_custom_window():
    from repro.observability import State, Tracer, render_timeline

    t = Tracer()
    t.record(0, "A", State.USEFUL, 10.0)
    out = render_timeline(t, width=20, t0=5.0, t1=6.0)
    assert "#" in out  # the window intersects the event
    out2 = render_timeline(t, width=20, t0=50.0, t1=60.0)
    assert "#" not in out2.splitlines()[2]  # beyond the trace: empty row


def test_individual_stepper_handles_infinite_criteria():
    from repro.core.particles import ParticleSystem
    from repro.timestepping.steppers import IndividualTimesteps

    p = ParticleSystem.zeros(4)
    p.cs[:] = 0.0  # courant -> inf, a = 0 -> inf, u > 0 but du = 0 -> inf
    p.u[:] = 1.0
    s = IndividualTimesteps()
    sched = s.schedule(p)
    assert not np.isfinite(sched.dt_base)
    assert s.select(p) == np.inf


def test_cluster_multi_step_trace_accumulates():
    from repro.core.presets import SPHFLOW
    from repro.observability import Tracer
    from repro.model.cluster import ClusterModel
    from repro.model.machine import PIZ_DAINT
    from repro.model.workloads import build_workload

    wl = build_workload("square", 30_000)
    tracer = Tracer()
    model = ClusterModel(wl, SPHFLOW, PIZ_DAINT, 24, kappa=1e-8, tracer=tracer)
    t = model.average_step_time(n_steps=3)
    assert t > 0
    # Three steps of events stacked on monotone clocks.
    assert tracer.runtime() >= 3 * t * 0.99


def test_snapshot_2d_roundtrip(tmp_path):
    from repro.core.particles import ParticleSystem
    from repro.io.snapshot import load_snapshot, save_snapshot

    p = ParticleSystem.zeros(5, dim=2)
    save_snapshot(tmp_path / "s.npz", p, time=3.0)
    back, t = load_snapshot(tmp_path / "s.npz")
    assert back.dim == 2 and t == 3.0
