"""Momentum/energy equations: conservation, directions, viscosity."""

import numpy as np
import pytest

from repro.gradients.iad import compute_iad_matrices
from repro.kernels import make_kernel
from repro.sph.density import compute_density
from repro.sph.eos import IdealGasEOS
from repro.sph.forces import compute_forces, velocity_divergence_curl
from repro.sph.viscosity import ViscosityParams, balsara_switch
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search


def _prepare(p, box, kernel):
    nl = cell_grid_search(p.x, 2.0 * p.h, box, mode="symmetric")
    compute_density(p, nl, kernel, box)
    IdealGasEOS().apply(p)
    return nl


@pytest.fixture
def hot_cloud(random_cloud):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    random_cloud.u[:] = 1.0
    nl = _prepare(random_cloud, box, kernel)
    return random_cloud, box, kernel, nl


@pytest.mark.parametrize("gradients", ["standard", "iad"])
def test_momentum_conserved_to_machine_precision(hot_cloud, gradients):
    p, box, kernel, nl = hot_cloud
    c_matrices = (
        compute_iad_matrices(p, nl, kernel, box) if gradients == "iad" else None
    )
    compute_forces(p, nl, kernel, box, c_matrices=c_matrices)
    total_force = (p.m[:, None] * p.a).sum(axis=0)
    scale = np.abs(p.m[:, None] * p.a).sum()
    assert np.linalg.norm(total_force) < 1e-11 * max(scale, 1.0)


def test_angular_momentum_conserved_standard(random_cloud):
    """The standard operator is central: zero total torque.

    Open box on purpose: angular momentum is only globally defined
    without periodic wrapping.
    """
    p = random_cloud
    box = Box.cube(0.0, 1.0, dim=3)
    kernel = make_kernel("m4")
    p.u[:] = 1.0
    nl = _prepare(p, box, kernel)
    compute_forces(p, nl, kernel, box)
    torque = np.sum(np.cross(p.x, p.m[:, None] * p.a), axis=0)
    scale = np.abs(np.cross(p.x, p.m[:, None] * p.a)).sum()
    assert np.linalg.norm(torque) < 1e-10 * max(scale, 1.0)


def test_energy_rate_consistent_with_work(hot_cloud):
    """Inviscid: sum m du/dt == -sum m v . a (adiabatic first law)."""
    p, box, kernel, nl = hot_cloud
    compute_forces(p, nl, kernel, box, viscosity=ViscosityParams(alpha=0.0, beta=0.0))
    de_int = np.sum(p.m * p.du)
    de_kin = np.sum(p.m * np.einsum("ij,ij->i", p.v, p.a))
    assert de_int == pytest.approx(-de_kin, rel=1e-8, abs=1e-12)


def test_pressure_pushes_away_from_hot_region(small_lattice):
    """A central hot spot must accelerate its surroundings outward."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    p = small_lattice
    center = np.array([0.5, 0.5, 0.5])
    r = np.linalg.norm(p.x - center, axis=1)
    p.u[:] = 0.05
    p.u[r < 0.2] = 5.0
    nl = _prepare(p, box, kernel)
    compute_forces(p, nl, kernel, box)
    shell = (r > 0.2) & (r < 0.35)
    outward = np.einsum("ij,ij->i", p.a[shell], (p.x - center)[shell])
    assert np.mean(outward > 0) > 0.9


def test_viscosity_zero_for_expanding_flow(small_lattice):
    """Hubble-like expansion: v.r > 0 everywhere, Pi must vanish.

    Open box: with periodic wrapping the minimum-image dx of boundary
    pairs flips sign against the (non-wrapped) velocity difference, which
    would legitimately trigger viscosity there.
    """
    box = Box.cube(0.0, 1.0, dim=3)
    kernel = make_kernel("m4")
    p = small_lattice
    p.v[:] = p.x - 0.5  # pure expansion
    p.u[:] = 1.0
    nl = _prepare(p, box, kernel)
    res_visc = compute_forces(p, nl, kernel, box, viscosity=ViscosityParams(alpha=1.0, beta=2.0))
    a_visc = p.a.copy()
    res_novisc = compute_forces(p, nl, kernel, box, viscosity=ViscosityParams(alpha=0.0, beta=0.0))
    assert np.allclose(a_visc, p.a)
    assert res_visc.max_mu == 0.0


def test_viscosity_damps_compression(small_lattice):
    """Uniform compression: viscosity opposes the inflow (positive du)."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    p = small_lattice
    p.v[:] = -(p.x - 0.5)  # contraction
    p.u[:] = 1e-6  # cold: pressure negligible, viscosity dominates
    nl = _prepare(p, box, kernel)
    res = compute_forces(p, nl, kernel, box)
    assert res.max_mu > 0.0
    assert np.sum(p.m * p.du) > 0.0  # viscous heating


def test_forces_require_density(random_cloud):
    box = Box.cube(0.0, 1.0, dim=3)
    kernel = make_kernel("m4")
    nl = cell_grid_search(random_cloud.x, 2 * random_cloud.h, box, mode="symmetric")
    with pytest.raises(ValueError, match="densities"):
        compute_forces(random_cloud, nl, kernel, box)


def test_divergence_of_expansion_positive(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3)
    kernel = make_kernel("m4")
    p = small_lattice
    p.v[:] = p.x - 0.5
    nl = _prepare(p, box, kernel)
    div, curl = velocity_divergence_curl(p, nl, kernel, box)
    # div(v) = 3 for v = r; evaluate away from the kernel-deficient edge.
    interior = np.all(np.abs(p.x - 0.5) < 0.5 - 2.0 * p.h.max(), axis=1)
    assert interior.sum() > 0
    assert np.median(div[interior]) == pytest.approx(3.0, rel=0.15)
    assert np.median(np.abs(curl[interior])) < 0.5


def test_curl_of_rotation_detected(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    p = small_lattice
    c = p.x - 0.5
    p.v[:, 0] = c[:, 1]
    p.v[:, 1] = -c[:, 0]  # rigid rotation: curl = (0, 0, -2)
    nl = _prepare(p, box, kernel)
    div, curl = velocity_divergence_curl(p, nl, kernel, box)
    interior = np.all(np.abs(c) < 0.3, axis=1)
    assert np.median(curl[interior]) == pytest.approx(2.0, rel=0.2)
    assert np.median(np.abs(div[interior])) < 0.3


def test_balsara_suppresses_shear_viscosity(small_lattice):
    """Rigid rotation is pure shear: Balsara must reduce |du| heating."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    p = small_lattice
    c = p.x - 0.5
    p.v[:, 0] = c[:, 1]
    p.v[:, 1] = -c[:, 0]
    p.u[:] = 1e-6
    nl = _prepare(p, box, kernel)
    compute_forces(p, nl, kernel, box, viscosity=ViscosityParams(use_balsara=False))
    heat_plain = np.abs(p.du).sum()
    div, curl = velocity_divergence_curl(p, nl, kernel, box)
    compute_forces(
        p, nl, kernel, box, viscosity=ViscosityParams(use_balsara=True),
        balsara_f=balsara_switch(div, curl, p.cs, p.h),
    )
    heat_balsara = np.abs(p.du).sum()
    assert heat_balsara < 0.5 * heat_plain
