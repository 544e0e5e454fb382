"""Density summation: lattice recovery, volume elements, grad-h terms."""

import numpy as np
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.kernels import make_kernel
from repro.sph.density import compute_density, grad_h_terms
from repro.sph.eos import IdealGasEOS
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search


def _nlist(p, box):
    return cell_grid_search(p.x, 2.0 * p.h, box, mode="symmetric")


def test_uniform_lattice_density(small_lattice):
    """Interior of a unit-density lattice must sum to rho ~ 1."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)  # periodic removes edges
    kernel = make_kernel("wendland-c2")
    nl = _nlist(small_lattice, box)
    rho = compute_density(small_lattice, nl, kernel, box)
    assert np.allclose(rho, 1.0, rtol=2e-2)


@pytest.mark.parametrize("kname", ["m4", "sinc-s5", "wendland-c4"])
def test_all_kernels_recover_lattice_density(small_lattice, kname):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    nl = _nlist(small_lattice, box)
    rho = compute_density(small_lattice, nl, make_kernel(kname), box)
    assert np.allclose(rho, 1.0, rtol=5e-2)


def test_generalized_equals_standard_for_uniform(small_lattice):
    """With X = (m/rho)^k and uniform m, rho: both estimates coincide."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("sinc-s5")
    nl = _nlist(small_lattice, box)
    rho_std = compute_density(
        small_lattice, nl, kernel, box, volume_elements="standard"
    ).copy()
    rho_gen = compute_density(
        small_lattice, nl, kernel, box, volume_elements="generalized"
    )
    assert np.allclose(rho_std, rho_gen, rtol=1e-10)


def test_generalized_bootstraps_without_prior_density(small_lattice):
    """The phase refuses a non-positive previous density; the driver's
    density pass bootstraps one with a standard summation first."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    small_lattice.rho[:] = 0.0  # no previous estimate
    nl = _nlist(small_lattice, box)
    with pytest.raises(ValueError, match="previous density"):
        compute_density(
            small_lattice, nl, make_kernel("m4"), box,
            volume_elements="generalized",
        )
    # IAD's m_j/rho_j weights read it too.
    with pytest.raises(ValueError, match="previous density"):
        compute_density(small_lattice, nl, make_kernel("m4"), box, return_iad=True)
    config = SimulationConfig(volume_elements="generalized", n_neighbors=50)
    with Simulation(small_lattice, box, IdealGasEOS(), config=config) as sim:
        sim.compute_rates()
        assert np.all(sim.particles.rho > 0.0)


def test_density_scales_with_mass(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("m4")
    nl = _nlist(small_lattice, box)
    rho1 = compute_density(small_lattice, nl, kernel, box).copy()
    small_lattice.m *= 3.0
    rho3 = compute_density(small_lattice, nl, kernel, box)
    assert np.allclose(rho3, 3.0 * rho1)


def test_invalid_volume_elements(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    nl = _nlist(small_lattice, box)
    with pytest.raises(ValueError, match="volume_elements"):
        compute_density(small_lattice, nl, make_kernel("m4"), box, volume_elements="x")


def test_grad_h_near_one_for_uniform(small_lattice):
    """Uniform density: Omega ~ 1 (no h-gradient correction needed)."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("wendland-c2")
    nl = _nlist(small_lattice, box)
    compute_density(small_lattice, nl, kernel, box)
    omega = grad_h_terms(small_lattice, nl, kernel, box)
    assert np.all(omega > 0.1)
    # For h fixed while rho is uniform, Omega deviates from 1 by the
    # discrete h-derivative of the summation — small on a lattice.
    assert np.allclose(omega, omega.mean(), rtol=0.2)
