"""Gradient operators: antisymmetry, IAD linear-field exactness."""

import numpy as np
import pytest

from repro.gradients.iad import compute_iad_matrices, iad_pair_gradients
from repro.gradients.kernel_gradient import kernel_pair_gradients
from repro.kernels import make_kernel
from repro.sph.density import compute_density
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search


@pytest.fixture
def lattice_setup(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    kernel = make_kernel("sinc-s5")
    nl = cell_grid_search(small_lattice.x, 2.0 * small_lattice.h, box, mode="symmetric")
    compute_density(small_lattice, nl, kernel, box)
    return small_lattice, box, kernel, nl


def test_kernel_pair_gradients_antisymmetric(lattice_setup):
    p, box, kernel, nl = lattice_setup
    i, j = nl.pairs()
    dx, r = nl.pair_geometry(p.x, box)
    pg = kernel_pair_gradients(kernel, dx, r, p.h[i], p.h[j], 3)
    # For equal h the two operators coincide and mean is the same.
    assert np.allclose(pg.gi, pg.gj)
    assert np.allclose(pg.mean, pg.gi)


def test_iad_matrices_shape_and_symmetry(lattice_setup):
    p, box, kernel, nl = lattice_setup
    c = compute_iad_matrices(p, nl, kernel, box)
    assert c.shape == (p.n, 3, 3)
    assert np.allclose(c, np.transpose(c, (0, 2, 1)), atol=1e-10)


def _estimate_gradient(p, nl, box, pair_g, f_values):
    """SPH gradient estimate sum_j V_j (f_j - f_i) G_ij."""
    i, j = nl.pairs()
    vol_j = p.m[j] / p.rho[j]
    df = f_values[j] - f_values[i]
    contrib = vol_j[:, None] * df[:, None] * pair_g
    return nl.reduce(contrib)


def test_iad_exact_for_linear_fields(lattice_setup):
    """The defining IAD property: exact gradients of linear functions."""
    p, box, kernel, nl = lattice_setup
    c = compute_iad_matrices(p, nl, kernel, box)
    i, j = nl.pairs()
    dx, r = nl.pair_geometry(p.x, box)
    pg = iad_pair_gradients(
        c, i, j, dx, kernel.value(r, p.h[i], 3), kernel.value(r, p.h[j], 3)
    )
    grad_true = np.array([1.5, -2.0, 0.5])
    # Use the minimum-image-consistent linear field: build from dx sums is
    # complex under periodicity, so evaluate on interior particles of an
    # *open* treatment: recompute neighbour list without periodic wrap.
    box_open = Box.cube(0.0, 1.0, dim=3)
    nl_o = cell_grid_search(p.x, 2.0 * p.h, box_open, mode="symmetric")
    c_o = compute_iad_matrices(p, nl_o, kernel, box_open)
    i_o, j_o = nl_o.pairs()
    dx_o, r_o = nl_o.pair_geometry(p.x, box_open)
    pg_o = iad_pair_gradients(
        c_o, i_o, j_o, dx_o,
        kernel.value(r_o, p.h[i_o], 3), kernel.value(r_o, p.h[j_o], 3),
    )
    f = p.x @ grad_true
    est = _estimate_gradient(p, nl_o, box_open, pg_o.gi, f)
    # Exact everywhere — including near the (kernel-deficient) boundary:
    # that is IAD's selling point vs the standard operator.
    assert np.allclose(est, grad_true[None, :], atol=1e-8)


def test_standard_gradient_biased_at_boundary_iad_not(lattice_setup):
    p, box, kernel, nl = lattice_setup
    box_open = Box.cube(0.0, 1.0, dim=3)
    nl_o = cell_grid_search(p.x, 2.0 * p.h, box_open, mode="symmetric")
    i, j = nl_o.pairs()
    dx, r = nl_o.pair_geometry(p.x, box_open)
    pg_std = kernel_pair_gradients(kernel, dx, r, p.h[i], p.h[j], 3)
    f = p.x[:, 0].copy()  # linear in x
    est_std = _estimate_gradient(p, nl_o, box_open, pg_std.gi, f)
    err_std = np.abs(est_std[:, 0] - 1.0)
    # The standard operator errs at the open boundary (kernel deficiency).
    assert err_std.max() > 0.05


def test_iad_orientation_matches_standard(lattice_setup):
    """IAD pair operators point the same way as kernel gradients."""
    p, box, kernel, nl = lattice_setup
    c = compute_iad_matrices(p, nl, kernel, box)
    i, j = nl.pairs()
    dx, r = nl.pair_geometry(p.x, box)
    pg_iad = iad_pair_gradients(
        c, i, j, dx, kernel.value(r, p.h[i], 3), kernel.value(r, p.h[j], 3)
    )
    pg_std = kernel_pair_gradients(kernel, dx, r, p.h[i], p.h[j], 3)
    mask = r > 1e-9
    dots = np.einsum("kd,kd->k", pg_iad.gi[mask], pg_std.gi[mask])
    assert np.all(dots >= -1e-12)


def test_iad_regularization_handles_degenerate_neighbors():
    """Coplanar neighbourhood: tau is singular; C must stay finite."""
    from repro.core.particles import ParticleSystem

    x = np.zeros((5, 3))
    x[:, 0] = np.arange(5) * 0.1  # all on a line
    p = ParticleSystem(x=x, v=np.zeros((5, 3)), m=np.ones(5), h=np.full(5, 0.3))
    p.rho[:] = 1.0
    box = Box.bounding(x)
    nl = cell_grid_search(x, 2.0 * p.h, box, mode="symmetric")
    c = compute_iad_matrices(p, nl, make_kernel("m4"), box)
    assert np.all(np.isfinite(c))
