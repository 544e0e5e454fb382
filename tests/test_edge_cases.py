"""Edge cases across the library: 1-D/2-D paths, empties, degeneracies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ParticleSystem
from repro.kernels import WendlandC4Kernel, WendlandC6Kernel, make_kernel
from repro.sph.density import compute_density
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.octree import Octree


# ----------------------------------------------------------------------
# Lower-dimensional paths
# ----------------------------------------------------------------------
def test_1d_wendland_normalizations():
    for cls in (WendlandC4Kernel, WendlandC6Kernel):
        k = cls(dim_hint=1)
        from scipy.integrate import quad

        integral, _ = quad(lambda q: k.shape(np.asarray(q)), 0, 2, limit=200)
        assert k.sigma(1) * 2 * integral == pytest.approx(1.0, rel=1e-8)


def test_2d_density_on_lattice():
    side = 20
    spacing = 1.0 / side
    axes = [np.arange(side) * spacing + spacing / 2] * 2
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=1)
    n = x.shape[0]
    p = ParticleSystem(
        x=x, v=np.zeros((n, 2)), m=np.full(n, spacing**2),
        h=np.full(n, 1.8 * spacing),
    )
    box = Box.cube(0.0, 1.0, dim=2, periodic=True)
    nl = cell_grid_search(p.x, 2 * p.h, box, mode="symmetric")
    rho = compute_density(p, nl, make_kernel("wendland-c2"), box)
    assert np.allclose(rho, 1.0, rtol=3e-2)


def test_2d_octree_quadtree():
    rng = np.random.default_rng(0)
    x = rng.random((600, 2))
    box = Box.cube(0.0, 1.0, dim=2)
    tree = Octree.build(x, box, leaf_size=12)
    a = tree.walk_neighbors(x, 0.08, mode="gather")
    b = cell_grid_search(x, 0.08, box, mode="gather")
    assert np.array_equal(a.offsets, b.offsets)


def test_1d_octree_binary_tree():
    rng = np.random.default_rng(1)
    x = rng.random((300, 1))
    tree = Octree.build(x, Box.cube(0.0, 1.0, dim=1), leaf_size=8)
    assert tree.dim == 1
    nl = tree.walk_neighbors(x, 0.05, mode="gather")
    # brute force check
    for i in (0, 100, 299):
        expect = set(np.nonzero(np.abs(x[:, 0] - x[i, 0]) <= 0.05)[0].tolist())
        assert set(nl.neighbors_of(i).tolist()) == expect


def test_1d_2d_gravity_rejected_gracefully():
    """Derivative tensors generalize, but direct gravity is dim-agnostic."""
    from repro.gravity import direct_gravity

    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    acc, phi = direct_gravity(x, np.ones(2))
    assert acc[0, 0] == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Degenerate inputs
# ----------------------------------------------------------------------
def test_two_particle_simulation_runs():
    from repro.core.config import SimulationConfig
    from repro.core.simulation import Simulation
    from repro.sph.eos import IdealGasEOS

    p = ParticleSystem(
        x=np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]]),
        v=np.zeros((2, 3)),
        m=np.ones(2),
        h=np.full(2, 0.2),
    )
    p.u[:] = 1.0
    box = Box.cube(0.0, 1.0, dim=3)
    cfg = SimulationConfig(label="SPH-EXA", n_neighbors=4, gravity=None)
    sim = Simulation(p, box, IdealGasEOS(), config=cfg)
    sim.run(n_steps=1)
    assert np.all(np.isfinite(sim.particles.x))


def test_single_leaf_tree():
    x = np.random.default_rng(2).random((5, 3))
    tree = Octree.build(x, leaf_size=100)
    assert tree.n_nodes == 1
    assert tree.is_leaf()[0]
    nl = tree.walk_neighbors(x, 1.0, mode="gather")
    assert nl.counts().tolist() == [5] * 5


def test_octree_empty_particle_set():
    tree = Octree.build(np.empty((0, 3)), Box.cube(0, 1, 3))
    assert tree.n_particles == 0
    assert np.all(tree.node_max(np.empty(0)) == -np.inf)


def test_neighborlist_all_isolated():
    rng = np.random.default_rng(3)
    x = rng.random((20, 3)) * 100.0  # spread out: nobody in reach
    nl = cell_grid_search(x, 0.01, include_self=False)
    assert nl.n_pairs == 0
    assert nl.reduce(np.empty(0)).tolist() == [0.0] * 20


def test_extreme_mass_ratio_density(small_lattice):
    """A 1e6:1 mass ratio must not destabilize the summation."""
    small_lattice.m[0] *= 1e6
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    nl = cell_grid_search(small_lattice.x, 2 * small_lattice.h, box, mode="symmetric")
    rho = compute_density(small_lattice, nl, make_kernel("m4"), box)
    assert np.all(np.isfinite(rho))
    assert np.all(rho > 0)


# ----------------------------------------------------------------------
# Property tests on the decomposition/halo layer
# ----------------------------------------------------------------------
@given(
    seed=st.integers(0, 2**31 - 1),
    n_ranks=st.integers(1, 20),
    method=st.sampled_from(["orb", "sfc-hilbert", "uniform-slabs", "block-index"]),
)
@settings(max_examples=30, deadline=None)
def test_decomposition_partition_property(seed, n_ranks, method):
    from repro.model.decomposition import decompose

    rng = np.random.default_rng(seed)
    n = max(n_ranks, 50)
    x = rng.random((n, 3))
    d = decompose(method, x, n_ranks)
    assert d.assignment.shape == (n,)
    assert d.assignment.min() >= 0 and d.assignment.max() < n_ranks
    assert d.counts().sum() == n
    # Balance granularity: curve/slab cuts are even to ~1 particle; ORB
    # accumulates one particle of rounding per bisection level when the
    # rank count is not a power of two.
    depth = int(np.ceil(np.log2(max(n_ranks, 2))))
    assert d.counts().max() - d.counts().min() <= max(
        2, depth + 1, n // n_ranks
    )


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_halo_never_negative_property(seed):
    from repro.model.decomposition import decompose
    from repro.model.halo import estimate_halo

    rng = np.random.default_rng(seed)
    x = rng.random((400, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose("sfc-morton", x, 4, box)
    h = estimate_halo(x, 0.15, box, d)
    assert np.all(h.recv >= 0)
    assert np.all(np.diag(h.recv) == 0)
    # Total halo bounded by (R-1) x remote particles.
    assert h.recv_totals().sum() <= 4 * 400


# ----------------------------------------------------------------------
# Kernel registry round trips
# ----------------------------------------------------------------------
def test_every_registry_kernel_runs_density(small_lattice):
    from repro.kernels import available_kernels

    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    nl = cell_grid_search(small_lattice.x, 2 * small_lattice.h, box, mode="symmetric")
    for name in available_kernels():
        rho = compute_density(small_lattice, nl, make_kernel(name), box)
        assert np.all(rho > 0), name
