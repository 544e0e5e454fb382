"""Verlet-skin neighbour-list cache: correctness and invalidation.

The cache serves lists built at padded radius ``(1 + SKIN) * 2h``.  While
every particle stays within ``SKIN * h`` of its reference position the
padded list still contains every true pair, and the extra pairs sit
beyond kernel support so they contribute exact zeros — kernels evaluated
on the cached list must match a fresh exact-radius search *bit for bit*.
Any displacement beyond the skin, any h change, and any shape change must
invalidate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ExecConfig, RunConfig, SimulationConfig
from repro.core.particles import ParticleSystem
from repro.timestepping.steppers import TimestepParams
from repro.core.simulation import Simulation
from repro.ics.square_patch import SquarePatchConfig, make_square_patch
from repro.kernels.registry import make_kernel
from repro.observability.report import format_neighbor_cache
from repro.sph.density import compute_density
from repro.sph.forces import compute_forces
from repro.sph.smoothing import SmoothingConfig, adapt_smoothing_lengths
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.neighborlist import SKIN, NeighborList, VerletNeighborCache


@pytest.fixture
def cloud(rng):
    n = 400
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    particles = ParticleSystem(
        x=rng.random((n, 3)),
        v=rng.normal(scale=0.1, size=(n, 3)),
        m=np.full(n, 1.0 / n),
        h=np.full(n, 0.1),
    )
    particles.u[:] = 1.0
    return particles, box


def _warm_cache(particles, box):
    cache = VerletNeighborCache()
    adapt_smoothing_lengths(particles, box, SmoothingConfig(n_target=40), cache)
    assert cache.stats.builds == 1
    return cache


def _filter_to_support(nlist: NeighborList, particles, box) -> NeighborList:
    """Drop padded pairs beyond symmetric kernel support, keeping order."""
    i, j = nlist.pairs()
    _, r = nlist.pair_geometry(particles.x, box)
    keep = r <= 2.0 * np.maximum(particles.h[i], particles.h[j])
    offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(i[keep], minlength=particles.n))]
    )
    return NeighborList(offsets=offsets, indices=nlist.indices[keep])


def test_cached_list_matches_fresh_search(cloud, rng):
    particles, box = cloud
    cache = _warm_cache(particles, box)

    # Drift everyone by strictly less than skin * h.
    step = 0.4 * SKIN * particles.h.min()
    particles.x += rng.uniform(-step, step, size=particles.x.shape) / np.sqrt(3)
    particles.x[:] = box.wrap(particles.x)

    cached = cache.lookup(particles.x, particles.h, box)
    assert cached is not None, "within-skin drift must be a cache hit"
    assert cache.stats.hits == 1

    kernel = make_kernel("sinc-s5")

    # Bitwise: the padded extra pairs must contribute exact zeros, so the
    # cached list and the same list filtered to true support agree.
    filtered = _filter_to_support(cached, particles, box)
    assert filtered.n_pairs < cached.n_pairs, "skin should pad some pairs"
    rho_cached = compute_density(particles.copy(), cached, kernel, box)
    rho_filtered = compute_density(particles.copy(), filtered, kernel, box)
    assert np.array_equal(rho_cached, rho_filtered)

    # Roundoff-level: a fresh exact-radius search yields a different
    # in-row pair ordering (cell assignment moved), so agreement is to
    # summation roundoff, not bitwise.
    fresh = cell_grid_search(particles.x, 2.0 * particles.h, box, mode="symmetric")
    fi, fj = fresh.pairs()
    ci, cj = cached.pairs()
    fresh_pairs = set(zip(fi.tolist(), fj.tolist()))
    cached_pairs = set(zip(ci.tolist(), cj.tolist()))
    assert fresh_pairs <= cached_pairs, "cached list lost a true pair"
    rho_fresh = compute_density(particles.copy(), fresh, kernel, box)
    np.testing.assert_allclose(rho_cached, rho_fresh, rtol=1e-13, atol=0.0)

    for p, nlist in ((particles.copy(), cached), (particles.copy(), filtered)):
        p.rho[:] = rho_fresh
        p.p[:] = (2.0 / 3.0) * p.rho * p.u
        p.cs[:] = np.sqrt(p.p / p.rho)
        result = compute_forces(p, nlist, kernel, box)
        if nlist is cached:
            a_ref, du_ref, mu_ref = result.a.copy(), result.du.copy(), result.max_mu
        else:
            assert np.array_equal(a_ref, result.a)
            assert np.array_equal(du_ref, result.du)
            assert mu_ref == result.max_mu


def test_teleport_invalidates(cloud):
    particles, box = cloud
    cache = _warm_cache(particles, box)

    particles.x[7] = box.wrap(
        particles.x[7:8] + 2.5 * SKIN * particles.h[7]
    )[0]
    assert cache.lookup(particles.x, particles.h, box) is None
    assert cache.stats.misses_displacement == 1
    # The cache stays invalid until a new list is stored.
    assert cache.lookup(particles.x, particles.h, box) is None


def test_h_change_invalidates(cloud):
    particles, box = cloud
    cache = _warm_cache(particles, box)

    # Shrinking h (or growing within the skin's growth half) keeps the
    # padded list a strict superset of the true pairs: still a hit.
    h_small = particles.h * 0.9
    assert cache.lookup(particles.x, h_small, box) is not None
    assert cache.stats.hits == 1

    # Out-growing the budget must invalidate.
    h_big = particles.h.copy()
    h_big[3] *= 1.0 + 0.6 * SKIN
    assert cache.lookup(particles.x, h_big, box) is None
    assert cache.stats.misses_h_change == 1


def test_shape_change_invalidates(cloud):
    particles, box = cloud
    cache = _warm_cache(particles, box)
    fewer = particles.x[:-1]
    assert cache.lookup(fewer, particles.h[:-1], box) is None
    assert cache.stats.misses_shape >= 1


# CFL-only time stepping: the patch's initial u is near zero, so the
# energy criterion collapses dt to roundoff and nothing would move.
RUN_CONFIG = SimulationConfig().with_(
    n_neighbors=30, timestep_params=TimestepParams(use_energy_criterion=False)
)


def test_cache_hit_rate_positive_over_ten_step_run():
    """Acceptance: the square patch reuses lists across real steps."""
    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=6))
    sim = Simulation(particles, box, eos, config=RUN_CONFIG)
    sim.run(n_steps=10)
    report = sim.report()
    stats = report.neighbor_cache
    assert stats["hits"] > 0
    assert stats["hit_rate"] > 0.0
    line = format_neighbor_cache(stats, report.h_iteration)
    assert "hit_rate" in line
    # What the builds searched and how the h iteration ended, as counted.
    assert stats["pairs_searched"] >= sim._nlist.n_pairs
    assert f"of {stats['pairs_searched']} pairs" in line
    assert f"{stats['adaptations']} adaptations" in line


def _patch_cold(backend):
    """The ``patch-cold`` benchmark's run (N = 8000)."""
    from repro.backend import available_backends
    from repro.scenarios import get_scenario

    if not available_backends()[backend]:
        pytest.skip("no C toolchain on this host")
    return get_scenario("square-patch").make_simulation(
        run_config=RunConfig(exec=ExecConfig(backend=backend)),
        side=20, layers=20,
    )


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_first_build_searches_little_more_than_it_keeps(backend, monkeypatch):
    """h starts at the neighbour target and every search is padded, so
    the run's first build costs at most two searches, and the second
    searches only the rows that out-grew the first: together they return
    at most 1.5x the list the build keeps (2.28x when the second searched
    every row, 5x when the IC's h was tuned for 200 neighbours against a
    target of 30).  The kept list is the fresh search at the final h."""
    from repro.tree.octree import Octree

    searched = []
    walk = Octree.walk_neighbors

    def counted(self, *args, **kwargs):
        nlist = walk(self, *args, **kwargs)
        searched.append(nlist.n_pairs)
        return nlist

    monkeypatch.setattr(Octree, "walk_neighbors", counted)
    sim = _patch_cold(backend)
    sim.compute_rates()
    stats = sim.report().neighbor_cache
    assert stats["builds"] == 1 and stats["searches"] == len(searched) <= 2
    assert sum(searched) == stats["pairs_searched"]
    assert sum(searched) <= 1.5 * sim._nlist.n_pairs
    p = sim.particles
    fresh = walk(
        Octree.build(p.x, sim.box), p.x, sim._ncache.search_factor * p.h,
        mode="symmetric",
    )
    assert np.array_equal(sim._nlist.offsets, fresh.offsets)
    assert np.array_equal(sim._nlist.indices, fresh.indices)
    sim.close()


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_h_iteration_takes_few_sweeps_after_the_first_step(backend):
    """After step 1 a particle takes at most 3 count sweeps per
    adaptation on average (every one of 10 under the old global rule),
    and the report carries the mean and the share within the tolerance."""
    sim = _patch_cold(backend)
    sim.run(n_steps=1)
    first = sim.report().neighbor_cache
    sim.run(n_steps=3)
    report = sim.report()
    stats, h_iteration = report.neighbor_cache, report.h_iteration
    sweeps = stats["sweeps"] - first["sweeps"]
    adaptations = stats["adaptations"] - first["adaptations"]
    assert adaptations == 3
    assert sweeps / (adaptations * sim.particles.n) <= 3.0
    assert h_iteration["mean_sweeps"] == stats["sweeps"] / stats["particles"]
    assert stats["particles"] == stats["adaptations"] * sim.particles.n
    share = h_iteration["within_tolerance_share"]
    assert share == stats["within_tolerance"] / stats["particles"]
    assert 0.0 < share < 1.0
    line = format_neighbor_cache(stats, h_iteration)
    assert f"{h_iteration['mean_sweeps']:.2f} sweeps per particle" in line
    assert f"{share:.1%} within tolerance" in line
    assert "h-iteration" not in format_neighbor_cache(stats)
    sim.close()


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_h_is_identical_across_cached_steps_on_a_lattice(backend):
    """A lattice particle between two shells stops on an update below
    ``tolerance / dim`` and keeps its h: a gas at rest on a periodic
    lattice (27 neighbours inside 2h, 33 one shell out, target 30) runs
    step after step off the cached list with h unchanged to the bit."""
    from repro.backend import available_backends
    from repro.sph.eos import IdealGasEOS
    from repro.sph.smoothing import target_smoothing_lengths

    if not available_backends()[backend]:
        pytest.skip("no C toolchain on this host")
    side = 8
    axis = (np.arange(side) + 0.5) / side
    x = np.stack([a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij")], 1)
    n = x.shape[0]
    m, rho = np.full(n, 1.0 / n), np.ones(n)
    particles = ParticleSystem(
        x=x, v=np.zeros_like(x), m=m, h=target_smoothing_lengths(m, rho, 3, 30),
        rho=rho, u=np.ones(n),
    )
    sim = Simulation(
        particles, Box.cube(0.0, 1.0, dim=3, periodic=True), IdealGasEOS(),
        config=RUN_CONFIG,
        run_config=RunConfig(exec=ExecConfig(backend=backend)),
    )
    sim.run(n_steps=1)
    for _ in range(3):
        h = sim.particles.h.copy()
        sim.run(n_steps=1)
        assert np.array_equal(sim.particles.h, h)
    stats = sim.report().neighbor_cache
    assert stats["builds"] == 1 and stats["hits"] == 4
    sim.close()


def test_cache_on_off_runs_agree_within_tolerance():
    """Five steps through real dynamics end on the bits the exact-search
    run (every list a fresh search at ``2 h``) ended on when the cache
    could still be switched off: cache hits and rebuilds give the same
    bits, so the digest pinned with the cache off and on holds."""
    import hashlib

    particles, box, eos = make_square_patch(SquarePatchConfig(side=10, layers=6))
    sim = Simulation(particles, box, eos, config=RUN_CONFIG)
    sim.run(n_steps=5)
    assert sim.report().neighbor_cache["hits"] > 0
    digest = hashlib.sha256()
    for name in ("x", "v", "h", "rho", "u", "p", "a", "du"):
        digest.update(getattr(sim.particles, name).tobytes())
    assert digest.hexdigest()[:12] == "26e0ae2e70a0"
    assert sim.time.hex() == "0x1.4a59d46ada51dp-10"
