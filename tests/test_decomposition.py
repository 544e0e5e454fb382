"""Domain decomposition: balance, locality, weighted cuts."""

import numpy as np
import pytest

from repro.model.decomposition import DECOMPOSITION_METHODS, decompose
from repro.model.halo import estimate_halo
from repro.tree.box import Box


@pytest.fixture
def points(rng):
    return rng.random((20_000, 3))


@pytest.mark.parametrize("method", DECOMPOSITION_METHODS)
def test_every_method_balances_counts(points, method):
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose(method, points, 16, box)
    counts = d.counts()
    assert counts.sum() == len(points)
    assert d.imbalance() < 1.05
    assert set(np.unique(d.assignment)) == set(range(16))


@pytest.mark.parametrize("method", DECOMPOSITION_METHODS)
def test_weighted_decomposition_balances_work(points, rng, method):
    box = Box.cube(0.0, 1.0, dim=3)
    # Heavily skewed work: particles near the origin cost 10x more.
    w = 1.0 + 9.0 * (np.linalg.norm(points, axis=1) < 0.5)
    d = decompose(method, points, 8, box, weights=w)
    assert d.imbalance(w) < 1.10
    # Count imbalance is the price of work balance.
    assert d.load(w).max() / d.load(w).mean() < 1.10


def test_orb_produces_spatially_compact_regions(points):
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose("orb", points, 8, box)
    # Each ORB region's bounding volume should be ~1/8 of the domain.
    for r in range(8):
        sel = points[d.rank_particles(r)]
        vol = np.prod(sel.max(axis=0) - sel.min(axis=0))
        assert vol < 0.35  # compact (vs ~1.0 for block-index)


def test_slabs_cut_longest_axis():
    rng = np.random.default_rng(0)
    x = rng.random((5000, 3)) * np.array([10.0, 1.0, 1.0])
    box = Box.bounding(x)
    d = decompose("uniform-slabs", x, 4, box)
    # Slab ranks must be ordered along x.
    means = [x[d.rank_particles(r), 0].mean() for r in range(4)]
    assert np.all(np.diff(means) > 0)


def test_sfc_methods_localize_better_than_block(points):
    box = Box.cube(0.0, 1.0, dim=3)
    halos = {}
    for method in ("sfc-morton", "sfc-hilbert", "block-index", "orb"):
        d = decompose(method, points, 32, box)
        h = estimate_halo(points, 0.06, box, d)
        halos[method] = h.recv_totals().mean()
    assert halos["sfc-hilbert"] < halos["block-index"] / 3
    assert halos["sfc-morton"] < halos["block-index"] / 3
    assert halos["orb"] < halos["block-index"] / 3


def test_hilbert_localizes_at_least_as_well_as_morton(points):
    box = Box.cube(0.0, 1.0, dim=3)
    d_h = decompose("sfc-hilbert", points, 32, box)
    d_m = decompose("sfc-morton", points, 32, box)
    h_h = estimate_halo(points, 0.06, box, d_h).recv_totals().mean()
    h_m = estimate_halo(points, 0.06, box, d_m).recv_totals().mean()
    assert h_h <= 1.1 * h_m


def test_errors(points):
    with pytest.raises(ValueError, match="unknown decomposition"):
        decompose("triangulate", points, 4)
    with pytest.raises(ValueError, match="n_ranks"):
        decompose("orb", points, 0)
    with pytest.raises(ValueError, match="more ranks"):
        decompose("orb", points[:3], 5)
    with pytest.raises(ValueError, match="weights"):
        decompose("orb", points, 4, weights=-np.ones(len(points)))


def test_single_rank_trivial(points):
    d = decompose("orb", points, 1)
    assert np.all(d.assignment == 0)
    assert d.imbalance() == 1.0


def test_rank_particles_partition(points):
    d = decompose("sfc-hilbert", points, 7)
    all_ids = np.concatenate([d.rank_particles(r) for r in range(7)])
    assert np.array_equal(np.sort(all_ids), np.arange(len(points)))
