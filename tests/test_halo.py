"""Halo estimation: upper-bound property vs exact pair counting."""

import numpy as np
import pytest

from repro.model.decomposition import decompose
from repro.model.halo import estimate_halo
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search


def _exact_halo(x, support, box, d):
    """True halo: remote particles within `support` of any local one."""
    nl = cell_grid_search(x, support, box, mode="gather", include_self=False)
    i, j = nl.pairs()
    recv = np.zeros((d.n_ranks, d.n_ranks))
    ri, rj = d.assignment[i], d.assignment[j]
    cross = ri != rj
    # Count each remote particle once per receiving rank.
    pairs = np.unique(np.stack([ri[cross], j[cross]], axis=1), axis=0)
    for r, jj in pairs:
        recv[r, d.assignment[jj]] += 1
    return recv


@pytest.mark.parametrize("method", ["orb", "sfc-hilbert", "uniform-slabs"])
def test_estimate_is_a_tight_upper_bound(rng, method):
    x = rng.random((3000, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose(method, x, 8, box)
    support = 0.08
    est = estimate_halo(x, support, box, d)
    exact = _exact_halo(x, support, box, d)
    # Upper bound...
    assert np.all(est.recv + 1e-9 >= exact)
    # ...and not wildly loose (cells are one support wide).
    assert est.recv_totals().sum() < 20 * max(exact.sum(), 1)


def test_no_self_reception(rng):
    x = rng.random((2000, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose("orb", x, 4, box)
    est = estimate_halo(x, 0.1, box, d)
    assert np.all(np.diag(est.recv) == 0)


def test_periodic_wraparound_included():
    """Two slabs at opposite box faces must exchange under periodicity."""
    rng = np.random.default_rng(5)
    x = rng.random((4000, 3))
    d = decompose("uniform-slabs", x, 8)
    box_open = Box.cube(0.0, 1.0, dim=3)
    box_per = Box.cube(0.0, 1.0, dim=3, periodic=True)
    est_open = estimate_halo(x, 0.05, box_open, d)
    est_per = estimate_halo(x, 0.05, box_per, d)
    # Slab 0 and slab 7 touch only through the periodic face.
    assert est_open.recv[0, 7] == 0
    assert est_per.recv[0, 7] > 0


def test_totals_and_partners(rng):
    x = rng.random((3000, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose("sfc-morton", x, 6, box)
    est = estimate_halo(x, 0.1, box, d)
    assert est.n_ranks == 6
    assert np.allclose(est.recv_totals(), est.recv.sum(axis=1))
    assert np.allclose(est.send_totals(), est.recv.sum(axis=0))
    assert np.all(est.partners() <= 5)


def test_support_widens_halo(rng):
    x = rng.random((3000, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    d = decompose("orb", x, 8, box)
    small = estimate_halo(x, 0.03, box, d).recv_totals().sum()
    large = estimate_halo(x, 0.12, box, d).recv_totals().sum()
    assert large > small


def test_invalid_support(rng):
    x = rng.random((100, 3))
    d = decompose("orb", x, 2)
    with pytest.raises(ValueError, match="support"):
        estimate_halo(x, 0.0, Box.cube(0, 1, 3), d)
