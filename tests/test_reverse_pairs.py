"""Each pair's work once on the numpy path, same bits.

* the reverse-pair index — ``NeighborList.transpose`` of the symmetric
  lists every search emits (cell grid, tree walk, ``within``; 1-, 2- and
  3-D, periodic and open, lattice pairs exactly on the cutoff) is an
  involution taking every pair to its reverse; a gather-mode list and a
  list whose rows are not ascending have none;
* reverse-pair products — ``w_j``, ``grad_j`` and the IAD ``A^(j)`` read
  off the reverse pair are bitwise the direct expressions, for every
  registered kernel in 1-, 2- and 3-D, and the support cut's index is
  its own list's;
* h-iteration counts — bisecting the row-sorted separations gives the
  ``bincount`` of the pair list (pairs exactly at ``2 h``, empty and
  uneven rows), and every ``max_iterations`` prefix of the cached-list
  iteration ends on the ``bincount`` loop's ``h``;
* IAD moments — the mirrored distinct products are bitwise the nine
  products per pair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.particles import ParticleSystem
from repro.gradients.iad import _moments, iad_pair_gradients
from repro.kernels.registry import available_kernels, make_kernel
from repro.sph.smoothing import (
    SmoothingConfig,
    _counts_within,
    _sorted_rows,
    adapt_from_cached_list,
    update_smoothing_lengths,
)
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.neighborlist import NeighborList, VerletNeighborCache
from repro.tree.octree import Octree
from repro.tree.pairs import Pairs

#: Lattice sides whose spacing is a power of two: separations along an
#: axis are exact, so whole shells of pairs sit exactly on a cutoff that
#: is a multiple of the spacing.
_SIDES = {1: 32, 2: 8, 3: 8}


def _points(layout, dim, seed):
    side = _SIDES[dim]
    if layout == "lattice":
        axes = [(np.arange(side) + 0.5) / side] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    return np.random.default_rng(seed).random((side**dim, dim))


def _radii(layout, dim, seed, spacings):
    """``spacings`` lattice spacings — uniform on a lattice (ties at the
    cutoff), varying by up to 20 % per particle on a random cloud."""
    n, spacing = _SIDES[dim] ** dim, 1.0 / _SIDES[dim]
    if layout == "lattice":
        return np.full(n, spacings * spacing)
    return spacings * spacing * np.random.default_rng(seed + 1).uniform(0.8, 1.2, n)


def _search(path, x, radii, box):
    if path == "grid":
        return cell_grid_search(x, radii, box, mode="symmetric")
    if path == "tree":
        tree = Octree.build(x, box, leaf_size=8)
        return tree.walk_neighbors(x, radii, mode="symmetric")
    padded = cell_grid_search(x, 1.3 * radii, box, mode="symmetric")
    return padded.within(x, radii, box)


cases = st.fixed_dictionaries(
    {
        "dim": st.sampled_from([1, 2, 3]),
        "periodic": st.booleans(),
        "layout": st.sampled_from(["lattice", "random"]),
        "seed": st.integers(0, 2**16),
        "path": st.sampled_from(["grid", "tree", "within"]),
        "spacings": st.sampled_from([1.0, 1.5, 2.0, 2.5]),
    }
)


def _case(dim, periodic, layout, seed, path, spacings):
    x = _points(layout, dim, seed)
    box = Box.cube(0.0, 1.0, dim=dim, periodic=periodic)
    radii = _radii(layout, dim, seed, spacings)
    return x, box, radii, _search(path, x, radii, box)


def _particles(x, h, rng):
    n, dim = x.shape
    return ParticleSystem(
        x=x.copy(), v=rng.normal(size=(n, dim)), m=np.full(n, 1.0 / n), h=h.copy()
    )


# ----------------------------------------------------------------------
# The reverse-pair index
# ----------------------------------------------------------------------
@given(case=cases)
@settings(max_examples=60, deadline=None)
def test_transpose_takes_every_pair_to_its_reverse(case):
    _, _, _, nlist = _case(**case)
    rev = nlist.transpose()
    assert rev is not None
    i, j = nlist.pairs()
    assert np.array_equal(rev[rev], np.arange(nlist.n_pairs))
    assert np.array_equal(i[rev], j) and np.array_equal(j[rev], i)
    assert nlist.transpose() is rev  # memoised on the frozen list


def test_lists_without_reverse_pairs_have_no_index(rng):
    n = 300
    x = rng.random((n, 3))
    h = rng.uniform(0.05, 0.12, size=n)
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    gather = cell_grid_search(x, 2.0 * h, box, mode="gather")
    assert gather.transpose() is None
    symmetric = cell_grid_search(x, 2.0 * h, box, mode="symmetric")
    assert symmetric.transpose() is not None
    descending = NeighborList(
        symmetric.offsets,
        np.concatenate([symmetric.neighbors_of(k)[::-1] for k in range(n)]),
    )
    assert descending.transpose() is None


# ----------------------------------------------------------------------
# Products read off the reverse pair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("name", available_kernels())
def test_reverse_pair_products_equal_the_direct_expressions(name, dim, rng):
    """Self pairs, periodic images and a cut that drops pairs included."""
    kernel = make_kernel(name)
    n = {1: 60, 2: 150, 3: 300}[dim]
    x = rng.random((n, dim))
    # Searched radii stay under half the unit box.
    h = rng.uniform(0.3, 0.6, size=n) * (8.0 / n) ** (1.0 / dim)
    box = Box.cube(0.0, 1.0, dim=dim, periodic=True)
    padded = cell_grid_search(x, 1.3 * kernel.support * h, box, mode="symmetric")
    whole = Pairs(_particles(x, h, rng), padded, kernel, box)
    cut = whole.support()
    assert cut.nlist.n_pairs < padded.n_pairs
    assert np.array_equal(cut.rev, cut.nlist.transpose())
    c = rng.normal(size=(n, dim, dim))
    for pairs in (whole, cut):
        assert pairs.rev is not None
        (i, j), dx, r = pairs.nlist.pairs(), pairs.dx, pairs.r
        assert np.array_equal(pairs.w_j, kernel.value(r, h[j], dim))
        assert np.array_equal(pairs.grad_j, kernel.gradient(dx, r, h[j], dim))
        got = iad_pair_gradients(c, i, j, dx, pairs.w_i, pairs.w_j, rev=pairs.rev)
        assert np.array_equal(
            got.gi, np.einsum("kab,kb->ka", c[i], -dx) * pairs.w_i[:, None]
        )
        assert np.array_equal(
            got.gj, np.einsum("kab,kb->ka", c[j], -dx) * pairs.w_j[:, None]
        )
    # A row slice holds no reverse pairs: its products are computed.
    a, b = cut.nlist.offsets[n // 3], cut.nlist.offsets[n // 2]
    part = cut.rows(n // 3, n // 2)
    assert part.rev is None
    assert np.array_equal(part.w_j, cut.w_j[a:b])
    assert np.array_equal(part.grad_j, cut.grad_j[a:b])


# ----------------------------------------------------------------------
# h-iteration counts off row-sorted separations
# ----------------------------------------------------------------------
@given(case=cases, drop=st.integers(0, 4), scale=st.sampled_from([0.0, 0.5, 1.0, 1.25]))
@settings(max_examples=60, deadline=None)
def test_row_sorted_counts_equal_the_bincount(case, drop, scale):
    """Count radii at the list's own cutoff (lattice shells exactly on
    it), inside it, and zero; rows of every length, some emptied."""
    x, box, radii, nlist = _case(**case)
    if drop:
        # Every ``drop+1``-th row emptied: uneven rows, some of length 0.
        i = nlist.pair_i()
        keep = i % (drop + 1) != 0
        counts = np.bincount(i[keep], minlength=nlist.n)
        nlist = NeighborList(np.concatenate([[0], np.cumsum(counts)]), nlist.indices[keep])
    i = nlist.pair_i()
    _, r = nlist.pair_geometry(x, box)
    rows = _sorted_rows(nlist, r)
    radius = scale * radii
    want = np.bincount(i[r <= radius[i]], minlength=nlist.n)
    assert np.array_equal(_counts_within(rows, radius, np.arange(nlist.n)), want)


def _bincount_iteration(p, nlist, box, config):
    """The h iteration as a ``bincount`` of the pair list per sweep: a
    particle stops within the tolerance or on an update of at most
    ``tolerance / dim`` (keeping its ``h``)."""
    i = nlist.pair_i()
    _, r = nlist.pair_geometry(p.x, box)
    running = np.ones(p.n, dtype=bool)
    for _ in range(config.max_iterations):
        counts = np.bincount(i[r <= 2.0 * p.h[i]], minlength=p.n)
        h_new = np.clip(
            update_smoothing_lengths(p.h, counts, config.n_target, p.dim),
            config.h_min, config.h_max,
        )
        within = np.abs(counts - config.n_target) / config.n_target <= config.tolerance
        small = np.abs(h_new - p.h) <= config.tolerance / p.dim * p.h
        running &= ~(within | small)
        p.h[running] = h_new[running]


@pytest.mark.parametrize("max_iterations", range(7))
@pytest.mark.parametrize("layout", ["lattice", "random"])
@pytest.mark.parametrize("spacings", [0.9, 1.0, 1.4])
def test_every_iteration_prefix_ends_on_the_bincount_h(max_iterations, layout, spacings, rng):
    dim = 3
    x = _points(layout, dim, 7)
    box = Box.cube(0.0, 1.0, dim=dim, periodic=True)
    h = _radii(layout, dim, 7, spacings)
    cache = VerletNeighborCache()
    # Built for a larger h: every iterate stays inside the budget.
    cache.store(cell_grid_search(x, cache.search_factor * 1.5 * h, box, mode="symmetric"),
                x, 1.5 * h)
    config = SmoothingConfig(n_target=32, tolerance=0.01, max_iterations=max_iterations)
    got, want = _particles(x, h, rng), _particles(x, h, rng)
    adapt_from_cached_list(got, cache.lookup(x, 1.5 * h, box), box, config, cache)
    _bincount_iteration(want, cache.lookup(x, 1.5 * h, box), box, config)
    assert cache.stats.searches == 0
    assert np.array_equal(got.h, want.h)


# ----------------------------------------------------------------------
# IAD moments
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_iad_moments_mirror_the_nine_products(dim, rng):
    n = {1: 60, 2: 150, 3: 300}[dim]
    x = rng.random((n, dim))
    # Searched radii stay under half the unit box.
    h = rng.uniform(0.3, 0.6, size=n) * (8.0 / n) ** (1.0 / dim)
    box = Box.cube(0.0, 1.0, dim=dim, periodic=dim != 2)
    kernel = make_kernel("cubic-spline")
    nlist = cell_grid_search(x, kernel.support * h, box, mode="symmetric")
    pairs = Pairs(_particles(x, h, rng), nlist, kernel, box)
    weights = rng.uniform(0.5, 2.0, size=nlist.n_pairs) * pairs.w_i
    dx = pairs.dx
    nine = pairs.reduce(dx[:, :, None] * dx[:, None, :] * weights[:, None, None])
    assert np.array_equal(_moments(pairs, weights), nine)
