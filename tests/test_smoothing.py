"""Smoothing-length adaptation toward the target neighbour count."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import select_backend
from repro.core.particles import ParticleSystem
from repro.sph.smoothing import (
    GROWTH_PAD,
    SmoothingConfig,
    adapt_from_cached_list,
    adapt_smoothing_lengths,
    update_smoothing_lengths,
)
from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.neighborlist import VerletNeighborCache
from repro.tree.octree import Octree


def test_update_formula_fixed_point():
    """When counts hit the target, h is unchanged."""
    h = np.array([0.1, 0.2])
    out = update_smoothing_lengths(h, np.array([50, 50]), 50, 3)
    assert np.allclose(out, h)


def test_update_moves_toward_target():
    h = np.array([0.1, 0.1])
    grew = update_smoothing_lengths(h, np.array([10, 10]), 80, 3)
    shrank = update_smoothing_lengths(h, np.array([640, 640]), 80, 3)
    assert np.all(grew > h)
    assert np.all(shrank < h)


@given(
    count=st.integers(1, 100_000),
    target=st.integers(1, 1000),
    h=st.floats(min_value=1e-6, max_value=1e3),
)
@settings(max_examples=60, deadline=None)
def test_update_damped_property(count, target, h):
    """One update never overshoots by more than the undamped step."""
    out = float(update_smoothing_lengths(np.array([h]), np.array([count]), target, 3)[0])
    undamped = h * (target / max(count, 1)) ** (1.0 / 3.0)
    lo, hi = sorted((h, undamped))
    assert lo - 1e-12 <= out <= hi + 1e-12


def test_adaptation_stops_every_particle_by_its_rule_on_lattice(small_lattice):
    """From a count of 1, every particle ends inside the count tolerance
    or on an update below ``tolerance / dim`` — here the lattice's 27
    (error 0.33 > 0.25): the next shell holds 33, a damped update toward
    40 moves ``h`` by 7 % < 8.3 %, and the particle keeps its ``h``."""
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    cfg = SmoothingConfig(n_target=40, tolerance=0.25, max_iterations=15)
    small_lattice.h[:] = 0.05  # deliberately too small: one neighbour
    nl, _ = adapt_smoothing_lengths(small_lattice, box, cfg, VerletNeighborCache())
    h = small_lattice.h
    i, _ = nl.pairs()
    _, r = nl.pair_geometry(small_lattice.x, box)
    counts = np.bincount(i[r <= 2.0 * h[i]], minlength=small_lattice.n)
    within = np.abs(counts - 40) / 40 <= cfg.tolerance
    step = update_smoothing_lengths(h, counts, 40, 3) - h
    assert np.all(within | (np.abs(step) <= cfg.tolerance / 3 * h))
    assert np.all(counts == 27)


def test_adaptation_with_tree_walk_search(small_lattice):
    from repro.tree.octree import Octree

    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    tree = Octree.build(small_lattice.x, box, leaf_size=16)

    def search(x, radii, box_, mode):
        return tree.walk_neighbors(x, radii, mode=mode)

    cfg = SmoothingConfig(n_target=30, tolerance=0.3)
    nl, _ = adapt_smoothing_lengths(
        small_lattice, box, cfg, VerletNeighborCache(), search=search
    )
    assert nl.n == small_lattice.n
    assert nl.n_pairs > 0


def test_config_validation():
    with pytest.raises(ValueError, match="n_target"):
        SmoothingConfig(n_target=0)
    with pytest.raises(ValueError, match="tolerance"):
        SmoothingConfig(tolerance=1.5)


def test_h_bounds_respected(small_lattice):
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    cfg = SmoothingConfig(n_target=500, tolerance=0.05, h_max=0.2, max_iterations=8)
    adapt_smoothing_lengths(small_lattice, box, cfg, VerletNeighborCache())
    assert np.all(small_lattice.h <= 0.2 + 1e-12)


# ----------------------------------------------------------------------
# One search per list build
# ----------------------------------------------------------------------
def _oracle_adapt(particles, box, config, search, factor):
    """The h iteration with a fresh neighbour search on every sweep.

    Reference for :func:`adapt_smoothing_lengths` (which searches once):
    every particle still running counts, then stops when its count is
    within the tolerance or when its update would move ``h`` by at most
    ``tolerance / dim`` (keeping its ``h``), and otherwise takes the
    update; ``max_iterations`` sweeps at most.  Same counts, same update,
    same rule, so ``h`` must come out bitwise equal.  Kept in the tests
    only.  (A pair whose rounded distance equals ``2 h_i`` to the last
    bit can sit on either side of a search cutoff of that same radius, so
    trajectory draws keep ``2 h`` off lattice distances.)
    """
    h = particles.h
    n_target, dim = config.n_target, particles.dim
    running = np.ones(particles.n, dtype=bool)
    for _ in range(config.max_iterations):
        nlist = search(particles.x, factor * h, box, "symmetric")
        i, _ = nlist.pairs()
        _, r = nlist.pair_geometry(particles.x, box)
        counts = np.bincount(i[r <= 2.0 * h[i]], minlength=particles.n)
        h_new = np.clip(
            update_smoothing_lengths(h, counts, n_target, dim),
            config.h_min,
            config.h_max,
        )
        within = np.abs(counts - n_target) / n_target <= config.tolerance
        small = np.abs(h_new - h) <= config.tolerance / dim * h
        running &= ~(within | small)
        h[running] = h_new[running]
        if not running.any():
            break
    return search(particles.x, factor * h, box, "symmetric")


def _points(layout, dim, side, seed):
    """``side**dim`` points in the unit box: a lattice or uniform random."""
    if layout == "lattice":
        axes = [(np.arange(side) + 0.5) / side] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    return np.random.default_rng(seed).random((side**dim, dim))


def _particles(x, h):
    n, dim = x.shape
    return ParticleSystem(
        x=x.copy(), v=np.zeros((n, dim)), m=np.full(n, 1.0 / n), h=np.full(n, float(h))
    )


def _searches(x, box, ops=None):
    """The search paths as ``search(x, radii, box, mode)`` callables.

    ``"tree-raw"`` is the driver's: the compiled walk leaves its rows in
    traversal order (the numpy walk has no such order to leave them in).
    """
    tree = Octree.build(x, box, leaf_size=8)
    return {
        "tree": lambda x_, radii, box_, mode: tree.walk_neighbors(
            x_, radii, mode=mode, ops=ops
        ),
        "tree-raw": lambda x_, radii, box_, mode: tree.walk_neighbors(
            x_, radii, mode=mode, ops=ops, sort_rows=False
        ),
        "grid": lambda x_, radii, box_, mode: cell_grid_search(
            x_, radii, box_, mode=mode
        ),
    }


_SIDES = {1: 60, 2: 12, 3: 6}
_TARGETS = {1: 8, 2: 20, 3: 32}

build_cases = st.fixed_dictionaries(
    {
        "dim": st.sampled_from([1, 2, 3]),
        "periodic": st.booleans(),
        "layout": st.sampled_from(["lattice", "random"]),
        "seed": st.integers(0, 2**16),
        "path": st.sampled_from(["tree", "tree-raw", "grid"]),
        "compiled": st.booleans(),
    }
)


@given(
    case=build_cases,
    # Multiples of half a lattice spacing put whole shells of pairs exactly
    # on the first count radius and, when no sweep is needed, on the final
    # search radius; small and large values force growth and shrinkage.
    h_over_spacing=st.sampled_from([0.5, 1.0, 1.5, 2.0, 0.8, 1.37]),
    tolerance=st.sampled_from([0.05, 0.3, 0.9]),
    # A small cap with a growing start stops rows outside their list.
    max_iterations=st.integers(0, 10),
)
@settings(max_examples=60, deadline=None)
def test_built_list_is_the_fresh_search_at_final_h(
    case, h_over_spacing, tolerance, max_iterations
):
    """Search, iterate, cut: offsets and indices of a fresh search, also
    when the cap stops a row whose h has left the searched list."""
    dim = case["dim"]
    x = _points(case["layout"], dim, _SIDES[dim], case["seed"])
    box = Box.cube(0.0, 1.0, dim=dim, periodic=case["periodic"])
    p = _particles(x, h_over_spacing / _SIDES[dim])
    # "auto" degrades to numpy (ops None) where nothing compiles.
    backend = select_backend("auto") if case["compiled"] else None
    ops = backend.ops if backend is not None else None
    search = _searches(x, box, ops)[case["path"]]
    cache = VerletNeighborCache()
    cfg = SmoothingConfig(
        n_target=_TARGETS[dim], tolerance=tolerance, max_iterations=max_iterations
    )

    built, _ = adapt_smoothing_lengths(
        p, box, cfg, cache, search=search, backend=backend
    )
    fresh = _searches(x, box, ops)["tree"](
        p.x, cache.search_factor * p.h, box, "symmetric"
    )
    assert np.array_equal(built.offsets, fresh.offsets)
    assert np.array_equal(built.indices, fresh.indices)
    assert cache.lookup(p.x, p.h, box) is built
    assert np.array_equal(cache.h_ref, p.h)


@given(
    case=build_cases,
    h_over_spacing=st.sampled_from([0.53, 0.71, 0.97, 1.23, 1.9]),
    max_iterations=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_h_trajectory_equals_per_sweep_search_oracle(
    case, h_over_spacing, max_iterations
):
    """Every prefix of the iteration ends on the oracle's h, bit for bit."""
    dim = case["dim"]
    x = _points(case["layout"], dim, _SIDES[dim], case["seed"])
    box = Box.cube(0.0, 1.0, dim=dim, periodic=case["periodic"])
    # "auto" degrades to numpy (ops None) where nothing compiles.
    backend = select_backend("auto") if case["compiled"] else None
    search = _searches(x, box, backend.ops if backend else None)[case["path"]]
    cache = VerletNeighborCache()
    cfg = SmoothingConfig(
        n_target=_TARGETS[dim], tolerance=0.05, max_iterations=max_iterations
    )

    p = _particles(x, h_over_spacing / _SIDES[dim])
    adapt_smoothing_lengths(p, box, cfg, cache, search=search, backend=backend)
    ref = _particles(x, h_over_spacing / _SIDES[dim])
    _oracle_adapt(
        ref, box, cfg, _searches(x, box)[case["path"]], cache.search_factor
    )
    assert np.array_equal(p.h, ref.h)


def _counting(search):
    calls = []

    def counted(x, radii, box, mode):
        calls.append(radii.copy())
        return search(x, radii, box, mode)

    return counted, calls


def test_build_costs_one_search_and_out_growing_it_one_more(rng):
    x = rng.random((600, 3))
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    cfg = SmoothingConfig(n_target=40, tolerance=0.05)
    search, calls = _counting(_searches(x, box)["tree"])
    cache = VerletNeighborCache()
    factor = cache.search_factor

    # Every search is padded by GROWTH_PAD, a run's first too.  Inflated
    # h only shrinks: every sweep counts off the one list.
    p = _particles(x, 0.16)
    adapt_smoothing_lengths(p, box, cfg, cache, search=search)
    assert len(calls) == 1
    assert np.array_equal(calls[0], factor * (np.full(600, 0.16) * GROWTH_PAD))
    h_final = p.h.copy()

    # A few per cent of growth costs exactly that one search.
    calls.clear()
    p.h[:] = 0.95 * h_final
    adapt_smoothing_lengths(p, box, cfg, cache, search=search)
    assert len(calls) == 1
    assert np.array_equal(calls[0], factor * (0.95 * h_final * GROWTH_PAD))

    # Out-growing the pad costs exactly one more, from the iterates where
    # the rows stopped: a row still running is padded by the growth it
    # showed on top, the others by GROWTH_PAD alone.
    seen = []
    start = 0.8 * h_final
    p.h[:] = start

    def watched(x_, radii, box_, mode):
        seen.append((radii.copy(), p.h.copy()))
        return search(x_, radii, box_, mode)

    adapt_smoothing_lengths(p, box, cfg, cache, search=watched)
    assert len(seen) == 2
    radii, h = seen[1]
    grown = h > start * GROWTH_PAD
    assert grown.any() and not grown.all()
    assert np.array_equal(radii[~grown], factor * (h * GROWTH_PAD)[~grown])
    assert np.array_equal(
        radii[grown], factor * (h * GROWTH_PAD * (h / start))[grown]
    )


def test_cached_list_out_grown_mid_iteration_rebuilds_in_place(rng):
    """No restore-and-replay: the hit carries on as a build."""
    x = rng.random((600, 3))
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    cfg = SmoothingConfig(n_target=40, tolerance=0.05)
    p = _particles(x, 0.12)
    cache = VerletNeighborCache()
    search, calls = _counting(_searches(x, box)["tree"])
    adapt_smoothing_lengths(p, box, cfg, cache, search=search)
    assert (cache.stats.builds, cache.stats.searches) == (1, len(calls))

    # Within the budget: the cached list comes back untouched, no search.
    n_calls = len(calls)
    cached = cache.lookup(p.x, p.h, box)
    assert adapt_from_cached_list(p, cached, box, cfg, cache, search=search)[0] is cached
    assert len(calls) == n_calls and cache.stats.builds == 1

    # A higher target drives h through the growth budget mid-iteration.
    grow = SmoothingConfig(n_target=80, tolerance=0.05)
    ref = _particles(x, 1.0)
    ref.h[:] = p.h
    cached = cache.lookup(p.x, p.h, box)
    out, _ = adapt_from_cached_list(p, cached, box, grow, cache, search=search)
    assert out is not cached
    assert len(calls) > n_calls
    assert (cache.stats.builds, cache.stats.searches) == (2, len(calls))
    assert cache.stats.hits == 2 and cache.stats.misses_h_change == 0
    _oracle_adapt(ref, box, grow, _searches(x, box)["tree"], cache.search_factor)
    assert np.array_equal(p.h, ref.h)
    fresh = search(p.x, cache.search_factor * p.h, box, "symmetric")
    assert np.array_equal(out.indices, fresh.indices)
    assert cache.lookup(p.x, p.h, box) is out


# ----------------------------------------------------------------------
# The fused compiled h iteration against the numpy sweep loop
# ----------------------------------------------------------------------
def _clustered(dim, seed):
    """Most points inside one tight ball: the first search's rows are
    longer than any fixed-size buffer could be."""
    rng = np.random.default_rng(seed)
    n = {1: 320, 2: 420, 3: 520}[dim]
    x = rng.random((n, dim))
    x[: n - 40] = 0.5 + 0.02 * (x[: n - 40] - 0.5)
    return x


def _adapt_twice(case, compiled):
    """A build, then a second adaptation off the cached list towards
    ``grow`` times the target; ``(h, h, stats, lists, searches)``."""
    dim = case["dim"]
    if case["layout"] == "clustered":
        x = _clustered(dim, case["seed"])
    else:
        x = _points(case["layout"], dim, _SIDES[dim], case["seed"])
    box = Box.cube(0.0, 1.0, dim=dim, periodic=case["periodic"])
    backend = select_backend("cffi") if compiled else None
    ops = backend.ops if backend is not None else None
    search, calls = _counting(_searches(x, box, ops)["tree-raw" if compiled else "tree"])
    cache = VerletNeighborCache()
    cfg = SmoothingConfig(
        n_target=_TARGETS[dim], tolerance=case["tolerance"],
        max_iterations=case["max_iterations"],
    )
    p = _particles(x, case["h_over_spacing"] / _SIDES[dim])
    first, _ = adapt_smoothing_lengths(
        p, box, cfg, cache, search=search, backend=backend
    )
    h_first = p.h.copy()
    grown = SmoothingConfig(
        n_target=case["grow"] * _TARGETS[dim], tolerance=case["tolerance"],
        max_iterations=case["max_iterations"],
    )
    second, _ = adapt_from_cached_list(
        p, cache.lookup(p.x, p.h, box), box, grown, cache,
        search=search, backend=backend,
    )
    return h_first, p.h, cache.stats, (first, second), calls


fused_cases = st.fixed_dictionaries(
    {
        "dim": st.sampled_from([1, 2, 3]),
        "periodic": st.booleans(),
        "layout": st.sampled_from(["lattice", "random", "clustered"]),
        "seed": st.integers(0, 2**16),
        # Whole and half lattice spacings put shells of pairs on the count
        # radius (ties); small and large values force growth and shrinkage.
        "h_over_spacing": st.sampled_from([0.5, 0.8, 1.0, 1.37, 2.0]),
        # 0.9 is met within a sweep or two, 0.05 hardly ever: with the
        # sweep budget, every exit of the loop is drawn.
        "tolerance": st.sampled_from([0.05, 0.3, 0.9]),
        "max_iterations": st.integers(0, 10),
        # 2 and 3 drive the second adaptation through the cache's growth
        # budget mid-iteration: it rebuilds in place.
        "grow": st.sampled_from([1, 2, 3]),
    }
)

_STATS = (
    "sweeps", "within_tolerance", "particles", "searches", "pairs_searched",
    "adaptations", "hits", "builds",
)


def _assert_lists_are_fresh_searches(case, h1, h2, lists):
    """A build returns the fresh search at its final ``h``: the first
    adaptation, and the cached one where it out-grew the cached list
    (else that list comes back, holding every pair within ``2 h``)."""
    dim = case["dim"]
    if case["layout"] == "clustered":
        x = _clustered(dim, case["seed"])
    else:
        x = _points(case["layout"], dim, _SIDES[dim], case["seed"])
    box = Box.cube(0.0, 1.0, dim=dim, periodic=case["periodic"])
    factor = VerletNeighborCache().search_factor
    search = _searches(x, box)["tree"]
    first, second = lists
    fresh = search(x, factor * h1, box, "symmetric")
    assert np.array_equal(first.offsets, fresh.offsets)
    assert np.array_equal(first.indices, fresh.indices)
    radius = (factor if second is not first else 2.0) * h2
    fresh = search(x, radius, box, "symmetric")
    kept = second.within(x, radius, box)
    assert np.array_equal(kept.offsets, fresh.offsets)
    assert np.array_equal(kept.indices, fresh.indices)
    if second is not first:
        assert np.array_equal(second.indices, fresh.indices)


def _assert_fused_equals_numpy(case):
    h1, h2, stats, lists, calls = _adapt_twice(case, compiled=True)
    r1, r2, ref_stats, ref_lists, ref_calls = _adapt_twice(case, compiled=False)
    _assert_lists_are_fresh_searches(case, r1, r2, ref_lists)
    assert np.array_equal(h1, r1) and np.array_equal(h2, r2)
    assert len(calls) == len(ref_calls)
    for radii, ref_radii in zip(calls, ref_calls):
        assert np.array_equal(radii, ref_radii)
    for got, ref in zip(lists, ref_lists):
        assert np.array_equal(got.offsets, ref.offsets)
        assert np.array_equal(got.indices, ref.indices)
    for name in _STATS:
        assert getattr(stats, name) == getattr(ref_stats, name), name
    return stats


needs_cffi = pytest.mark.skipif(
    select_backend("auto").ops is None, reason="no C toolchain on this host"
)


@needs_cffi
@given(case=fused_cases)
@settings(max_examples=80, deadline=None)
def test_fused_h_iteration_equals_the_numpy_sweep_loop(case):
    """``h`` bit for bit, the same lists (those of a fresh search at the
    final ``h``), the same searches at the same radii and the same
    counters, whichever way the iteration ends."""
    _assert_fused_equals_numpy(case)


@needs_cffi
@pytest.mark.parametrize(
    "overrides, sweeps, within, searches",
    [
        # every particle of both adaptations (2 x 216) within the
        # tolerance at its first sweep: nothing re-searched
        (dict(tolerance=0.9), 432, 432, 1),
        # rows out-grow the lists of both builds (four searches): each
        # carries on in place
        (dict(grow=3), 1954, 174, 4),
        # the cap: one sweep each; rows that leave the list on their last
        # update cost the build one re-search, with no sweep run off it
        (dict(max_iterations=1), 432, 10, 2),
        # a lattice: the particles not within the tolerance stop on an
        # update below tolerance / dim, long before the cap
        (dict(layout="lattice", h_over_spacing=1.0), 584, 304, 1),
    ],
    ids=["met", "out-grown", "max-iterations", "small-update"],
)
def test_fused_h_iteration_takes_every_exit(overrides, sweeps, within, searches):
    case = dict(
        dim=3, periodic=True, layout="random", seed=7,
        h_over_spacing=0.8, tolerance=0.05, max_iterations=10, grow=1,
    )
    case.update(overrides)
    stats = _assert_fused_equals_numpy(case)
    assert stats.particles == 432
    assert (stats.sweeps, stats.within_tolerance, stats.searches) == (
        sweeps, within, searches
    )


@needs_cffi
def test_fused_h_iteration_serves_rows_longer_than_any_fixed_buffer():
    case = dict(
        dim=3, periodic=False, layout="clustered", seed=3,
        h_over_spacing=0.8, tolerance=0.05, max_iterations=10, grow=1,
    )
    _, _, _, (first, _), _ = _adapt_twice(case, compiled=True)
    _assert_fused_equals_numpy(case)
    # The built list is cut to the final h; the searched one held the
    # cluster whole in every row of it.
    assert first.longest_row > 256
