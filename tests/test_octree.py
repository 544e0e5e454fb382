"""Linear octree: structural invariants, aggregates, tree-walk search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.box import Box
from repro.tree.cellgrid import cell_grid_search
from repro.tree.octree import Octree


@pytest.fixture
def tree_and_points(rng):
    x = rng.random((1500, 3))
    box = Box.cube(0.0, 1.0, dim=3)
    return Octree.build(x, box, leaf_size=16), x, box


def test_root_covers_everything(tree_and_points):
    tree, x, _ = tree_and_points
    assert tree.pstart[0] == 0
    assert tree.pend[0] == x.shape[0]
    assert tree.level[0] == 0


def test_children_partition_parent(tree_and_points):
    tree, _, _ = tree_and_points
    for k in range(tree.n_nodes):
        cc = tree.child_count[k]
        if cc == 0:
            continue
        cs = tree.child_start[k]
        kids = np.arange(cs, cs + cc)
        # Contiguous coverage of the parent's particle range.
        assert tree.pstart[kids[0]] == tree.pstart[k]
        assert tree.pend[kids[-1]] == tree.pend[k]
        assert np.all(tree.pend[kids[:-1]] == tree.pstart[kids[1:]])
        assert np.all(tree.level[kids] == tree.level[k] + 1)
        # No empty children are stored.
        assert np.all(tree.pend[kids] > tree.pstart[kids])


def test_leaves_tile_particle_range(tree_and_points):
    tree, x, _ = tree_and_points
    leaves = np.nonzero(tree.is_leaf())[0]
    order = np.argsort(tree.pstart[leaves])
    leaves = leaves[order]
    assert tree.pstart[leaves[0]] == 0
    assert tree.pend[leaves[-1]] == x.shape[0]
    assert np.all(tree.pend[leaves[:-1]] == tree.pstart[leaves[1:]])


def test_leaf_size_respected(tree_and_points):
    tree, _, _ = tree_and_points
    leaves = tree.is_leaf()
    max_level = tree.level.max()
    counts = tree.node_counts()
    # Any oversized leaf must sit at the maximum refinement level.
    oversized = leaves & (counts > 16)
    assert np.all(tree.level[oversized] == max_level) or not oversized.any()


def test_particles_inside_node_bounds(tree_and_points):
    tree, x, _ = tree_and_points
    xs = x[tree.order]
    for k in range(0, tree.n_nodes, 37):  # sample nodes
        sl = xs[tree.pstart[k] : tree.pend[k]]
        assert np.all(np.abs(sl - tree.center[k]) <= tree.half[k] + 1e-9)


def test_node_aggregate_matches_direct(tree_and_points, rng):
    tree, x, _ = tree_and_points
    vals = rng.normal(size=x.shape[0])
    agg = tree.node_aggregate(vals)
    xs = vals[tree.order]
    for k in range(0, tree.n_nodes, 23):
        assert agg[k] == pytest.approx(xs[tree.pstart[k] : tree.pend[k]].sum(), abs=1e-9)


def test_node_aggregate_vector(tree_and_points, rng):
    tree, x, _ = tree_and_points
    vals = rng.normal(size=(x.shape[0], 3))
    agg = tree.node_aggregate(vals)
    assert agg.shape == (tree.n_nodes, 3)
    assert np.allclose(agg[0], vals.sum(axis=0))


def test_node_max_matches_direct(tree_and_points, rng):
    tree, x, _ = tree_and_points
    vals = rng.normal(size=x.shape[0])
    nm = tree.node_max(vals)
    xs = vals[tree.order]
    for k in range(0, tree.n_nodes, 17):
        assert nm[k] == pytest.approx(xs[tree.pstart[k] : tree.pend[k]].max())


@pytest.mark.parametrize("mode", ["gather", "symmetric"])
def test_walk_matches_cell_grid(tree_and_points, rng, mode):
    tree, x, box = tree_and_points
    radii = rng.uniform(0.04, 0.12, x.shape[0])
    a = tree.walk_neighbors(x, radii, mode=mode)
    b = cell_grid_search(x, radii, box, mode=mode)
    assert np.array_equal(a.offsets, b.offsets)
    for i in range(0, x.shape[0], 13):
        assert set(a.neighbors_of(i).tolist()) == set(b.neighbors_of(i).tolist())


def test_walk_periodic(rng):
    x = rng.random((400, 3))
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    tree = Octree.build(x, box, leaf_size=8)
    a = tree.walk_neighbors(x, 0.1, mode="gather")
    b = cell_grid_search(x, 0.1, box, mode="gather")
    assert np.array_equal(a.offsets, b.offsets)


def test_identical_positions_terminate():
    """Duplicate positions cannot be split; build must still terminate."""
    x = np.zeros((100, 3)) + 0.5
    tree = Octree.build(x, Box.cube(0, 1, 3), leaf_size=4)
    assert tree.n_particles == 100
    counts = tree.node_counts()
    assert counts[0] == 100


def test_leaf_size_validation():
    with pytest.raises(ValueError, match="leaf_size"):
        Octree.build(np.random.default_rng(0).random((10, 3)), leaf_size=0)


def test_depth_reasonable(tree_and_points):
    tree, x, _ = tree_and_points
    # ~1500 particles at leaf 16: depth ~ log8(1500/16) ~ 2-4
    assert 1 <= tree.depth() <= 7


# ----------------------------------------------------------------------
# Compiled walk
# ----------------------------------------------------------------------
def _lattice_or_cloud(layout, dim, seed):
    side = {1: 80, 2: 14, 3: 7}[dim]
    if layout == "lattice":
        axes = [(np.arange(side) + 0.5) / side] * dim
        x = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        return x, 1.0 / side
    return np.random.default_rng(seed).random((side**dim, dim)), 1.0 / side


def _cffi_ops():
    from repro.backend import select_backend

    ops = select_backend("cffi").ops
    if ops is None:
        pytest.skip("no C compiler on this host")
    return ops


def _assert_same_list(got, ref, what=""):
    assert np.array_equal(got.offsets, ref.offsets), what
    assert np.array_equal(got.indices, ref.indices), what


@given(
    dim=st.sampled_from([1, 2, 3]),
    periodic=st.booleans(),
    layout=st.sampled_from(["lattice", "random"]),
    mode=st.sampled_from(["gather", "symmetric"]),
    include_self=st.booleans(),
    # Whole and sqrt(2) multiples of the spacing: lattice shells on the
    # cutoff.  100 spacings is wider than the box: every leaf is a source
    # of every leaf, and on a periodic axis every leaf pair is cut by the
    # seam somewhere.
    radius_over_spacing=st.sampled_from(
        [1.0, 2.0, 2.0**0.5, 8.0**0.5, 1.7, 3.1, 100.0]
    ),
    uniform=st.booleans(),
    # One particle per leaf, the usual bucket, and a root that is its own
    # only leaf.
    leaf_size=st.sampled_from([1, 8, 10_000]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_compiled_walk_returns_the_numpy_walk_arrays(
    dim, periodic, layout, mode, include_self, radius_over_spacing, uniform,
    leaf_size, seed,
):
    ops = _cffi_ops()
    x, spacing = _lattice_or_cloud(layout, dim, seed)
    radii = np.full(x.shape[0], radius_over_spacing * spacing)
    if not uniform:
        radii *= np.random.default_rng(seed + 1).uniform(0.6, 1.4, x.shape[0])
    box = Box.cube(0.0, 1.0, dim=dim, periodic=periodic)
    tree = Octree.build(x, box, leaf_size=leaf_size)
    ref = tree.walk_neighbors(x, radii, mode=mode, include_self=include_self)
    got = tree.walk_neighbors(
        x, radii, mode=mode, include_self=include_self, ops=ops
    )
    _assert_same_list(got, ref)
    grid = cell_grid_search(x, radii, box, mode=mode, include_self=include_self)
    _assert_same_list(grid, ref)
    # Traversal order holds the same rows, just not sorted.
    raw = tree.walk_neighbors(
        x, radii, mode=mode, include_self=include_self, ops=ops, sort_rows=False
    )
    assert np.array_equal(raw.offsets, ref.offsets)
    key = raw.pair_i() * x.shape[0] + raw.indices
    assert np.array_equal(np.sort(key), ref.pair_i() * x.shape[0] + ref.indices)


def _brute_force(x, radii, box, mode, include_self):
    """Every ordered pair through ``pairs_in_range`` — the oracle."""
    from repro.tree.neighborlist import NeighborList, pairs_in_range

    n = x.shape[0]
    qi, cj = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    keep = pairs_in_range(box.wrap(x), qi, cj, radii, box, mode)
    if not include_self:
        keep &= qi != cj
    offsets = np.concatenate([[0], np.cumsum(np.bincount(qi[keep], minlength=n))])
    return NeighborList(offsets=offsets, indices=cj[keep])


def _seam_cases(dim):
    """``(name, x, radii, box, leaf_size)`` aimed at the hoisted minimum image."""
    rng = np.random.default_rng(dim)
    side = {1: 64, 2: 16, 3: 8}[dim]
    axes = [(np.arange(side) + 0.5) / side] * dim
    lattice = np.stack(
        [m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1
    )
    unit = Box.cube(0.0, 1.0, dim=dim, periodic=True)
    n = lattice.shape[0]
    # Many leaves across a wide periodic box: a leaf at lo and a leaf at hi
    # are neighbours through a constant shift of -span / +span.
    yield "seam", lattice, np.full(n, 2.0 / side), unit, 4
    # Radii past half the span with few, wide leaves: leaf pairs sit half a
    # span apart, rint((xi - xj)/span) is not constant over their boxes and
    # the per-candidate wrap has to run.
    x = rng.random((48, dim))
    yield "half-span", x, rng.uniform(0.3, 0.8, 48), unit, 6
    # The same with the periodic box far smaller than the spread of the
    # input: everything wraps many spans, leaves overlap after wrapping.
    yield "tiny-box", 50.0 * (x - 0.5), rng.uniform(0.05, 0.4, 48), unit, 3
    # Particles exactly on hi wrap to lo (and sit on the lattice shell of
    # their neighbours across the seam); some exactly on lo already.
    edge = lattice.copy()
    edge[: n // 8, 0] = 1.0
    edge[n // 8 : n // 4, 0] = 0.0
    yield "on-hi", edge, np.full(n, 1.0 / side), unit, 5
    # One periodic axis only, box not a cube, not starting at 0.
    lo = np.full(dim, -0.25)
    hi = lo + np.linspace(1.0, 2.0, dim)
    periodic = np.zeros(dim, dtype=bool)
    periodic[-1] = True
    mixed = Box(lo=lo, hi=hi, periodic=periodic)
    y = lo + rng.random((200, dim)) * (hi - lo)
    yield "mixed", y, rng.uniform(0.05, 0.7, 200), mixed, 7


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mode", ["gather", "symmetric"])
@pytest.mark.parametrize("include_self", [True, False])
def test_compiled_walk_across_the_periodic_seam(dim, mode, include_self):
    """Hoisted shift, per-candidate fallback and wrapped edges, against
    brute force over all pairs — and, fed to ``within``, canonical."""
    ops = _cffi_ops()
    for name, x, radii, box, leaf_size in _seam_cases(dim):
        tree = Octree.build(x, box, leaf_size=leaf_size)
        ref = _brute_force(x, radii, box, mode, include_self)
        kwargs = dict(mode=mode, include_self=include_self)
        _assert_same_list(tree.walk_neighbors(x, radii, **kwargs), ref, name)
        _assert_same_list(tree.walk_neighbors(x, radii, ops=ops, **kwargs), ref, name)
        if mode == "symmetric":
            raw = tree.walk_neighbors(x, radii, ops=ops, sort_rows=False, **kwargs)
            cut = _brute_force(x, 0.8 * radii, box, mode, include_self)
            _assert_same_list(raw.within(x, 0.8 * radii, box, ops), cut, name)
            _assert_same_list(raw.within(x, 0.8 * radii, box), cut, name)


def test_walk_rejects_positions_of_another_particle_set(tree_and_points):
    tree, x, _ = tree_and_points
    with pytest.raises(ValueError, match="built over 1500"):
        tree.walk_neighbors(x[:100], 0.1)


def test_walk_blocks_follow_the_candidate_count(tree_and_points, monkeypatch):
    """Inflated radii shrink the query blocks, not grow the candidate set."""
    import repro.tree.octree as octree_mod

    tree, x, _ = tree_and_points
    monkeypatch.setattr(octree_mod, "_CANDIDATE_BLOCK", 20_000)
    blocks = []
    leaf_candidates = Octree._leaf_candidates

    def recording(self, xw, radii, node_rmax, lo_q, hi_q):
        qi, cj = leaf_candidates(self, xw, radii, node_rmax, lo_q, hi_q)
        blocks.append((hi_q - lo_q, qi.size))
        return qi, cj

    monkeypatch.setattr(Octree, "_leaf_candidates", recording)
    peaks = {}
    for radius in (0.05, 0.2):
        blocks.clear()
        got = tree.walk_neighbors(x, radius, mode="symmetric")
        peaks[radius] = max(size for _, size in blocks[1:])
        assert sum(queries for queries, _ in blocks) == x.shape[0]
        assert np.array_equal(
            got.indices,
            cell_grid_search(x, radius, tree.box, mode="symmetric").indices,
        )
    # 64x the search volume, about the same candidate block.
    assert peaks[0.2] < 3 * peaks[0.05]
