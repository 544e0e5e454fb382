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


@given(
    dim=st.sampled_from([1, 2, 3]),
    periodic=st.booleans(),
    layout=st.sampled_from(["lattice", "random"]),
    mode=st.sampled_from(["gather", "symmetric"]),
    include_self=st.booleans(),
    # Whole and sqrt(2) multiples of the spacing: lattice shells on the cutoff.
    radius_over_spacing=st.sampled_from([1.0, 2.0, 2.0**0.5, 8.0**0.5, 1.7, 3.1]),
    uniform=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_compiled_walk_returns_the_numpy_walk_arrays(
    dim, periodic, layout, mode, include_self, radius_over_spacing, uniform, seed
):
    from repro.backend import select_backend

    ops = select_backend("cffi").ops
    if ops is None:
        pytest.skip("no C compiler on this host")
    x, spacing = _lattice_or_cloud(layout, dim, seed)
    radii = np.full(x.shape[0], radius_over_spacing * spacing)
    if not uniform:
        radii *= np.random.default_rng(seed + 1).uniform(0.6, 1.4, x.shape[0])
    box = Box.cube(0.0, 1.0, dim=dim, periodic=periodic)
    tree = Octree.build(x, box, leaf_size=8)
    ref = tree.walk_neighbors(x, radii, mode=mode, include_self=include_self)
    got = tree.walk_neighbors(
        x, radii, mode=mode, include_self=include_self, ops=ops
    )
    assert np.array_equal(got.offsets, ref.offsets)
    assert np.array_equal(got.indices, ref.indices)
    grid = cell_grid_search(x, radii, box, mode=mode, include_self=include_self)
    assert np.array_equal(grid.offsets, ref.offsets)
    assert np.array_equal(grid.indices, ref.indices)


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
