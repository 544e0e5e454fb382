"""CSR neighbour-list container invariants and reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.box import Box
from repro.tree.neighborlist import NeighborList


def _simple_list():
    # particle 0: neighbours {1, 2}; particle 1: {0}; particle 2: {}
    return NeighborList(
        offsets=np.array([0, 2, 3, 3]), indices=np.array([1, 2, 0])
    )


def test_basic_shape_queries():
    nl = _simple_list()
    assert nl.n == 3
    assert nl.n_pairs == 3
    assert nl.counts().tolist() == [2, 1, 0]
    assert nl.pair_i().tolist() == [0, 0, 1]
    assert nl.neighbors_of(0).tolist() == [1, 2]
    assert nl.neighbors_of(2).tolist() == []


def test_validation():
    with pytest.raises(ValueError, match="non-decreasing"):
        NeighborList(offsets=np.array([0, 2, 1]), indices=np.array([1, 2]))
    with pytest.raises(ValueError, match="must equal"):
        NeighborList(offsets=np.array([0, 1]), indices=np.array([1, 2]))
    with pytest.raises(ValueError, match="start at 0"):
        NeighborList(offsets=np.array([1, 2]), indices=np.array([0]))


def test_reduce_scalar_and_vector():
    nl = _simple_list()
    vals = np.array([1.0, 10.0, 100.0])
    out = nl.reduce(vals)
    assert out.tolist() == [11.0, 100.0, 0.0]
    vecs = np.stack([vals, 2 * vals], axis=1)
    out2 = nl.reduce(vecs)
    assert out2[:, 0].tolist() == [11.0, 100.0, 0.0]
    assert out2[:, 1].tolist() == [22.0, 200.0, 0.0]


def test_reduce_rejects_misaligned():
    nl = _simple_list()
    with pytest.raises(ValueError, match="leading size"):
        nl.reduce(np.ones(5))


def test_pair_geometry_periodic():
    nl = NeighborList(offsets=np.array([0, 1, 1]), indices=np.array([1]))
    x = np.array([[0.05, 0.5, 0.5], [0.95, 0.5, 0.5]])
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    dx, r = nl.pair_geometry(x, box)
    assert r[0] == pytest.approx(0.1)
    assert dx[0, 0] == pytest.approx(0.1)  # min image crosses the boundary


@given(
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=20),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_reduce_matches_loop_property(counts, seed):
    rng = np.random.default_rng(seed)
    n = len(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(0, n, size=int(offsets[-1]))
    nl = NeighborList(offsets=offsets, indices=indices)
    vals = rng.normal(size=nl.n_pairs)
    out = nl.reduce(vals)
    expected = np.zeros(n)
    for i in range(n):
        expected[i] = vals[offsets[i] : offsets[i + 1]].sum()
    assert np.allclose(out, expected)


def test_every_search_emits_canonical_rows(rng):
    """Rows ascend in neighbour index whatever enumerated the candidates.

    The one place this is asserted; array equality between searches (tree
    walk vs cell grid vs compiled walk vs a cut-down wide list) rests on it.
    """
    from repro.backend import select_backend
    from repro.tree.cellgrid import cell_grid_search
    from repro.tree.octree import Octree

    x = rng.random((700, 3))
    radii = rng.uniform(0.05, 0.15, 700)
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    tree = Octree.build(x, box, leaf_size=16)
    ops = select_backend("auto").ops
    lists = {
        "grid": cell_grid_search(x, radii, box, mode="symmetric"),
        "grid-chunked": cell_grid_search(x, radii, box, mode="symmetric", chunk=50),
        "walk": tree.walk_neighbors(x, radii, mode="symmetric"),
        "walk-compiled": tree.walk_neighbors(x, radii, mode="symmetric", ops=ops),
        "gather": tree.walk_neighbors(x, radii, mode="gather", include_self=False),
    }
    wide = tree.walk_neighbors(x, 1.3 * radii, mode="symmetric")
    lists["within"] = wide.within(x, radii, box)
    lists["within-compiled"] = wide.within(x, radii, box, ops)
    # A search that skipped the row ordering: the cut restores it.
    raw = tree.walk_neighbors(
        x, 1.3 * radii, mode="symmetric", ops=ops, sort_rows=False
    )
    lists["within-raw"] = raw.within(x, radii, box)
    lists["within-raw-compiled"] = raw.within(x, radii, box, ops)
    for name, nl in lists.items():
        same_row = np.diff(nl.pair_i()) == 0
        assert np.all(np.diff(nl.indices)[same_row] > 0), name
    for name in set(lists) - {"grid", "gather"}:
        assert np.array_equal(lists[name].offsets, lists["grid"].offsets), name
        assert np.array_equal(lists[name].indices, lists["grid"].indices), name


def test_compiled_within_refuses_a_list_that_is_not_symmetric(rng):
    """The compiled cut builds its rows by transposing the kept pairs,
    which is the list itself only when the pairs are symmetric: a gather
    list is refused, as the h iteration's support cut refuses one."""
    from repro.backend import select_backend
    from repro.tree.octree import Octree

    ops = select_backend("auto").ops
    if ops is None:
        pytest.skip("no C toolchain on this host")
    x = rng.random((300, 3))
    radii = rng.uniform(0.05, 0.15, 300)
    box = Box.cube(0.0, 1.0, dim=3, periodic=True)
    tree = Octree.build(x, box, leaf_size=16)
    gather = tree.walk_neighbors(x, radii, mode="gather", ops=ops)
    with pytest.raises(ValueError, match="symmetric"):
        gather.within(x, 0.5 * radii, box, ops)
    # The symmetric list passes; the same list less one pair does not.
    full = tree.walk_neighbors(x, radii, mode="symmetric", ops=ops)
    assert full.within(x, radii, box, ops).n_pairs == full.n_pairs
    i, j = full.pairs()
    drop = np.flatnonzero(i != j)[0]
    keep = np.arange(full.n_pairs) != drop
    counts = np.bincount(i[keep], minlength=full.n)
    broken = NeighborList(
        np.concatenate([[0], np.cumsum(counts)]), j[keep].astype(np.int32)
    )
    with pytest.raises(ValueError, match="symmetric"):
        broken.within(x, radii, box, ops)


@pytest.mark.parametrize("compiled", [False, True])
@pytest.mark.parametrize("periodic", [False, True])
def test_rows_searched_again_merge_into_the_search_at_the_grown_radii(
    compiled, periodic, rng
):
    """A symmetric walk of some rows only, at radii grown for those rows,
    merged into the walk at the old radii, holds exactly the pairs of a
    walk of every row at the grown radii, each once — by index alone."""
    from repro.backend import select_backend
    from repro.tree.octree import Octree

    ops = select_backend("auto").ops if compiled else None
    if compiled and ops is None:
        pytest.skip("no C toolchain on this host")
    n = 600
    x = rng.random((n, 3))
    box = Box.cube(0.0, 1.0, dim=3, periodic=periodic)
    tree = Octree.build(x, box, leaf_size=16)
    radii = rng.uniform(0.05, 0.12, n)
    rows = rng.random(n) < 0.25
    grown = np.where(rows, 1.4 * radii, radii)
    first = tree.walk_neighbors(x, radii, mode="symmetric", ops=ops, sort_rows=False)
    again = tree.walk_neighbors(
        x, grown, mode="symmetric", ops=ops, sort_rows=False, rows=rows
    )
    full = tree.walk_neighbors(x, grown, mode="symmetric")
    assert np.all(again.counts()[~rows] == 0)
    assert np.array_equal(again.counts()[rows], full.counts()[rows])
    merged = first.merged(again, rows, ops)
    assert np.array_equal(merged.counts(), full.counts())  # no pair twice
    cut = merged.within(x, grown, box, ops)
    assert np.array_equal(cut.offsets, full.offsets)
    assert np.array_equal(cut.indices, full.indices)
