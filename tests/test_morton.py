"""Space-filling-curve keys: round trips, ordering, Hilbert adjacency."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tree.morton import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    hilbert_encode,
    hilbert_keys,
    morton_decode,
    morton_encode,
    morton_keys,
    normalize_coords,
    quantize,
)


@given(
    coords=st.lists(
        st.tuples(
            st.integers(0, (1 << MAX_BITS_3D) - 1),
            st.integers(0, (1 << MAX_BITS_3D) - 1),
            st.integers(0, (1 << MAX_BITS_3D) - 1),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_morton3d_roundtrip_property(coords):
    grid = np.asarray(coords, dtype=np.uint64)
    keys = morton_encode(grid)
    back = morton_decode(keys, 3)
    assert np.array_equal(back, grid)


@given(
    coords=st.lists(
        st.tuples(
            st.integers(0, (1 << MAX_BITS_2D) - 1),
            st.integers(0, (1 << MAX_BITS_2D) - 1),
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=50, deadline=None)
def test_morton2d_roundtrip_property(coords):
    grid = np.asarray(coords, dtype=np.uint64)
    keys = morton_encode(grid)
    back = morton_decode(keys, 2)
    assert np.array_equal(back, grid)


def test_morton_keys_unique_on_grid():
    pts = np.array(list(itertools.product(range(8), repeat=3)), dtype=np.uint64)
    keys = morton_encode(pts)
    assert len(set(keys.tolist())) == 512


def test_morton_order_matches_octant_hierarchy():
    """The top key bits are the x, then y, then z octant choices."""
    lo = np.zeros(3)
    hi = np.ones(3)
    a = morton_keys(np.array([[0.1, 0.1, 0.1]]), lo, hi)[0]
    b = morton_keys(np.array([[0.9, 0.1, 0.1]]), lo, hi)[0]
    c = morton_keys(np.array([[0.1, 0.9, 0.1]]), lo, hi)[0]
    d = morton_keys(np.array([[0.1, 0.1, 0.9]]), lo, hi)[0]
    assert a < d < c < b  # x is most significant, then y, then z


@pytest.mark.parametrize("dim,bits,side", [(2, 4, 16), (3, 3, 8)])
def test_hilbert_unit_steps(dim, bits, side):
    """Consecutive Hilbert keys are spatially adjacent (unit manhattan)."""
    pts = np.array(list(itertools.product(range(side), repeat=dim)), dtype=np.uint64)
    keys = hilbert_encode(pts, bits)
    assert len(set(keys.tolist())) == side**dim  # bijective
    order = np.argsort(keys)
    steps = np.abs(np.diff(pts[order].astype(np.int64), axis=0)).sum(axis=1)
    assert np.all(steps == 1)


def test_hilbert_locality_beats_morton():
    """Mean jump distance along the curve: Hilbert <= Morton."""
    side = 16
    pts = np.array(list(itertools.product(range(side), repeat=2)), dtype=np.uint64)
    for encode, bits in ((hilbert_encode, 4), (morton_encode, None)):
        pass
    hk = hilbert_encode(pts, 4)
    mk = morton_encode(pts)
    def mean_jump(keys):
        order = np.argsort(keys)
        return np.abs(np.diff(pts[order].astype(np.int64), axis=0)).sum(axis=1).mean()
    assert mean_jump(hk) < mean_jump(mk)


def test_normalize_coords_clamps_to_unit():
    lo = np.zeros(3)
    hi = np.ones(3)
    f = normalize_coords(np.array([[0.0, 0.5, 1.0]]), lo, hi)
    assert f[0, 0] == 0.0
    assert f[0, 2] < 1.0  # upper face stays inside


def test_normalize_rejects_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        normalize_coords(np.zeros((1, 3)), np.zeros(3), np.zeros(3))


def test_non_finite_positions_fail_closed():
    """A NaN has no cell: refuse it, naming the particle, before the
    undefined float -> uint64 cast (a RuntimeWarning and a garbage key)."""
    import warnings

    from repro.tree.octree import Octree

    x = np.random.default_rng(0).random((20, 3))
    x[[7, 13], 1] = np.nan, np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"particle 7 .*first of 2"):
            normalize_coords(x, np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="non-finite position: particle 7"):
            Octree.build(x)


def test_quantize_range():
    grid = quantize(np.array([[0.0, 0.5, 0.999999]]), 4)
    assert grid[0, 0] == 0
    assert grid[0, 1] == 8
    assert grid[0, 2] == 15


def test_keys_match_manual_quantization():
    lo, hi = np.zeros(3), np.ones(3)
    x = np.array([[0.3, 0.6, 0.9]])
    manual = morton_encode(quantize(normalize_coords(x, lo, hi), MAX_BITS_3D))
    assert morton_keys(x, lo, hi)[0] == manual[0]
    hman = hilbert_keys(x, lo, hi)
    assert hman.dtype == np.uint64
