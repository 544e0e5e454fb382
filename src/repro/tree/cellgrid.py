"""Uniform cell-grid (cell-linked-list) neighbour search.

The paper's codes discover neighbours with a tree walk (Table 1); this
module provides the library's vectorized *fast path* — a classic cell grid
that bins particles into cells at least as wide as the largest search
radius, so candidates always live in the 3^dim adjacent cells.  The octree
walk in :mod:`repro.tree.octree` is the paper-faithful path and is tested
for exact agreement with this one.

The search is fully vectorized: particles are sorted by flat cell id once,
candidate ranges are found with ``searchsorted`` for all (query, cell)
pairs at once, and flat candidate lists are materialized with the
repeat/cumsum range-expansion idiom.  Queries are processed in chunks to
bound peak memory.
"""

from __future__ import annotations

import numpy as np

from .box import Box
from .neighborlist import NeighborList, canonical_rows, pairs_in_range

__all__ = ["CellGrid", "cell_grid_search"]


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k]+counts[k])`` for all k."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep_starts = np.repeat(starts, counts)
    rep_base = np.repeat(np.cumsum(counts) - counts, counts)
    return rep_starts + (np.arange(total, dtype=np.int64) - rep_base)


class CellGrid:
    """Particles binned into a uniform grid over a :class:`Box`."""

    def __init__(self, x: np.ndarray, box: Box, cell_width: float) -> None:
        if cell_width <= 0.0:
            raise ValueError(f"cell width must be positive, got {cell_width}")
        self.box = box
        self.x = box.wrap(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if not np.all(box.contains(self.x)):
            raise ValueError("particles outside the box along non-periodic axes")
        span = box.span
        self.ncells = np.maximum((span / cell_width).astype(np.int64), 1)
        self.width = span / self.ncells
        coords = ((self.x - box.lo) / self.width).astype(np.int64)
        self.coords = np.minimum(coords, self.ncells - 1)
        self.flat = self._flatten(self.coords)
        self.order = np.argsort(self.flat, kind="stable")
        self.flat_sorted = self.flat[self.order]

    def _flatten(self, coords: np.ndarray) -> np.ndarray:
        """Row-major flat cell id; works on any (..., dim) coordinate array."""
        flat = coords[..., 0].astype(np.int64)
        for axis in range(1, self.box.dim):
            flat = flat * self.ncells[axis] + coords[..., axis]
        return flat

    def _neighbor_cells(self, coords: np.ndarray) -> np.ndarray:
        """Flat ids of the 3^dim cells around each coordinate row.

        Returns ``(n, 3^dim)`` with ``-1`` marking cells that fall outside a
        non-periodic axis.  Duplicate cells (possible when a periodic axis
        has fewer than 3 cells) are de-duplicated to ``-1`` so no candidate
        is produced twice.
        """
        dim = self.box.dim
        offsets = np.stack(
            np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij"), axis=-1
        ).reshape(-1, dim)
        neigh = coords[:, None, :] + offsets[None, :, :]
        valid = np.ones(neigh.shape[:2], dtype=bool)
        for axis in range(dim):
            n_axis = self.ncells[axis]
            if self.box.periodic[axis]:
                neigh[..., axis] = np.mod(neigh[..., axis], n_axis)
            else:
                ok = (neigh[..., axis] >= 0) & (neigh[..., axis] < n_axis)
                valid &= ok
                neigh[..., axis] = np.clip(neigh[..., axis], 0, n_axis - 1)
        flat = self._flatten(neigh)
        flat[~valid] = -1
        # De-duplicate aliased cells within each row (periodic wrap with
        # fewer than 3 cells along an axis maps distinct offsets to the
        # same cell).
        flat.sort(axis=1)
        dup = np.zeros_like(flat, dtype=bool)
        dup[:, 1:] = flat[:, 1:] == flat[:, :-1]
        flat[dup] = -1
        return flat

    def candidate_ranges(self, coords: np.ndarray):
        """(starts, counts) into the sorted particle order per (query, cell)."""
        cells = self._neighbor_cells(coords)
        flat = cells.ravel()
        starts = np.searchsorted(self.flat_sorted, flat, side="left")
        ends = np.searchsorted(self.flat_sorted, flat, side="right")
        counts = ends - starts
        counts[flat < 0] = 0
        return starts, counts, cells.shape[1]


def cell_grid_search(
    x: np.ndarray,
    radii: np.ndarray,
    box: Box | None = None,
    *,
    mode: str = "gather",
    include_self: bool = True,
    chunk: int = 8192,
) -> NeighborList:
    """Find all neighbours within per-particle search radii.

    Parameters
    ----------
    x:
        Positions, shape ``(n, dim)``.
    radii:
        Search radius per particle (scalar broadcasts).  For SPH this is the
        kernel support ``2 h_i``.
    box:
        Domain box; defaults to the open bounding box of ``x``.
    mode:
        ``"gather"`` keeps pairs with ``r <= radii[i]`` (density loops);
        ``"symmetric"`` keeps pairs with ``r <= max(radii[i], radii[j])``
        (momentum/energy loops, guaranteeing i-j symmetry).
    include_self:
        Whether particle ``i`` appears in its own list (SPH density needs
        the self-contribution; pair forces do not, but the kernel gradient
        vanishes at r=0 so keeping it is harmless).
    chunk:
        Queries processed per batch to bound peak memory.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, dim = x.shape
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n,))
    if n == 0:
        return NeighborList(offsets=np.zeros(1, dtype=np.int64), indices=np.empty(0, dtype=np.int64))
    if np.any(radii <= 0.0):
        raise ValueError("search radii must be positive")
    if mode not in ("gather", "symmetric"):
        raise ValueError(f"mode must be 'gather' or 'symmetric', got {mode!r}")
    if box is None:
        box = Box.bounding(x)
    rmax = float(radii.max())
    grid = CellGrid(x, box, cell_width=rmax)
    xw = grid.x

    per_query: list[np.ndarray] = []
    counts_out = np.zeros(n, dtype=np.int64)
    for lo_q in range(0, n, chunk):
        hi_q = min(lo_q + chunk, n)
        q_idx = np.arange(lo_q, hi_q, dtype=np.int64)
        starts, counts, ncell = grid.candidate_ranges(grid.coords[lo_q:hi_q])
        flat_pos = _expand_ranges(starts, counts)  # positions in sorted order
        cand = grid.order[flat_pos]
        per_cell_query = np.repeat(q_idx, ncell)
        qi = np.repeat(per_cell_query, counts)
        keep = pairs_in_range(xw, qi, cand, radii, box, mode)
        if not include_self:
            keep &= qi != cand
        counts_out[lo_q:hi_q], kept = canonical_rows(
            qi[keep], cand[keep], lo_q, hi_q, n
        )
        per_query.append(kept)

    indices = (
        np.concatenate(per_query) if per_query else np.empty(0, dtype=np.int64)
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts_out, out=offsets[1:])
    return NeighborList(offsets=offsets, indices=indices)
