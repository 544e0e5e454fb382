"""Halo (ghost-particle) exchange estimation.

In a distributed SPH step every rank needs the remote particles within
kernel support of its own — the halo.  The communication volume per rank
pair is what the cluster's network model charges, so it must be computed
from the *actual* decomposition of the *actual* particle distribution.

Exact halo computation is O(pairs) and infeasible at the 10^6-particle
scale of the benchmarks, so the estimator works at cell granularity: bin
particles into a grid of cells one support radius wide, dilate each
rank's cell set by one cell layer (the support reach), and count remote
particles inside the dilated set.  Each remote particle is counted at
most once per receiving rank (it lives in exactly one cell), making this
a tight upper bound on the true halo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tree.box import Box
from .decomposition import Decomposition

__all__ = ["HaloEstimate", "estimate_halo"]


@dataclass(frozen=True)
class HaloEstimate:
    """Pairwise halo volumes between ranks.

    ``recv[r, s]`` is the number of particles of rank ``s`` that rank
    ``r`` must receive (0 on the diagonal).
    """

    recv: np.ndarray  # (R, R)

    @property
    def n_ranks(self) -> int:
        return self.recv.shape[0]

    def recv_totals(self) -> np.ndarray:
        """Total particles received per rank."""
        return self.recv.sum(axis=1)

    def send_totals(self) -> np.ndarray:
        """Total particles sent per rank."""
        return self.recv.sum(axis=0)

    def partners(self) -> np.ndarray:
        """Number of communication partners per rank."""
        return (self.recv > 0).sum(axis=1)


def estimate_halo(
    x: np.ndarray,
    support: float,
    box: Box,
    decomposition: Decomposition,
    max_cells_per_axis: int = 128,
) -> HaloEstimate:
    """Estimate the rank-to-rank halo exchange matrix.

    Parameters
    ----------
    support:
        Interaction reach (``2 h`` for SPH); sets the cell width.
    max_cells_per_axis:
        Grid resolution cap — finer grids sharpen the estimate but cost
        memory; 128^3 cells cover the benchmark scales.
    """
    import scipy.sparse as sp  # cluster model only: not on the run path

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, dim = x.shape
    if support <= 0.0:
        raise ValueError(f"support must be positive, got {support}")
    R = decomposition.n_ranks
    xw = box.wrap(x)
    span = box.span
    ncells = np.clip((span / support).astype(np.int64), 1, max_cells_per_axis)
    width = span / ncells
    coords = np.minimum(((xw - box.lo) / width).astype(np.int64), ncells - 1)

    def flatten(c: np.ndarray) -> np.ndarray:
        flat = c[..., 0].astype(np.int64)
        for axis in range(1, dim):
            flat = flat * ncells[axis] + c[..., axis]
        return flat

    flat = flatten(coords)
    unique_cells, cell_idx = np.unique(flat, return_inverse=True)
    ncell = unique_cells.size
    ranks = decomposition.assignment

    # S[c, r] = number of particles of rank r in cell c.
    S = sp.coo_matrix(
        (np.ones(n), (cell_idx, ranks)), shape=(ncell, R)
    ).tocsr()
    # P[c, r] = rank r present in cell c.
    P = (S > 0).astype(np.float64)

    # Adjacency A[c, c'] = c' within one cell of c (periodic-aware).
    offsets = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    cell_coords = np.stack(
        np.unravel_index(unique_cells, ncells), axis=1
    ).astype(np.int64)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for off in offsets:
        neigh = cell_coords + off[None, :]
        valid = np.ones(ncell, dtype=bool)
        for axis in range(dim):
            if box.periodic[axis]:
                neigh[:, axis] = np.mod(neigh[:, axis], ncells[axis])
            else:
                ok = (neigh[:, axis] >= 0) & (neigh[:, axis] < ncells[axis])
                valid &= ok
        nf = flatten(np.clip(neigh, 0, None))
        pos = np.searchsorted(unique_cells, nf)
        pos = np.clip(pos, 0, ncell - 1)
        hit = valid & (unique_cells[pos] == nf)
        rows.append(np.nonzero(hit)[0])
        cols.append(pos[hit])
    A = sp.coo_matrix(
        (np.ones(sum(r.size for r in rows)), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncell, ncell),
    ).tocsr()
    A.data[:] = 1.0  # de-duplicate aliased periodic neighbours

    # D[c, r] = cell c is within rank r's dilated (reach) region.
    D = (A.T @ P > 0).astype(np.float64)
    recv = np.asarray((D.T @ S).todense())
    np.fill_diagonal(recv, 0.0)
    # A rank never receives its own particles; also remove particles of s
    # sitting in cells where r is not actually adjacent... already handled
    # by construction (D only covers r's reach).
    return HaloEstimate(recv=recv)
