"""Linear Barnes-Hut octree (Algorithm 1, step 1).

The tree is built top-down from Morton-sorted particle keys, breadth-first,
one vectorized ``searchsorted`` pass per level — the linear-octree
construction used by modern SPH/gravity codes.  Nodes are stored in flat
arrays (SoA); each node records its particle range ``[pstart, pend)`` in
Morton order, so any per-node aggregate (mass moments, max smoothing
length) is a difference of prefix sums.

Two traversals are provided:

* :meth:`Octree.walk_neighbors` — the paper-faithful neighbour discovery
  (Table 1 "Tree Walk"), a vectorized frontier expansion over
  (query, node) pairs with periodic-aware AABB distance tests.
* :func:`repro.gravity.barnes_hut` builds on the same structure for the
  multipole force walk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .box import Box
from .morton import MAX_BITS_2D, MAX_BITS_3D, morton_decode, morton_keys
from .neighborlist import (
    NeighborList,
    canonical_rows,
    pairs_in_range,
    sum_of_squares,
)

__all__ = ["Octree", "LEAF_SIZE"]

#: Default bucket size.  The driver's tree serves the neighbour walk and
#: the gravity walk — on one thread or sliced over several — so they all
#: take this one value.
LEAF_SIZE = 48


@dataclass
class Octree:
    """Flat-array linear octree over a particle set.

    Attributes
    ----------
    box:
        Domain box the tree covers (bounds + periodicity).
    order:
        Permutation sorting particles by Morton key.
    center, half:
        Geometric node centers ``(m, dim)`` and per-axis half-widths.
    level:
        Refinement level per node (root is 0).
    child_start, child_count:
        Children of node k are ``child_start[k] : child_start[k] +
        child_count[k]`` (contiguous); leaves have ``child_count == 0``.
    pstart, pend:
        Particle range of node k in Morton order.
    """

    box: Box
    order: np.ndarray
    center: np.ndarray
    half: np.ndarray
    level: np.ndarray
    child_start: np.ndarray
    child_count: np.ndarray
    pstart: np.ndarray
    pend: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        x: np.ndarray,
        box: Box | None = None,
        leaf_size: int = LEAF_SIZE,
        max_level: int | None = None,
    ) -> "Octree":
        """Build the tree over positions ``x``.

        ``leaf_size`` is the bucket size below which nodes stop splitting;
        the parent codes use O(10)-O(100) buckets so tree depth stays
        logarithmic while vector lengths stay long.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n, dim = x.shape
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if box is None:
            box = Box.bounding(x)
        bits = MAX_BITS_3D if dim == 3 else (MAX_BITS_2D if dim == 2 else 62)
        if max_level is None:
            max_level = bits
        max_level = min(max_level, bits)
        keys = morton_keys(box.wrap(x), box.lo, box.hi, bits=bits)
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]

        nchild = 1 << dim
        # Per-level node lists, assembled breadth-first.
        curve = [np.zeros(1, dtype=np.uint64)]  # curve coordinate per node
        levels = [np.zeros(1, dtype=np.int64)]
        pstarts = [np.zeros(1, dtype=np.int64)]
        pends = [np.full(1, n, dtype=np.int64)]
        childstart = [np.full(1, -1, dtype=np.int64)]
        childcount = [np.zeros(1, dtype=np.int64)]

        total_nodes = 1
        cur_curve = curve[0]
        cur_start = pstarts[0]
        cur_end = pends[0]
        cur_level = 0

        while cur_curve.size and cur_level < max_level:
            counts = cur_end - cur_start
            split = counts > leaf_size
            if not np.any(split):
                break
            parents = np.nonzero(split)[0]
            nsplit = parents.size
            child_level = cur_level + 1
            shift = np.uint64(dim * (bits - child_level))
            # Child curve coordinates and their key boundaries.
            base = (cur_curve[parents].astype(np.uint64) << np.uint64(dim))[:, None]
            kids = base + np.arange(nchild, dtype=np.uint64)[None, :]
            bounds = (
                np.concatenate([kids, kids[:, -1:] + np.uint64(1)], axis=1) << shift
            )
            # Particle ranges: searchsorted within each parent's range.
            edges = np.searchsorted(keys_sorted, bounds.ravel()).reshape(
                nsplit, nchild + 1
            )
            edges[:, 0] = cur_start[parents]
            edges[:, -1] = cur_end[parents]
            kid_start = edges[:, :-1]
            kid_end = edges[:, 1:]
            kid_counts = kid_end - kid_start
            keep = kid_counts > 0
            kept_per_parent = keep.sum(axis=1)

            # Wire parents to their surviving children (contiguous block).
            first_child_global = total_nodes + np.concatenate(
                [[0], np.cumsum(kept_per_parent)[:-1]]
            )
            childstart[-1][parents] = first_child_global
            childcount[-1][parents] = kept_per_parent

            new_curve = kids[keep]
            new_start = kid_start[keep]
            new_end = kid_end[keep]
            nnew = new_curve.size
            curve.append(new_curve)
            levels.append(np.full(nnew, child_level, dtype=np.int64))
            pstarts.append(new_start.astype(np.int64))
            pends.append(new_end.astype(np.int64))
            childstart.append(np.full(nnew, -1, dtype=np.int64))
            childcount.append(np.zeros(nnew, dtype=np.int64))
            total_nodes += nnew
            cur_curve = new_curve
            cur_start = new_start.astype(np.int64)
            cur_end = new_end.astype(np.int64)
            cur_level = child_level

        all_curve = np.concatenate(curve)
        all_level = np.concatenate(levels)
        all_start = np.concatenate(pstarts)
        all_end = np.concatenate(pends)
        all_cs = np.concatenate(childstart)
        all_cc = np.concatenate(childcount)

        # Geometric centers from curve coordinates: decode the grid cell at
        # each node's level and scale to physical space.
        span = box.span
        grid = morton_decode(all_curve, dim).astype(np.float64)
        cell = span[None, :] / (1 << all_level).astype(np.float64)[:, None]
        center = box.lo[None, :] + (grid + 0.5) * cell
        half = 0.5 * cell

        return cls(
            box=box,
            order=order,
            center=center,
            half=half,
            level=all_level,
            child_start=all_cs,
            child_count=all_cc,
            pstart=all_start,
            pend=all_end,
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.center.shape[0]

    @property
    def n_particles(self) -> int:
        return self.order.shape[0]

    @property
    def dim(self) -> int:
        return self.center.shape[1]

    def is_leaf(self) -> np.ndarray:
        return self.child_count == 0

    def node_counts(self) -> np.ndarray:
        return self.pend - self.pstart

    def depth(self) -> int:
        return int(self.level.max())

    def node_aggregate(self, values: np.ndarray) -> np.ndarray:
        """Sum a per-particle quantity over each node via prefix sums.

        ``values`` may be ``(n,)`` or ``(n, k)``; the reduction runs along
        the particle axis, so k columns (e.g. multipole moment components)
        aggregate in one pass.
        """
        values = np.asarray(values, dtype=np.float64)
        sorted_vals = values[self.order]
        pad_shape = (1,) + sorted_vals.shape[1:]
        prefix = np.concatenate(
            [np.zeros(pad_shape), np.cumsum(sorted_vals, axis=0)], axis=0
        )
        return prefix[self.pend] - prefix[self.pstart]

    def node_max(self, values: np.ndarray) -> np.ndarray:
        """Maximum of a per-particle quantity over each node's particles.

        Node ranges are nested, so a single ``reduceat`` cannot serve them
        all; instead leaf maxima are taken over the leaf tiling of the
        particle range and propagated bottom-up, level by level (children
        of each parent are contiguous, so each level is one segmented
        ``maximum.reduceat``).
        """
        values = np.asarray(values, dtype=np.float64)[self.order]
        out = np.full(self.n_nodes, -np.inf)
        if values.size == 0:
            return out
        # Leaves partition [0, n): reduceat over their sorted starts.
        leaves = np.nonzero(self.child_count == 0)[0]
        leaves = leaves[np.argsort(self.pstart[leaves], kind="stable")]
        out[leaves] = np.maximum.reduceat(values, self.pstart[leaves])
        # Propagate to internal nodes, deepest level first.
        for lev in range(int(self.level.max()) - 1, -1, -1):
            ids = np.nonzero((self.level == lev) & (self.child_count > 0))[0]
            if ids.size == 0:
                continue
            flat_children = expand_ranges(self.child_start[ids], self.child_count[ids])
            vals = out[flat_children]
            starts = np.cumsum(self.child_count[ids]) - self.child_count[ids]
            out[ids] = np.maximum.reduceat(vals, starts)
        return out

    # ------------------------------------------------------------------
    def _aabb_dist2(self, xq: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Squared distance from points to node boxes (periodic-aware)."""
        dxc = xq - self.center[nodes]
        dxc = self.box.min_image(dxc)
        excess = np.maximum(np.abs(dxc) - self.half[nodes], 0.0)
        return sum_of_squares(excess)

    def walk_neighbors(
        self,
        x: np.ndarray,
        radii: np.ndarray,
        *,
        mode: str = "gather",
        include_self: bool = True,
        node_rmax: np.ndarray | None = None,
        ops=None,
        sort_rows: bool = True,
        rows: np.ndarray | None = None,
    ) -> NeighborList:
        """Neighbour discovery by tree walk (Table 1 "Tree Walk").

        Same contract as :func:`repro.tree.cellgrid.cell_grid_search`;
        ``x`` are the positions of the particles the tree was built over.
        For ``mode="symmetric"`` the walk opens nodes against ``max(r_i,
        node_rmax)`` where ``node_rmax`` is the per-node maximum search
        radius (computed here if not supplied), guaranteeing no j with
        ``r <= radii[j]`` is missed.

        ``ops`` is a compiled op table (``Backend.ops``): the traversal
        runs there, one descent per target leaf over per-node summaries
        it takes from ``x`` and ``radii`` itself — same wrapped positions,
        same pair predicate, so the returned arrays equal the numpy
        walk's; with ``None`` the vectorized frontier expansion below
        runs.  ``sort_rows=False`` lets the compiled traversal leave each
        row in traversal order, for a caller that only counts or filters
        the list (the h iteration, which ends on
        :meth:`NeighborList.within`); rows are ascending otherwise.
        ``rows`` (a boolean mask over the particles) searches only those
        rows and leaves the others empty — how the h iteration searches
        again for the rows that out-grew its list
        (:meth:`NeighborList.merged`).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        if n != self.n_particles:
            raise ValueError(
                f"x has {n} particles, the tree was built over {self.n_particles}"
            )
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (n,))
        if mode not in ("gather", "symmetric"):
            raise ValueError(f"mode must be 'gather' or 'symmetric', got {mode!r}")
        xw = self.box.wrap(x)
        if rows is not None:
            rows = np.broadcast_to(np.asarray(rows, dtype=bool), (n,))
        if ops is not None:
            return NeighborList(
                *ops.walk_neighbors(
                    self, xw, radii, mode == "symmetric", include_self,
                    sort_rows, rows,
                )
            )
        if mode == "gather":
            node_rmax = None
        elif node_rmax is None:
            node_rmax = self.node_max(radii)

        indices_parts: list[np.ndarray] = []
        counts_out = np.zeros(n, dtype=np.int64)
        # The queries: every particle, or the ``rows`` (the walk then runs
        # over their positions and radii, and ``queries`` maps back).
        queries, xq, rq = None, xw, radii
        if rows is not None:
            queries = np.flatnonzero(rows)
            xq, rq = xw[queries], radii[queries]
        n_q = xq.shape[0]
        # Queries go in blocks sized so that each block's candidate set —
        # the walk's only large allocation — stays near _CANDIDATE_BLOCK
        # whatever the radii: the next block's size follows from the
        # candidates per query the previous one found.
        lo_q, block = 0, min(n_q, 64)
        while lo_q < n_q:
            hi_q = min(lo_q + block, n_q)
            qk, cj = self._leaf_candidates(xq, rq, node_rmax, lo_q, hi_q)
            per_query = max(qk.size / (hi_q - lo_q), 1.0)
            block = max(int(_CANDIDATE_BLOCK / per_query), 1)
            qi = qk if queries is None else queries[qk]
            keep = pairs_in_range(xw, qi, cj, radii, self.box, mode)
            if not include_self:
                keep &= qi != cj
            counts, kept = canonical_rows(qk[keep], cj[keep], lo_q, hi_q, n)
            block_rows = slice(lo_q, hi_q) if queries is None else queries[lo_q:hi_q]
            counts_out[block_rows] = counts
            indices_parts.append(kept)
            lo_q = hi_q

        indices = (
            np.concatenate(indices_parts)
            if indices_parts
            else np.empty(0, dtype=np.int64)
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts_out, out=offsets[1:])
        return NeighborList(offsets=offsets, indices=indices)

    def _leaf_candidates(
        self,
        xw: np.ndarray,
        radii: np.ndarray,
        node_rmax: np.ndarray | None,
        lo_q: int,
        hi_q: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(query, particle)`` pairs of every leaf the queries reach."""
        pairs_q = np.arange(lo_q, hi_q, dtype=np.int64)
        pairs_n = np.zeros(hi_q - lo_q, dtype=np.int64)  # start at root
        cand_q: list[np.ndarray] = []
        cand_j: list[np.ndarray] = []
        while pairs_q.size:
            dist2 = self._aabb_dist2(xw[pairs_q], pairs_n)
            cutoff = radii[pairs_q]
            if node_rmax is not None:
                cutoff = np.maximum(cutoff, node_rmax[pairs_n])
            alive = dist2 <= cutoff * cutoff
            pairs_q = pairs_q[alive]
            pairs_n = pairs_n[alive]
            leaf = self.child_count[pairs_n] == 0
            ln = pairs_n[leaf]
            counts = self.pend[ln] - self.pstart[ln]
            cand_j.append(self.order[expand_ranges(self.pstart[ln], counts)])
            cand_q.append(np.repeat(pairs_q[leaf], counts))
            # Expand internal nodes to their children.
            inn = pairs_n[~leaf]
            ccount = self.child_count[inn]
            pairs_n = expand_ranges(self.child_start[inn], ccount)
            pairs_q = np.repeat(pairs_q[~leaf], ccount)
        return np.concatenate(cand_q), np.concatenate(cand_j)


#: Candidate pairs per block of the numpy walk (~100 MB of transients).
_CANDIDATE_BLOCK = 1 << 20


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k]+counts[k])`` for all k."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    rep_starts = np.repeat(starts, counts)
    rep_base = np.repeat(np.cumsum(counts) - counts, counts)
    return rep_starts + (np.arange(total, dtype=np.int64) - rep_base)
