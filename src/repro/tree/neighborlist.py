"""Compressed (CSR) neighbour-list container.

SPH spends essentially all of its time looping over particle-neighbour
pairs (Algorithm 1, steps 2-3).  The library represents the interaction
lists in CSR form — one flat ``indices`` array plus per-particle
``offsets`` — so that every SPH kernel can be written as vectorized numpy
over the flat pair arrays followed by segmented reductions
(``np.add.reduceat`` / ``np.bincount``), with no per-particle Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .box import Box

__all__ = [
    "NeighborList",
    "pairs_in_range",
    "sum_of_squares",
    "canonical_rows",
    "reduce_pairs",
    "balanced_row_slices",
    "SKIN",
    "VerletCacheStats",
    "VerletNeighborCache",
]


def reduce_pairs(
    pair_i: np.ndarray,
    n_rows: int,
    values: np.ndarray,
    flat_index: np.ndarray | None = None,
) -> np.ndarray:
    """Sum per-pair ``values`` into ``n_rows`` per-particle bins.

    The 2-D/N-D case runs as a *single* flattened ``np.bincount`` over
    ``pair_i * k + column`` instead of one bincount per column: for every
    output bin the contributing pairs are visited in the same ascending
    pair order either way, so the accumulation order — and therefore the
    floating-point sum — is bitwise identical to the per-column loop.
    ``flat_index`` optionally supplies the precomputed flattened index
    (it depends only on ``pair_i`` and the column count, so callers that
    reduce repeatedly can cache it).
    """
    values = np.asarray(values)
    if values.ndim == 1:
        return np.bincount(pair_i, weights=values, minlength=n_rows)
    k = int(np.prod(values.shape[1:]))
    if flat_index is None:
        flat_index = (
            pair_i[:, None] * k + np.arange(k, dtype=np.int64)
        ).ravel()
    flat = np.bincount(
        flat_index, weights=values.reshape(-1), minlength=n_rows * k
    )
    return flat.reshape((n_rows,) + values.shape[1:])


def pairs_in_range(
    xw: np.ndarray,
    qi: np.ndarray,
    cj: np.ndarray,
    radii: np.ndarray,
    box: Box | None,
    mode: str,
) -> np.ndarray:
    """Acceptance mask of candidate pairs ``(qi, cj)`` — *the* predicate.

    ``r2 <= cutoff * cutoff`` on the box-wrapped positions ``xw``, with
    ``cutoff = radii[qi]`` (``"gather"``) or ``max(radii[qi], radii[cj])``
    (``"symmetric"``).  Every numpy search and :meth:`NeighborList.within`
    evaluate this one expression (the compiled walk mirrors it operation
    for operation), which is what makes their outputs equal as arrays
    even when a lattice puts pairs exactly on the cutoff.
    """
    dx = np.take(xw, qi, axis=0) - np.take(xw, cj, axis=0)
    if box is not None:
        box.min_image(dx, out=dx)
    cutoff = radii[qi]
    if mode == "symmetric":
        cutoff = np.maximum(cutoff, radii[cj])
    return sum_of_squares(dx) <= cutoff * cutoff


def sum_of_squares(d: np.ndarray) -> np.ndarray:
    """Row sums of ``d**2`` for ``(m, dim)`` vectors; squares ``d`` in place.

    Axis by axis with plain ufuncs — one IEEE operation each on every
    host (``einsum`` may fuse multiply-adds where the CPU has them) — so
    the C search can reproduce the value to the bit.
    """
    np.multiply(d, d, out=d)
    total = d[:, 0].copy()
    for axis in range(1, d.shape[1]):
        total += d[:, axis]
    return total


def canonical_rows(
    qi: np.ndarray, cj: np.ndarray, lo: int, hi: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR rows for queries ``[lo, hi)`` from unordered pairs ``(qi, cj)``.

    Returns ``(counts, indices)`` with every row in ascending neighbour
    index — the canonical order all searches emit, independent of how the
    candidates were enumerated (tree leaves, grid cells, radius).  One
    sort of the fused key ``(qi - lo) * n + cj`` does both orderings.
    """
    key = (qi - lo) * n + cj
    key.sort()
    row, indices = np.divmod(key, n)
    return np.bincount(row, minlength=hi - lo), indices


@dataclass(frozen=True)
class NeighborList:
    """CSR neighbour lists for ``n`` query particles.

    ``indices[offsets[i]:offsets[i+1]]`` are the neighbours of particle
    ``i``, in ascending index order when the list comes from a search.
    ``pair_i()`` expands the implicit query index to one entry per pair
    for use in flat vectorized kernels.

    ``offsets`` are int64; the ``indices`` column keeps the width it is
    given — int32 from the compiled searches (one integer per pair is
    all the compiled path stores), int64 from the numpy ones and for
    anything else handed in.  Every numpy consumer takes either.
    """

    offsets: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        indices = np.asarray(self.indices)
        indices = np.ascontiguousarray(
            indices, dtype=np.int32 if indices.dtype == np.int32 else np.int64
        )
        if offsets.ndim != 1 or offsets.size < 1:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must start at 0 and be non-decreasing")
        if offsets[-1] != indices.size:
            raise ValueError(
                f"offsets[-1]={offsets[-1]} must equal len(indices)={indices.size}"
            )
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "indices", indices)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of query particles."""
        return self.offsets.size - 1

    @property
    def n_pairs(self) -> int:
        """Total number of (i, j) interaction pairs."""
        return self.indices.size

    def counts(self) -> np.ndarray:
        """Neighbour count per query particle."""
        return np.diff(self.offsets)

    def _memo(self, name: str, compute):
        """``compute()`` once per (frozen, immutable) instance."""
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    @property
    def longest_row(self) -> int:
        """Largest neighbour count (sizes the compiled ops' row buffers)."""
        return self._memo("_longest", lambda: int(self.counts().max(initial=0)))

    def as_int32(self) -> "NeighborList":
        """This list with an int32 ``indices`` column — what the compiled
        ops take: ``self`` when it already has one, else a twin made once
        and kept on the instance (a list is converted once, not once per
        op call)."""
        if self.indices.dtype == np.int32:
            return self

        def narrow() -> "NeighborList":
            if self.indices.max(initial=0) >= 2**31:
                raise OverflowError("neighbour indices do not fit int32")
            return NeighborList(self.offsets, self.indices.astype(np.int32))

        return self._memo("_int32", narrow)

    def pair_i(self) -> np.ndarray:
        """Query index ``i`` for every pair (aligned with ``indices``).

        Computed once and memoized on the (frozen) instance: the CSR
        arrays are immutable, so the ``np.repeat`` expansion never
        changes and repeated callers share one array.  Treat the result
        as read-only.
        """
        return self._memo(
            "_pair_i",
            lambda: np.repeat(np.arange(self.n, dtype=np.int64), self.counts()),
        )

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(i, j)`` index arrays, one entry per interaction pair."""
        return self.pair_i(), self.indices

    def transpose(self) -> Optional[np.ndarray]:
        """Reverse-pair index ``t``: pair ``t[m]`` is ``(j_m, i_m)``, the
        reverse of pair ``m`` — or ``None`` when some pair has none here.

        On a symmetric list with ascending rows, sorting the pairs by ``j``
        (stably, so by ``i`` within equal ``j``) puts them in ``(j, i)``
        order, which is the list's own ``(i, j)`` order read backwards: one
        ``argsort``, verified once and memoised like :meth:`pair_i`.  A
        gather-mode list, or one whose rows are not ascending, fails the
        check.  Treat the result as read-only."""

        def compute():
            i, j = self.pairs()
            t = np.argsort(j, kind="stable")
            ok = np.array_equal(i.take(t), j) and np.array_equal(j.take(t), i)
            return t if ok else False  # ``None`` means "not computed yet"

        t = self._memo("_transpose", compute)
        return None if t is False else t

    def halo_end(self, hi: int) -> int:
        """One past the last row holding an index below ``hi`` (at least
        ``hi``; rows ascending): the rows from ``hi`` on whose lower
        halves reach back into a slice ``[lo, hi)`` — the halo a pair-once
        op over that slice reads (:mod:`repro.backend.csrc`).  The suffix
        minimum of the rows' first entries is memoised like
        :meth:`pair_i`, so a lookup is one bisection."""
        if hi >= self.n:
            return self.n

        def reach():
            first = np.full(self.n, self.n, dtype=np.int64)  # empty rows
            full = self.counts() > 0
            first[full] = self.indices[self.offsets[:-1][full]]
            return np.minimum.accumulate(first[::-1])[::-1]

        return hi + int(np.searchsorted(self._memo("_reach", reach)[hi:], hi))

    def neighbors_of(self, i: int) -> np.ndarray:
        """Neighbour indices of a single particle (for tests/diagnostics)."""
        return self.indices[self.offsets[i] : self.offsets[i + 1]]

    def row_slice(self, lo: int, hi: int) -> "NeighborList":
        """Sub-list for query rows ``[lo, hi)``.

        ``pair_i()`` of the slice is *local* (0-based); ``indices`` still
        refer to the global particle set, so slice kernels index global
        state arrays with ``lo + pair_i()`` — the substrate of the
        row-slice fan-out in :mod:`repro.core.phase_executor`.
        """
        if not 0 <= lo <= hi <= self.n:
            raise ValueError(f"row slice [{lo}, {hi}) out of range for n={self.n}")
        offsets = self.offsets[lo : hi + 1] - self.offsets[lo]
        indices = self.indices[self.offsets[lo] : self.offsets[hi]]
        return NeighborList(offsets=offsets, indices=indices)

    def within(
        self, x: np.ndarray, radii: np.ndarray, box: Box | None = None, ops=None
    ) -> "NeighborList":
        """The pairs of this list inside symmetric search radii ``radii``.

        Same predicate and same wrapped positions as a search, and rows
        in the canonical ascending order whatever order this list holds
        them in, so when this list holds every pair within
        ``max(radii[i], radii[j])`` the result is array-for-array the list
        a fresh symmetric search at ``radii`` returns — at the cost of one
        pass over the pairs instead of a traversal.  ``ops`` is the
        compiled op table (``None`` = numpy).
        """
        xw = np.ascontiguousarray(x, dtype=np.float64)
        if box is not None:
            xw = box.wrap(xw)
        radii = np.ascontiguousarray(radii, dtype=np.float64)
        if ops is not None:
            return NeighborList(
                *ops.pairs_within(self.as_int32(), xw, radii, box)
            )
        i, j = self.pairs()
        keep = pairs_in_range(xw, i, j, radii, box, "symmetric")
        counts, indices = canonical_rows(i[keep], j[keep], 0, self.n, xw.shape[0])
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return NeighborList(offsets=offsets, indices=indices)

    def merged(
        self, fresh: "NeighborList", rows: np.ndarray, ops=None
    ) -> "NeighborList":
        """This list — a symmetric search — after its ``rows`` (a boolean
        mask) were searched again, symmetrically, into ``fresh`` at radii
        that grew for them.

        Those rows are ``fresh``'s, and every other row keeps its pairs
        with the rows not searched again and takes its pairs with the
        others from ``fresh``, reversed — by index alone, each pair once.
        A pair with a re-searched row is held both ways when ``fresh``
        holds it, any other pair when this list does, so every pair within
        the radii of either search for its rows is there to cut; with the
        other rows' radii unchanged the result is, as sets, the symmetric
        search at the grown radii.  Rows are unordered; ``ops`` is the
        compiled op table (``None`` = numpy); ``fresh``'s other rows are
        never read (a search of every row serves as well).
        """
        rows = np.asarray(rows, dtype=bool)
        if ops is not None:
            return NeighborList(
                *ops.merge_rows(self.as_int32(), fresh.as_int32(), rows)
            )
        i, j = self.pairs()
        t, k = fresh.pairs()
        kept, redone = ~rows[i] & ~rows[j], rows[t]
        t, k = t[redone], k[redone]
        back = ~rows[k]
        counts, indices = canonical_rows(
            np.concatenate([i[kept], t, k[back]]),
            np.concatenate([j[kept], k, t[back]]), 0, self.n, self.n,
        )
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return NeighborList(offsets=offsets, indices=indices)

    # ------------------------------------------------------------------
    def pair_geometry(
        self, x: np.ndarray, box: Box | None = None, row_offset: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Separation vectors and distances for every pair.

        Returns ``(dx, r)`` with ``dx[k] = x_i - x_j`` under the minimum
        image convention of ``box`` (if given) and ``r = |dx|``.  For a
        :meth:`row_slice` sub-list, pass the slice start as ``row_offset``
        so query indices address the global position array.
        """
        i, j = self.pairs()
        if row_offset:
            i = i + row_offset
        # ``take`` gathers rows ~3x faster than ``x[i]``, same bytes.
        dx = np.take(x, i, axis=0) - np.take(x, j, axis=0)
        if box is not None:
            dx = box.min_image(dx)
        r = np.sqrt(np.einsum("ij,ij->i", dx, dx))
        return dx, r

    def reduce(self, values: np.ndarray) -> np.ndarray:
        """Sum per-pair ``values`` into per-query-particle totals.

        Works for flat ``(n_pairs,)`` arrays and ``(n_pairs, k)`` stacks.
        Particles with zero neighbours contribute zeros.
        """
        values = np.asarray(values)
        if values.shape[0] != self.n_pairs:
            raise ValueError(
                f"values has leading size {values.shape[0]}, expected {self.n_pairs}"
            )
        return reduce_pairs(self.pair_i(), self.n, values)


def balanced_row_slices(offsets: np.ndarray, n_slices: int) -> list[Tuple[int, int]]:
    """Split query rows into ``n_slices`` contiguous ranges of ~equal pairs.

    Pair work, not row count, is what the SPH kernels cost, so the
    phase executor splits the CSR ``offsets`` at equal-pair
    boundaries.  Empty ranges are dropped; at most ``n_slices`` are
    returned.
    """
    offsets = np.asarray(offsets)
    n = offsets.size - 1
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    if n_slices == 1:  # every phase of a serial run asks for this one
        return [(0, n)] if n else []
    total = int(offsets[-1])
    targets = (np.arange(1, n_slices) * total) // n_slices
    cuts = np.searchsorted(offsets, targets, side="left")
    bounds = np.concatenate([[0], cuts, [n]])
    bounds = np.maximum.accumulate(np.clip(bounds, 0, n))
    return [
        (int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]


# ----------------------------------------------------------------------
# Verlet-skin neighbour-list cache
# ----------------------------------------------------------------------
#: Skin fraction of ``h`` of every neighbour list: lists are searched at
#: ``(1 + SKIN) * 2 h`` and reused while the state stays inside the skin.
SKIN = 0.3


@dataclass
class VerletCacheStats:
    """Counters of one run's cache behaviour (reported by profiling).

    ``searches`` counts the neighbour searches (tree walks or cell-grid
    passes, interpreted or compiled) the builds cost: one per build, plus
    one for each time an h iterate out-grew the searched radius;
    ``pairs_searched`` the pairs those searches emitted, before the cut
    to the final ``h``.  ``adaptations`` counts the calls of the h
    iteration the cache serves, ``particles`` the particles they iterated
    (``n`` per call), ``sweeps`` their count sweeps and
    ``within_tolerance`` those that ended with a count within the
    tolerance (the rest stopped on a small update or at the sweep cap).
    """

    builds: int = 0
    searches: int = 0
    pairs_searched: int = 0
    hits: int = 0
    misses_displacement: int = 0
    misses_h_change: int = 0
    misses_shape: int = 0
    adaptations: int = 0
    particles: int = 0
    sweeps: int = 0
    within_tolerance: int = 0

    @property
    def lookups(self) -> int:
        return (
            self.hits
            + self.misses_displacement
            + self.misses_h_change
            + self.misses_shape
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never asked)."""
        total = self.lookups
        return self.hits / total if total else 0.0


@dataclass
class VerletNeighborCache:
    """Verlet-skin neighbour-list cache (skip Algorithm-1 phases B-D).

    Lists are built once with padded support ``(1 + SKIN) * 2 h`` and
    reused while the state stays within the skin budget, split evenly
    between motion and smoothing-length growth:

    * displacement: ``|x - x_ref| <= SKIN/2 * h_ref`` per particle;
    * h growth: ``h <= (1 + SKIN/2) * h_ref`` per particle (shrinking is
      always safe).

    Under both bounds any pair within the true symmetric support
    ``2 max(h_i, h_j)`` had build-time separation at most ``2 max(h) +
    d_i + d_j <= (1 + SKIN) * 2 max(h_ref)`` — i.e. the pair is in the
    cached list, so neighbour *counts* filtered to ``r <= 2 h`` are exact
    and the h-adaptation iteration can run off the cached list without a
    fresh search.  Extra padded pairs are harmless: the driver cuts them
    before the pair phases, and one that reaches a phase adds exact zeros
    (every SPH pair term carries a kernel factor that vanishes beyond
    ``2 h``; the force loop masks its one non-kernel diagnostic, ``max
    |mu|``, to the true support).  Cached and fresh evaluations agree bit
    for bit on every backend, so a run that drops the list (a restore, a
    rollback) rebuilds it and carries on with the same bits.

    The cache invalidates itself whenever a smoothing length out-grows
    the budget, whenever the particle count changes, and whenever any
    displacement exceeds the skin allowance.
    """

    stats: VerletCacheStats = field(default_factory=VerletCacheStats)
    _nlist: Optional[NeighborList] = None
    _x_ref: Optional[np.ndarray] = None
    _h_ref: Optional[np.ndarray] = None

    @property
    def search_factor(self) -> float:
        """Search-radius multiplier of ``h`` for cache-compatible builds."""
        return (1.0 + SKIN) * 2.0

    @property
    def h_ref(self) -> Optional[np.ndarray]:
        """Smoothing lengths the cached list was built with."""
        return self._h_ref

    @property
    def h_budget(self) -> Optional[np.ndarray]:
        """Largest ``h`` the cached list still counts exactly (per particle)."""
        if self._h_ref is None:
            return None
        return (1.0 + 0.5 * SKIN) * self._h_ref

    def covers(self, h: np.ndarray) -> bool:
        """True while ``h`` stays within the growth half of the skin."""
        return self._h_ref is not None and bool(np.all(h <= self.h_budget))

    def lookup(
        self, x: np.ndarray, h: np.ndarray, box: Box | None = None
    ) -> Optional[NeighborList]:
        """Return the cached list if still valid for state ``(x, h)``."""
        if self._nlist is None or self._x_ref is None:
            self.stats.misses_shape += 1
            return None
        if x.shape != self._x_ref.shape:
            self.stats.misses_shape += 1
            self.invalidate()
            return None
        if not self.covers(h):
            self.stats.misses_h_change += 1
            self.invalidate()
            return None
        dx = x - self._x_ref
        if box is not None:
            dx = box.min_image(dx)
        disp = np.sqrt(np.einsum("ij,ij->i", dx, dx))
        if np.any(disp > 0.5 * SKIN * self._h_ref):
            self.stats.misses_displacement += 1
            self.invalidate()
            return None
        self.stats.hits += 1
        return self._nlist

    def store(self, nlist: NeighborList, x: np.ndarray, h: np.ndarray) -> None:
        """Record a freshly built padded list and its reference state."""
        self._nlist = nlist
        self._x_ref = np.array(x, copy=True)
        self._h_ref = np.array(h, copy=True)
        self.stats.builds += 1

    def invalidate(self) -> None:
        """Drop the cached list (forces a rebuild on the next lookup)."""
        self._nlist = None
        self._x_ref = None
        self._h_ref = None
