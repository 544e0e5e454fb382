"""Smoothing-length adaptation (Algorithm 1, step 2).

"The simulation will try to reach a given target number of neighbors and
this influences the value of the resulting smoothing length" (Section 3,
footnote 2).  The update used by SPH-EXA and SPHYNX is the damped
fixed-point iteration

    h <- h/2 * (1 + (n_target / n_i)^(1/dim))

which converges in a handful of sweeps because the neighbour count scales
like ``h^dim`` in locally-uniform distributions.

One list build costs one neighbour search: the sweeps re-count off the
pair separations of a single symmetric list, which holds every gather
neighbour while ``h`` stays inside the radius it was searched at.  Only an
iterate that out-grows that radius triggers another search (from the
current iterate, padded by :data:`GROWTH_PAD`), and the converged list is
cut from the searched one by :meth:`NeighborList.within` — array for array
what a fresh search at the final ``h`` returns, rows ascending whatever
order the search left them in (the sweeps only count, so a search handed
in here need not order its rows).  A build that starts from an ``h`` an
earlier adaptation already rewrote (``adapted``) pads its first search
too: such an ``h`` drifts by a few per cent between builds, and searching
it exactly meant searching twice.

On numpy the separations of a list are sorted row by row once, and each
sweep counts every row by bisection — ``log2`` of the longest row steps
over ``n`` particles instead of a pass over the pairs, same counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..tree.box import Box
from ..tree.cellgrid import cell_grid_search
from ..tree.neighborlist import NeighborList, VerletNeighborCache

__all__ = [
    "SmoothingConfig",
    "update_smoothing_lengths",
    "adapt_smoothing_lengths",
    "adapt_from_cached_list",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Parameters of the neighbour-count-driven h update."""

    n_target: int = 100
    tolerance: float = 0.05
    max_iterations: int = 10
    h_min: float = 1e-12
    h_max: float = np.inf

    def __post_init__(self) -> None:
        if self.n_target < 1:
            raise ValueError(f"n_target must be >= 1, got {self.n_target}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")


#: Radius head-room of a search.  The damped update multiplies ``h`` by
#: at most ``(1 + n_target**(1/dim)) / 2`` per sweep but by a few per cent
#: once counts are near the target, which is where a build starts from
#: when an earlier adaptation has rewritten ``h``, and where a budget is
#: out-grown; 10 % covers the rest of the iteration at 1.33x the pairs in
#: 3-D — less than the exact search plus the padded re-search it replaces.
#: Only the first search over a never-adapted ``h`` (a run's first build)
#: is exact: the IC's ``h`` can be far off, most of that list is cut away
#: again, and it is the run's peak allocation.
GROWTH_PAD = 1.1


def update_smoothing_lengths(
    h: np.ndarray, counts: np.ndarray, n_target: int, dim: int
) -> np.ndarray:
    """One damped fixed-point update of ``h`` toward the target count."""
    counts = np.maximum(np.asarray(counts, dtype=np.float64), 1.0)
    return 0.5 * h * (1.0 + (float(n_target) / counts) ** (1.0 / dim))


def adapt_smoothing_lengths(
    particles,
    box: Box | None = None,
    config: SmoothingConfig = SmoothingConfig(),
    search: Callable[..., NeighborList] | None = None,
    cache: VerletNeighborCache | None = None,
    backend=None,
    adapted: bool = False,
    support: float | None = None,
) -> Tuple[NeighborList, Optional[NeighborList]]:
    """Build a neighbour list: search, iterate h, cut the list to fit.

    Updates ``particles.h`` in place and returns ``(nlist, cut)``: the
    final neighbour list (symmetric mode, self-pair included, rows
    ascending) — the list a search at the converged ``h`` returns — and
    the list the compiled pair phases run over (below; else ``None``).

    ``search`` defaults to the cell-grid path; pass
    ``octree.walk_neighbors``-compatible callables to use the tree walk.

    With a :class:`~repro.tree.neighborlist.VerletNeighborCache`, lists
    have the padded radius ``(1 + skin) * 2 h`` and the final (padded)
    list is stored in the cache together with the reference ``x``/``h``;
    the driver serves subsequent steps from the cache until a particle
    out-drifts the skin.  The neighbour *counts* driving the h iteration
    are unaffected: they are always filtered to the true gather support
    ``r <= 2 h_i``.

    With a compiled ``backend`` all the sweeps a list can serve run in
    one row-local op (``CompiledOps.adapt``) whose counts and updates
    are bitwise the numpy expressions', so the h trajectory — and
    therefore every downstream neighbour list — is exactly the same;
    nothing per-pair outlives the op.  Given the kernel's ``support``,
    the op that leaves the final ``h`` over the final list also emits
    ``cut``: the lower half (``j <= i``) of the pairs of ``nlist`` within
    ``support * max(h_i, h_j)``, off the geometry the sweeps computed
    (:meth:`~repro.backend.compiled.CompiledOps.adapt`).

    ``adapted`` says that an earlier adaptation already rewrote this
    ``h`` (the driver holds a list from an earlier evaluation), which
    pads the first search by :data:`GROWTH_PAD` instead of searching the
    exact radius.
    """
    return _adapt(
        particles, box, config, search, cache, backend, adapted=adapted,
        support=support,
    )


def adapt_from_cached_list(
    particles,
    nlist: NeighborList,
    box: Box | None = None,
    config: SmoothingConfig = SmoothingConfig(),
    cache: VerletNeighborCache | None = None,
    pairs=None,
    backend=None,
    search: Callable[..., NeighborList] | None = None,
    support: float | None = None,
) -> Tuple[NeighborList, Optional[NeighborList]]:
    """Run the h iteration off a cached padded list.

    While every iterate stays inside the cache's h-growth budget
    (:attr:`~repro.tree.neighborlist.VerletNeighborCache.h_budget`), the
    neighbour counts filtered to ``r <= 2 h_i`` computed from the padded
    list are *exact*, so the damped fixed-point iteration takes exactly
    the h trajectory a fresh-search adaptation would, and the cached list
    is returned untouched — no search.  The return and ``support`` are
    those of :func:`adapt_smoothing_lengths`.

    An iterate that out-grows the budget turns the call into a build: the
    iteration carries on from that iterate off a fresh ``search`` and the
    new list replaces the cached one, as in
    :func:`adapt_smoothing_lengths`.

    ``pairs`` is the caller's :class:`~repro.tree.pairs.Pairs` record of
    ``nlist``: the numpy sweeps count off its ``r``, so the support cut
    the phases read after the iteration reuses that geometry pass.
    """
    if cache is None:
        raise ValueError("adapt_from_cached_list requires the owning cache")
    return _adapt(
        particles, box, config, search, cache, backend, nlist, cache.h_budget,
        pairs=pairs, support=support,
    )


def _adapt(
    particles, box, config, search, cache, backend, nlist=None,
    budget=None, adapted=False, pairs=None, support=None,
):
    """The h iteration; ``nlist``/``budget`` hand in a cached list to start
    on, ``pairs`` its record, ``support`` asks a compiled backend for the
    cut.

    ``budget`` is the per-particle ``h`` up to which the list in hand both
    counts exactly and contains the final list.
    """
    ops = backend.ops if backend is not None else None
    if ops is None:
        support = None
    cut = None
    if search is None:
        search = lambda x, radii, box, mode: cell_grid_search(  # noqa: E731
            x, radii, box, mode=mode
        )
    factor = 2.0 if cache is None else cache.search_factor
    stats = cache.stats if cache is not None else None
    built = met = False
    rows = None
    sweeps = 0
    max_err = 0.0
    while True:
        if nlist is None or np.any(particles.h > budget):
            # Exact radius only over a never-adapted h; a re-search starts
            # from the iterate that out-grew the last one.
            exact = nlist is None and not adapted
            budget = particles.h * (1.0 if exact else GROWTH_PAD)
            nlist = search(particles.x, factor * budget, box, "symmetric")
            if stats is not None:
                stats.searches += 1
                stats.pairs_searched += nlist.n_pairs
            built = True
            rows = None
        if sweeps == config.max_iterations:
            break
        if ops is not None:
            # Every sweep this list can serve, in one compiled pass; a
            # list a search returned is never the final one.
            done, met, max_err, cut = _fused_sweeps(
                ops, particles, nlist, box, budget, config,
                config.max_iterations - sweeps, None if built else support,
            )
            sweeps += done
            if met:
                break
            continue
        if rows is None:
            if pairs is not None and not built:
                r = pairs.r
            else:
                r = nlist.pair_geometry(particles.x, box)[1]
            rows = _sorted_rows(nlist, r)
        # Count only gather neighbours (r <= 2 h_i) off the symmetric list.
        counts = _counts_within(rows, 2.0 * particles.h)
        sweeps += 1
        rel_err = np.abs(counts - config.n_target) / config.n_target
        max_err = float(rel_err.max(initial=0.0))
        if max_err <= config.tolerance:
            met = True
            break
        h_new = update_smoothing_lengths(
            particles.h, counts, config.n_target, particles.dim
        )
        particles.h[:] = np.clip(h_new, config.h_min, config.h_max)
    if stats is not None:
        stats.adaptations += 1
        stats.sweeps += sweeps
        stats.converged += met
        stats.max_count_error = max_err
    if built:
        nlist = nlist.within(particles.x, factor * particles.h, box, ops)
        if cache is not None:
            cache.store(nlist, particles.x, particles.h)
    if support is not None and (built or cut is None):
        # The final h came from no call over the final list: emit only.
        cut = ops.adapt(
            particles.x, particles.h, None, nlist.as_int32(), box, None, 1,
            0.0, np.inf, 0, support,
        )[3]
    return nlist, cut


def _sorted_rows(nlist: NeighborList, r: np.ndarray) -> np.ndarray:
    """The pair separations ``r`` of ``nlist`` as one row per particle,
    each row ascending and padded with NaN to ``longest_row + 1`` columns
    (``NaN <= t`` is False, and NaN sorts last)."""
    rows = np.full((nlist.n, nlist.longest_row + 1), np.nan)
    rows[np.arange(rows.shape[1]) < nlist.counts()[:, None]] = r  # CSR order
    rows.sort(axis=1)
    return rows


def _counts_within(rows: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """``#{r <= radius_k}`` of every row ``k`` of :func:`_sorted_rows` — the
    list's ``bincount(i[r <= radius[i]])`` exactly — by bisecting all rows
    at once: ``lo`` entries of a row are known to count, those from ``hi``
    on known not to."""
    n, width = rows.shape
    flat, base = rows.ravel(), np.arange(n) * width
    lo = np.zeros(n, dtype=np.intp)
    hi = np.full(n, width - 1, dtype=np.intp)
    for _ in range((width - 1).bit_length()):
        mid = (lo + hi) >> 1
        below = flat.take(base + mid) <= radius
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _fused_sweeps(ops, particles, nlist, box, budget, config, sweeps, support):
    """Up to ``sweeps`` sweeps of the h iteration off ``nlist`` in one
    compiled op; writes ``particles.h``.  Returns ``(sweeps run, met,
    largest relative count error of the last one, cut)`` — the cut the
    op that left ``particles.h`` emitted, given ``support``.

    The op runs every sweep of every row and reports, per sweep, the two
    facts the reference loop stops on — in its order: the count
    tolerance met *before* an update, a budget out-grown *by* one.  Only
    when one of them fires early (no shipped workload does) are the
    iterates past it unwanted, and the op is run again from the saved
    start for exactly the updates that count (none: it only emits).

    The update factor is tabulated by :func:`update_smoothing_lengths`
    itself, at ``h = 1``: ``h * F[c]`` is the reference's ``0.5 * h *
    (1 + p)`` to the bit, scaling by 0.5 being exact.
    """
    table = update_smoothing_lengths(
        1.0, np.arange(nlist.longest_row + 1), config.n_target, particles.dim
    )
    start = particles.h.copy()

    def run(k):
        return ops.adapt(
            particles.x, start, budget, nlist.as_int32(), box, table,
            config.n_target, config.h_min, config.h_max, k, support,
        )

    h, err, grown, cut = run(sweeps)
    met = err <= config.tolerance
    stops = np.nonzero(met | grown)[0]
    done = int(stops[0]) + 1 if stops.size else sweeps
    hit = bool(met[done - 1])  # False when nothing stopped the op early
    updates = done - hit  # the sweep that meets the tolerance updates nothing
    if updates < sweeps:
        h, _, _, cut = run(updates)
    particles.h[:] = h
    return done, hit, float(err[done - 1]), cut
