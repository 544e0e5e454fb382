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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    ctx=None,
    backend=None,
    adapted: bool = False,
) -> NeighborList:
    """Build a neighbour list: search, iterate h, cut the list to fit.

    Updates ``particles.h`` in place and returns the final neighbour list
    (symmetric mode, self-pair included, rows ascending) ready for the SPH
    kernels — the list a search at the converged ``h`` returns.

    ``search`` defaults to the cell-grid path; pass
    ``octree.walk_neighbors``-compatible callables to use the tree walk.

    With a :class:`~repro.tree.neighborlist.VerletNeighborCache`, lists
    have the padded radius ``(1 + skin) * 2 h`` and the final (padded)
    list is stored in the cache together with the reference ``x``/``h``;
    the driver serves subsequent steps from the cache until a particle
    out-drifts the skin.  The neighbour *counts* driving the h iteration
    are unaffected: they are always filtered to the true gather support
    ``r <= 2 h_i``.

    ``ctx`` is an optional :class:`~repro.sph.pair_engine.PairContext`:
    pair geometry is then computed through (and the final list left
    primed in) the context, so the SPH phases that follow in the same
    evaluation reuse its ``(i, j, dx, r)`` block instead of recomputing
    it, and every write of ``h`` is reported to it.

    With a compiled ``backend`` the separations and per-sweep counts come
    from ``repro.backend`` ops whose arithmetic is bitwise-identical to
    the numpy expressions, so the h trajectory — and therefore every
    downstream neighbour list — is exactly the same; what the context
    keeps is the radii of the final list, for the support filter of the
    compiled phases.

    ``adapted`` says that an earlier adaptation already rewrote this
    ``h`` (the driver holds a list from an earlier evaluation), which
    pads the first search by :data:`GROWTH_PAD` instead of searching the
    exact radius.
    """
    return _adapt(
        particles, box, config, search, cache, ctx, backend, adapted=adapted
    )


def adapt_from_cached_list(
    particles,
    nlist: NeighborList,
    box: Box | None = None,
    config: SmoothingConfig = SmoothingConfig(),
    cache: VerletNeighborCache | None = None,
    ctx=None,
    backend=None,
    search: Callable[..., NeighborList] | None = None,
) -> NeighborList:
    """Run the h iteration off a cached padded list.

    While every iterate stays inside the cache's h-growth budget
    (:attr:`~repro.tree.neighborlist.VerletNeighborCache.h_budget`), the
    neighbour counts filtered to ``r <= 2 h_i`` computed from the padded
    list are *exact*, so the damped fixed-point iteration takes exactly
    the h trajectory a fresh-search adaptation would, and the cached list
    is returned untouched — no search.

    An iterate that out-grows the budget turns the call into a build: the
    iteration carries on from that iterate off a fresh ``search`` and the
    new list replaces the cached one, as in
    :func:`adapt_smoothing_lengths`.
    """
    if cache is None:
        raise ValueError("adapt_from_cached_list requires the owning cache")
    return _adapt(
        particles, box, config, search, cache, ctx, backend, nlist, cache.h_budget
    )


def _adapt(
    particles, box, config, search, cache, ctx, backend, nlist=None,
    budget=None, adapted=False,
):
    """The h iteration; ``nlist``/``budget`` hand in a cached list to start on.

    ``budget`` is the per-particle ``h`` up to which the list in hand both
    counts exactly and contains the final list.
    """
    ops = backend.ops if backend is not None else None
    if search is None:
        search = lambda x, radii, box, mode: cell_grid_search(  # noqa: E731
            x, radii, box, mode=mode
        )
    factor = 2.0 if cache is None else cache.search_factor
    stats = cache.stats if cache is not None else None
    built = met = False
    i = r = None
    sweeps = 0
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
            r = None
        if sweeps == config.max_iterations:
            break
        if r is None:
            i, r = _pair_radii(particles.x, nlist, box, ctx, ops)
        # Count only gather neighbours (r <= 2 h_i) off the symmetric list.
        if ops is not None:
            counts = ops.counts_from_radii(r, particles.h, nlist, 2.0)
        else:
            counts = np.bincount(i[r <= 2.0 * particles.h[i]], minlength=particles.n)
        sweeps += 1
        rel_err = np.abs(counts - config.n_target) / config.n_target
        if float(rel_err.max(initial=0.0)) <= config.tolerance:
            met = True
            break
        h_new = update_smoothing_lengths(
            particles.h, counts, config.n_target, particles.dim
        )
        particles.h[:] = np.clip(h_new, config.h_min, config.h_max)
        if ctx is not None:
            ctx.h_written()
    if stats is not None:
        stats.adaptations += 1
        stats.sweeps += sweeps
        stats.converged += met
    if built:
        nlist = nlist.within(particles.x, factor * particles.h, box, ops)
        if cache is not None:
            cache.store(nlist, particles.x, particles.h)
    if ctx is not None:
        # Prime the final list so downstream phases bind as a pure reuse
        # (and the context lets go of a searched list it was cut from).
        _pair_radii(particles.x, nlist, box, ctx, ops)
    return nlist


def _pair_radii(x, nlist, box, ctx, ops):
    """``(pair_i, r)`` of ``nlist`` — once per list, re-filtered per sweep."""
    if ops is not None:
        # A cached list is also the list the phases run over: through the
        # context its radii serve their support filter too.
        if ctx is not None:
            return None, ctx.radii(ops, x, nlist, box)
        return None, ops.pair_radii(x, nlist, box)
    if ctx is not None:
        pc = ctx.bind(x, nlist, box)
        return pc.i, pc.r
    return nlist.pair_i(), nlist.pair_geometry(x, box)[1]
