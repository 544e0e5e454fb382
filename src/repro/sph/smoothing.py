"""Smoothing-length adaptation (Algorithm 1, step 2).

"The simulation will try to reach a given target number of neighbors and
this influences the value of the resulting smoothing length" (Section 3,
footnote 2).  The update used by SPH-EXA and SPHYNX is the damped
fixed-point iteration

    h <- h/2 * (1 + (n_target / n_i)^(1/dim))

run by each particle on its own until its count is within ``tolerance``
of the target, or until its next update would move ``h`` by at most
``tolerance / dim`` (the count scales like ``h^dim``), when it keeps its
``h`` — which stops a lattice particle from flipping between two shells
every step.  ``max_iterations`` caps a particle's sweeps.  A run starts
at the target (:func:`target_smoothing_lengths`).

One list build costs one neighbour search, padded by :data:`GROWTH_PAD`:
the sweeps count off the separations of one symmetric list, which holds
every gather neighbour while ``h`` stays inside the radius it was
searched at.  Only a particle that out-grows it triggers another search,
for the rows still running (a search that takes a ``rows`` mask, as the
driver's tree walk does, searches those alone), merged into the list by
:meth:`NeighborList.merged`.  The final list is cut from
the searched one by :meth:`NeighborList.within` — array for array what a
fresh search at the final ``h`` returns, rows ascending (so a search
handed in here need not order its rows).  Every list is searched at the
Verlet cache's padded radius ``(1 + SKIN) * 2 h`` and stored in the
cache, which later evaluations iterate off while the state stays inside
the skin.  On numpy each row's separations are sorted once and a sweep
counts the running rows by bisection.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .._lazy import lazy_exports
from ..tree.box import Box
from ..tree.neighborlist import NeighborList, VerletNeighborCache

__all__ = [
    "SmoothingConfig",
    "target_smoothing_lengths",
    "update_smoothing_lengths",
    "adapt_smoothing_lengths",
    "adapt_from_cached_list",
]


#: The default search, the cell grid, loads when a build first needs it
#: (the driver hands in its tree walk, so a run never does).
__getattr__, __dir__ = lazy_exports(__name__, {
    "..tree.cellgrid": ("cell_grid_search",),
})


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


#: Radius head-room of a search.  Every build starts near the target
#: count, where the damped update moves ``h`` by a few per cent; 10 %
#: covers the rest of the iteration at 1.33x the pairs in 3-D.
GROWTH_PAD = 1.1

#: Row states of the h iteration (``rp_adapt`` writes the same codes):
#: iterating, count within the tolerance, update below ``tolerance /
#: dim``, ``max_iterations`` sweeps run.
RUNNING, WITHIN_TOLERANCE, STALLED, CAPPED = 0, 1, 2, 3

#: Volume of the unit ball in 1, 2 and 3 dimensions.
_UNIT_BALL = (2.0, np.pi, 4.0 * np.pi / 3.0)


def target_smoothing_lengths(m, rho, dim: int, n_neighbors: int) -> np.ndarray:
    """The ``h`` whose support holds ``n_neighbors`` particles of volume
    ``m / rho``: ``V_dim (2h)^dim = n_neighbors m / rho``, ``V_dim`` the
    volume of the unit ball — where the h iteration starts a run (an IC
    builder's ``h``, at the target its caller names: a scenario's run at
    its own ``n_neighbors``)."""
    volume = n_neighbors * np.asarray(m, dtype=np.float64) / np.asarray(rho)
    return 0.5 * (volume / _UNIT_BALL[dim - 1]) ** (1.0 / dim)


def update_smoothing_lengths(
    h: np.ndarray, counts: np.ndarray, n_target: int, dim: int
) -> np.ndarray:
    """One damped fixed-point update of ``h`` toward the target count."""
    counts = np.maximum(np.asarray(counts, dtype=np.float64), 1.0)
    return 0.5 * h * (1.0 + (float(n_target) / counts) ** (1.0 / dim))


def adapt_smoothing_lengths(
    particles,
    box: Box | None,
    config: SmoothingConfig,
    cache: VerletNeighborCache,
    search: Callable[..., NeighborList] | None = None,
    backend=None,
    support: float | None = None,
) -> Tuple[NeighborList, Optional[NeighborList]]:
    """Build a neighbour list: search, iterate h, cut the list to fit.

    Updates ``particles.h`` in place and returns ``(nlist, cut)``: the
    final neighbour list (symmetric mode, self-pair included, rows
    ascending) at the cache's padded radius ``(1 + SKIN) * 2 h`` — the
    list a search at that radius returns — and the list the compiled pair
    phases run over (below; else ``None``).  The list is stored in
    ``cache`` with the reference ``x``/``h``, and the cache's stats count
    the build; the counts that drive the iteration are always those
    within ``r <= 2 h_i``.  ``search(x, radii, box, mode)`` defaults to
    the cell grid (``octree.walk_neighbors``-like callables use the tree
    walk); one that also takes ``rows`` (a boolean mask) is asked for the
    rows still running alone when they out-grow the list it built.

    With a compiled ``backend`` the sweeps a list can serve run in one
    row-local op (``CompiledOps.adapt``), bitwise the numpy loop.  Given
    the kernel's ``support`` it also emits ``cut``: the lower half (``j <=
    i``) of the pairs of ``nlist`` within ``support * max(h_i, h_j)``.
    """
    return _adapt(particles, box, config, search, cache, backend, support=support)


def adapt_from_cached_list(
    particles,
    nlist: NeighborList,
    box: Box | None,
    config: SmoothingConfig,
    cache: VerletNeighborCache,
    pairs=None,
    backend=None,
    search: Callable[..., NeighborList] | None = None,
    support: float | None = None,
) -> Tuple[NeighborList, Optional[NeighborList]]:
    """Run the h iteration off ``cache``'s padded list ``nlist``.

    While every iterate stays inside the cache's h-growth budget
    (:attr:`~repro.tree.neighborlist.VerletNeighborCache.h_budget`), the
    counts off the padded list are exact, so ``h`` takes the trajectory a
    fresh search would give and the cached list comes back untouched.  An
    iterate that out-grows the budget turns the call into a build off a
    fresh ``search``.  The return and ``support`` are those of
    :func:`adapt_smoothing_lengths`; ``pairs`` is the caller's
    :class:`~repro.tree.pairs.Pairs` record of ``nlist``, whose ``r`` the
    numpy sweeps count off (the phases' support cut reuses it).
    """
    return _adapt(
        particles, box, config, search, cache, backend, nlist, pairs=pairs,
        support=support,
    )


def _adapt(
    particles, box, config, search, cache, backend, nlist=None, pairs=None,
    support=None,
):
    """The h iteration; ``nlist`` hands in the cached list to start on
    (it counts exactly and holds the final list up to ``cache.h_budget``),
    ``pairs`` its record, ``support`` asks a compiled backend for the
    cut."""
    ops = backend.ops if backend is not None else None
    if ops is None:
        support = None
    if search is None:
        from ..tree.cellgrid import cell_grid_search

        search = lambda x, radii, box, mode: cell_grid_search(  # noqa: E731
            x, radii, box, mode=mode
        )
    factor = cache.search_factor
    stats = cache.stats
    budget = cache.h_budget
    by_rows = "rows" in inspect.signature(search).parameters
    h = particles.h
    start = h.copy()
    state = np.zeros(particles.n, dtype=np.int8)
    sweeps = np.zeros(particles.n, dtype=np.int32)
    cut = None

    def searched(rows=None) -> NeighborList:
        # Every row padded by GROWTH_PAD, a row still running by the
        # growth it has shown on top (1 on a first search); ``rows`` are
        # the rows the caller will read.
        nonlocal budget
        budget = h * GROWTH_PAD
        running = state == RUNNING
        budget[running] *= h[running] / start[running]
        extra = {"rows": rows} if rows is not None and by_rows else {}
        found = search(particles.x, factor * budget, box, "symmetric", **extra)
        stats.searches += 1
        stats.pairs_searched += found.n_pairs
        return found

    built = nlist is None
    if built:
        nlist = searched()
    while True:
        # The update factor per count, by the update function at h = 1:
        # h * F[c] is its 0.5 * h * (1 + p) to the bit.
        table = update_smoothing_lengths(
            1.0, np.arange(nlist.longest_row + 1), config.n_target, particles.dim
        )
        if ops is not None:
            # A list a search returned is never the final one: no cut.
            cut = ops.adapt(
                particles.x, h, budget, nlist.as_int32(), box, table, config,
                state, sweeps, None if built else support,
            )
        else:
            r = (pairs.r if pairs is not None and not built
                 else nlist.pair_geometry(particles.x, box)[1])
            _sweep_rows(_sorted_rows(nlist, r), h, budget, table, config,
                        particles.dim, state, sweeps)
        running = state == RUNNING
        if not np.any(running):
            break
        # A row still running out-grew the list.  One this call searched
        # keeps its other rows, and only the running ones are searched
        # again and merged in; the cached list (searched at other
        # positions) is replaced.
        if built:
            nlist = nlist.merged(searched(running), running, ops)
        else:
            nlist, built = searched(), True
    stats.adaptations += 1
    stats.particles += particles.n
    stats.sweeps += int(sweeps.sum())
    stats.within_tolerance += int(np.count_nonzero(state == WITHIN_TOLERANCE))
    if built:
        nlist = nlist.within(particles.x, factor * h, box, ops)
        cache.store(nlist, particles.x, h)
        if support is not None:
            # The final h came from no call over the final list: every row
            # is finished, so the op only emits.
            cut = ops.adapt(
                particles.x, h, None, nlist.as_int32(), box, None, config,
                state, sweeps, support,
            )
    return nlist, cut


def _sweep_rows(rows, h, budget, table, config, dim, state, sweeps):
    """``rp_adapt``'s row loop over the running rows of :func:`_sorted_rows`
    at once, expression for expression: writes ``h``, ``state``, ``sweeps``."""
    step = config.tolerance / dim
    run = np.flatnonzero(state == RUNNING)
    while True:
        capped = sweeps[run] == config.max_iterations
        state[run[capped]] = CAPPED
        run = run[~capped]
        if not run.size:
            return
        counts = _counts_within(rows, 2.0 * h[run], run)
        sweeps[run] += 1
        within = np.abs(counts - config.n_target) / config.n_target <= config.tolerance
        h_run = h[run]
        h_new = np.clip(h_run * table[counts], config.h_min, config.h_max)
        stalled = ~within & (np.abs(h_new - h_run) <= step * h_run)
        state[run[within]] = WITHIN_TOLERANCE
        state[run[stalled]] = STALLED
        go = ~(within | stalled)
        run = run[go]
        h[run] = h_new[go]
        # A row that left the list stays running: it is searched again
        # (and at the cap stops on entry to the next call, no sweep run).
        run = run[h[run] <= budget[run]]


def _sorted_rows(nlist: NeighborList, r: np.ndarray) -> np.ndarray:
    """The pair separations ``r`` of ``nlist`` as one row per particle,
    each row ascending and padded with NaN to ``longest_row + 1`` columns
    (``NaN <= t`` is False, and NaN sorts last)."""
    rows = np.full((nlist.n, nlist.longest_row + 1), np.nan)
    rows[np.arange(rows.shape[1]) < nlist.counts()[:, None]] = r  # CSR order
    rows.sort(axis=1)
    return rows


def _counts_within(rows: np.ndarray, radius, which: np.ndarray) -> np.ndarray:
    """``#{r <= radius_k}`` of the rows ``which`` of :func:`_sorted_rows`
    — the list's ``bincount(i[r <= radius[i]])`` exactly — by bisecting
    the rows at once: ``lo`` entries of a row are known to count, those
    from ``hi`` on known not to."""
    width = rows.shape[1]
    flat = rows.ravel()
    base = which * width
    lo = np.zeros(base.size, dtype=np.intp)
    hi = np.full(base.size, width - 1, dtype=np.intp)
    for _ in range((width - 1).bit_length()):
        mid = (lo + hi) >> 1
        below = flat.take(base + mid) <= radius
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo
