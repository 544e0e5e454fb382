"""Domain decomposition dispatch (Tables 3-4 "Domain Decomposition").

Five methods, covering the three parent codes plus two baselines:

* ``uniform-slabs`` — SPHYNX's "Straightforward": sort along the longest
  axis, cut into equal-count slabs.
* ``orb`` — SPH-flow's Orthogonal Recursive Bisection: recursively split
  the longest axis at the weighted median.
* ``sfc-morton`` / ``sfc-hilbert`` — ChaNGa-style space-filling-curve
  cuts: sort by curve key, cut into equal-weight chunks.
* ``block-index`` — contiguous input-order chunks with no spatial
  locality at all; the worst-case baseline for halo volume.

All methods return a per-particle rank assignment and support per-particle
work weights (so the dynamic load balancer can re-cut by measured cost).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tree.box import Box
from ..tree.morton import hilbert_keys, morton_keys

__all__ = ["Decomposition", "decompose", "DECOMPOSITION_METHODS"]

DECOMPOSITION_METHODS = (
    "uniform-slabs",  # SPHYNX "Straightforward"
    "orb",  # SPH-flow "Orthogonal Recursive Bisection"
    "sfc-morton",  # ChaNGa "Space Filling Curve"
    "sfc-hilbert",
    "block-index",  # no spatial locality at all (worst-case baseline)
)


@dataclass(frozen=True)
class Decomposition:
    """Result of a domain decomposition."""

    method: str
    n_ranks: int
    assignment: np.ndarray  # (n,) int rank per particle

    def counts(self) -> np.ndarray:
        """Particles per rank."""
        return np.bincount(self.assignment, minlength=self.n_ranks)

    def load(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Work per rank (particle counts, or summed weights)."""
        if weights is None:
            return self.counts().astype(np.float64)
        return np.bincount(
            self.assignment, weights=weights, minlength=self.n_ranks
        )

    def imbalance(self, weights: np.ndarray | None = None) -> float:
        """``max/mean`` load ratio (1.0 is perfectly balanced)."""
        load = self.load(weights)
        mean = load.mean()
        return float(load.max() / mean) if mean > 0 else 1.0

    def rank_particles(self, rank: int) -> np.ndarray:
        """Indices of the particles owned by ``rank``."""
        return np.nonzero(self.assignment == rank)[0]


def _equal_weight_cuts(
    order: np.ndarray, weights: np.ndarray, n_ranks: int
) -> np.ndarray:
    """Assign sorted particles to ranks at equal-cumulative-weight cuts."""
    w_sorted = weights[order]
    cum = np.cumsum(w_sorted)
    total = cum[-1] if cum.size else 0.0
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    # Rank of each sorted particle: which of the n equal buckets its
    # cumulative midpoint falls in.
    mid = cum - 0.5 * w_sorted
    ranks_sorted = np.minimum(
        (mid / total * n_ranks).astype(np.int64), n_ranks - 1
    )
    assignment = np.empty(order.size, dtype=np.int64)
    assignment[order] = ranks_sorted
    return assignment


def _orb(
    x: np.ndarray,
    weights: np.ndarray,
    index: np.ndarray,
    n_ranks: int,
    assignment: np.ndarray,
    rank_offset: int,
) -> None:
    """Recursive bisection: split the widest axis at the weighted median."""
    if n_ranks == 1:
        assignment[index] = rank_offset
        return
    pts = x[index]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    order = np.argsort(pts[:, axis], kind="stable")
    w_sorted = weights[index][order]
    cum = np.cumsum(w_sorted)
    total = cum[-1]
    # Split rank count as evenly as possible; weight splits proportionally.
    left_ranks = n_ranks // 2
    target = total * left_ranks / n_ranks
    split = int(np.searchsorted(cum, target))
    split = min(max(split, 1), index.size - 1)
    left = index[order[:split]]
    right = index[order[split:]]
    _orb(x, weights, left, left_ranks, assignment, rank_offset)
    _orb(x, weights, right, n_ranks - left_ranks, assignment, rank_offset + left_ranks)


def decompose(
    method: str,
    x: np.ndarray,
    n_ranks: int,
    box: Box | None = None,
    weights: np.ndarray | None = None,
) -> Decomposition:
    """Partition particles across ``n_ranks`` by the named method.

    ``weights`` (per-particle work estimates) make every method balance
    *work* instead of counts — the hook the dynamic load balancer uses.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if n_ranks > n:
        raise ValueError(f"more ranks ({n_ranks}) than particles ({n})")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,) or np.any(weights < 0.0):
            raise ValueError("weights must be a non-negative (n,) array")
    if box is None:
        box = Box.bounding(x)

    if method == "block-index":
        assignment = _equal_weight_cuts(np.arange(n), weights, n_ranks)
    elif method == "uniform-slabs":
        axis = int(np.argmax(box.span))
        order = np.argsort(x[:, axis], kind="stable")
        assignment = _equal_weight_cuts(order, weights, n_ranks)
    elif method == "sfc-morton":
        keys = morton_keys(box.wrap(x), box.lo, box.hi)
        assignment = _equal_weight_cuts(np.argsort(keys, kind="stable"), weights, n_ranks)
    elif method == "sfc-hilbert":
        keys = hilbert_keys(box.wrap(x), box.lo, box.hi)
        assignment = _equal_weight_cuts(np.argsort(keys, kind="stable"), weights, n_ranks)
    elif method == "orb":
        assignment = np.empty(n, dtype=np.int64)
        _orb(x, weights, np.arange(n), n_ranks, assignment, 0)
    else:
        raise ValueError(
            f"unknown decomposition {method!r}; choose from {DECOMPOSITION_METHODS}"
        )
    return Decomposition(method=method, n_ranks=n_ranks, assignment=assignment)
