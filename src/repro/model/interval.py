"""Optimal checkpoint intervals (Table 4 "Optimal interval / Multilevel").

Single-level formulas — Young (1974) and Daly (2006) — plus the two-level
optimum in the spirit of Di, Robert, Vivien & Cappello (ref [20] of the
paper): fast (e.g. burst-buffer) checkpoints against frequent failures
combined with slow (parallel-file-system) checkpoints against failures
the fast level cannot cover.

All functions express time in arbitrary consistent units.  The companion
failure-injection simulator (:mod:`repro.model.failures`) is what
the tests validate these closed forms against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "young_interval",
    "daly_interval",
    "expected_waste",
    "TwoLevelConfig",
    "two_level_intervals",
]


def young_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Young's first-order optimum ``W = sqrt(2 C M)``."""
    if checkpoint_cost <= 0.0 or mtbf <= 0.0:
        raise ValueError("checkpoint_cost and mtbf must be positive")
    return float(np.sqrt(2.0 * checkpoint_cost * mtbf))


def daly_interval(checkpoint_cost: float, mtbf: float) -> float:
    """Daly's higher-order refinement of Young's formula.

    ``W = sqrt(2 C M) [1 + (1/3)sqrt(C/2M) + C/9M] - C`` for ``C < 2M``,
    falling back to ``W = M`` when checkpoints are overwhelmingly costly.
    """
    if checkpoint_cost <= 0.0 or mtbf <= 0.0:
        raise ValueError("checkpoint_cost and mtbf must be positive")
    c, m = checkpoint_cost, mtbf
    if c >= 2.0 * m:
        return float(m)
    root = np.sqrt(2.0 * c * m)
    w = root * (1.0 + np.sqrt(c / (2.0 * m)) / 3.0 + c / (9.0 * 2.0 * m)) - c
    return float(max(w, c))


def expected_waste(
    interval: float, checkpoint_cost: float, mtbf: float, restart_cost: float = 0.0
) -> float:
    """Expected overhead fraction of a periodic checkpointing scheme.

    First-order model: per period ``W + C`` the overhead is the checkpoint
    ``C`` plus, with probability ``(W + C)/M``, a restart plus half a
    period of recomputation.  Valid for ``W + C << M``.
    """
    if interval <= 0.0:
        raise ValueError("interval must be positive")
    period = interval + checkpoint_cost
    p_fail = period / mtbf
    waste = checkpoint_cost + p_fail * (restart_cost + 0.5 * period)
    return float(waste / period)


@dataclass(frozen=True)
class TwoLevelConfig:
    """Two-level checkpoint system parameters.

    Level 1 (fast, local/burst buffer) covers a fraction of failures
    (e.g. node crashes recoverable from a buddy copy); level 2 (slow,
    PFS) covers the rest (e.g. multi-node or storage failures).
    """

    cost_fast: float
    cost_slow: float
    mtbf: float
    #: Fraction of failures recoverable from the fast level.
    fast_coverage: float = 0.8

    def __post_init__(self) -> None:
        if min(self.cost_fast, self.cost_slow, self.mtbf) <= 0.0:
            raise ValueError("costs and mtbf must be positive")
        if not 0.0 <= self.fast_coverage <= 1.0:
            raise ValueError("fast_coverage must be within [0, 1]")


def two_level_intervals(config: TwoLevelConfig) -> tuple[float, float]:
    """Optimal (fast, slow) checkpoint intervals for a two-level scheme.

    Each level sees an effective failure rate: the fast level recovers
    ``fast_coverage`` of failures (MTBF / coverage apart), the slow level
    the remainder.  Applying Young's formula per level with its effective
    MTBF is the standard first-order decomposition of the multilevel
    optimum; the slow interval is floored at the fast one (a slower level
    cannot usefully checkpoint more often than a faster one).
    """
    cov = config.fast_coverage
    eps = 1e-12
    mtbf_fast = config.mtbf / max(cov, eps)
    mtbf_slow = config.mtbf / max(1.0 - cov, eps)
    w_fast = young_interval(config.cost_fast, mtbf_fast) if cov > 0 else np.inf
    w_slow = (
        young_interval(config.cost_slow, mtbf_slow) if cov < 1.0 else np.inf
    )
    if np.isfinite(w_fast) and np.isfinite(w_slow):
        w_slow = max(w_slow, w_fast)
    return float(w_fast), float(w_slow)
