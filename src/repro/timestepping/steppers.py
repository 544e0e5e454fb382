"""Time-step selection policies (Tables 1-2 "Time-Stepping").

Three policies cover the parent codes:

* :class:`GlobalTimestep` — SPHYNX / SPH-flow "Global": every particle
  advances with the same dt, the global minimum of the criteria.
* :class:`IndividualTimesteps` — ChaNGa "Individual": particles are sorted
  into power-of-two bins ("rungs") below a base step; bin b advances with
  ``dt_base / 2^b`` and all bins synchronize at base-step boundaries.
  This saves work when time scales are spatially inhomogeneous (the
  Evrard core vs its halo) at the cost of load imbalance — exactly the
  effect Section 4 lists among the "load imbalance factors arising from
  the characteristic of the three SPH codes (multi-time-stepping)".
* :class:`AdaptiveTimestep` — SPH-flow "Adaptive": a global dt re-scaled
  each step within growth/shrink limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .criteria import TimestepParams, combined_timestep

__all__ = [
    "STEPPERS",
    "GlobalTimestep",
    "AdaptiveTimestep",
    "IndividualTimesteps",
    "RungSchedule",
]


class GlobalTimestep:
    """Single global dt: minimum criterion over all particles."""

    name = "global"

    def __init__(self, params: TimestepParams = TimestepParams()) -> None:
        self.params = params
        self._dt_prev: float | None = None

    def select(self, particles, max_mu: float = 0.0) -> float:
        dt = float(np.min(combined_timestep(particles, max_mu, self.params)))
        if self._dt_prev is not None:
            dt = min(dt, self.params.max_growth * self._dt_prev)
        self._dt_prev = dt
        return dt


class AdaptiveTimestep:
    """Global dt with symmetric growth/shrink rate limiting (SPH-flow)."""

    name = "adaptive"

    def __init__(
        self,
        params: TimestepParams = TimestepParams(),
        shrink_limit: float = 0.5,
    ) -> None:
        if not 0.0 < shrink_limit <= 1.0:
            raise ValueError(f"shrink_limit must be in (0, 1], got {shrink_limit}")
        self.params = params
        self.shrink_limit = shrink_limit
        self._dt_prev: float | None = None

    def select(self, particles, max_mu: float = 0.0) -> float:
        dt = float(np.min(combined_timestep(particles, max_mu, self.params)))
        if self._dt_prev is not None:
            dt = min(dt, self.params.max_growth * self._dt_prev)
            dt = max(dt, self.shrink_limit * self._dt_prev)
        self._dt_prev = dt
        return dt


@dataclass(frozen=True)
class RungSchedule:
    """Assignment of particles to power-of-two time-step bins.

    ``rung[i] = b`` means particle i advances ``2^b`` times per base step
    with ``dt_base / 2^b``.  The base step runs ``2^max_rung`` substeps;
    substep s advances the particles whose rung satisfies
    ``s % 2^(max_rung - b) == 0`` — the standard block scheme.
    """

    dt_base: float
    rung: np.ndarray

    @property
    def max_rung(self) -> int:
        return int(self.rung.max(initial=0))

    @property
    def n_substeps(self) -> int:
        return 1 << self.max_rung

    def substep_dt(self) -> float:
        """dt of the finest rung — the substep granularity."""
        return self.dt_base / self.n_substeps

    def active_mask(self, substep: int) -> np.ndarray:
        """Particles that start a new step at this substep index."""
        period = 1 << (self.max_rung - self.rung)
        return substep % period == 0

    def active_counts(self) -> List[int]:
        """Active particle count per substep — the work profile of the
        base step (what the cluster cost model charges)."""
        return [int(self.active_mask(s).sum()) for s in range(self.n_substeps)]

    def total_particle_updates(self) -> int:
        """Sum of active counts — compare to ``n * 2^max_rung`` for the
        saving over a global step at the finest dt."""
        return int((1 << self.rung.astype(np.int64)).sum())


@dataclass
class IndividualTimesteps:
    """Per-particle power-of-two binning below a base step (ChaNGa)."""

    params: TimestepParams = field(default_factory=TimestepParams)
    max_rung_cap: int = 10
    name: str = "individual"

    def schedule(self, particles, max_mu: float = 0.0) -> RungSchedule:
        """Bin the per-particle criteria into rungs under the base step."""
        dt_i = combined_timestep(particles, max_mu, self.params)
        finite = np.isfinite(dt_i)
        if not np.any(finite):
            return RungSchedule(dt_base=np.inf, rung=np.zeros(particles.n, dtype=np.int64))
        dt_base = float(dt_i[finite].max())
        with np.errstate(divide="ignore", over="ignore"):
            ratio = dt_base / np.where(finite, dt_i, dt_base)
        rung = np.ceil(np.log2(np.maximum(ratio, 1.0))).astype(np.int64)
        rung = np.clip(rung, 0, self.max_rung_cap)
        return RungSchedule(dt_base=dt_base, rung=rung)

    def select(self, particles, max_mu: float = 0.0) -> float:
        """Global-compatible interface: the finest bin's dt.

        The full block scheme is driven by :meth:`schedule`; drivers that
        only support synchronous stepping (the common mini-app case) use
        the finest dt, and the *cost* of the rung structure is charged by
        the cluster model via :meth:`RungSchedule.active_counts`.
        """
        sched = self.schedule(particles, max_mu)
        if not np.isfinite(sched.dt_base):
            return np.inf
        return sched.dt_base / sched.n_substeps


#: ``SimulationConfig.timestepping`` name -> the stepper class the driver
#: selects dt with.
STEPPERS = {
    "global": GlobalTimestep,
    "individual": IndividualTimesteps,
    "adaptive": AdaptiveTimestep,
}
