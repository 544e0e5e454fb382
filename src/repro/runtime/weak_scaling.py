"""Weak-scaling experiments — the paper's stated next step.

"A factor that has not yet been explored is the weak scaling of these
codes, which is usually the regime in which they operate in production
runs.  This is part of ongoing analysis work." (Section 5.2.)

This module carries that analysis out on the model: the particle count
grows with the core count at fixed particles/core, each point building
its own workload geometry (the square patch re-gridded, the Evrard
sphere re-sampled), decomposing it, and running the calibrated step
model.  Ideal weak scaling is a *flat* time-per-step curve; deviations
measure the O(log P) collectives, the halo surface growth and the
replicated work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.config import SimulationConfig
from ..observability.pop import PopMetrics, pop_from_events
from ..observability.tracer import Tracer
from .calibration import calibrate_kappa
from .cluster import ClusterModel
from .machine import MachineSpec
from .workloads import build_workload

__all__ = ["WeakScalingPoint", "WeakScalingSeries", "weak_scaling"]


@dataclass(frozen=True)
class WeakScalingPoint:
    """One (cores, n_particles, time) sample at fixed particles/core."""

    cores: int
    n_particles: int
    time_per_step: float
    pop: PopMetrics


@dataclass(frozen=True)
class WeakScalingSeries:
    """A weak-scaling curve for one (code, test, machine)."""

    code: str
    test: str
    machine: str
    particles_per_core: int
    points: List[WeakScalingPoint]

    def times(self) -> np.ndarray:
        return np.array([p.time_per_step for p in self.points])

    def weak_efficiency(self) -> np.ndarray:
        """t(base) / t(P): 1.0 is ideal weak scaling."""
        t = self.times()
        return t[0] / t

    def report(self) -> str:
        lines = [
            f"weak scaling: {self.code} / {self.test} on {self.machine} "
            f"({self.particles_per_core:,} particles/core)",
            f"  {'cores':>7} {'N':>12} {'t/step [s]':>12} {'weak eff':>9} {'LB':>6}",
        ]
        eff = self.weak_efficiency()
        for p, e in zip(self.points, eff):
            lines.append(
                f"  {p.cores:>7d} {p.n_particles:>12,} {p.time_per_step:>12.2f} "
                f"{e:>9.2f} {p.pop.load_balance:>6.3f}"
            )
        return "\n".join(lines)


def weak_scaling(
    preset: SimulationConfig,
    test: str,
    machine: MachineSpec,
    core_counts: Sequence[int],
    particles_per_core: int = 50_000,
    n_steps: int = 3,
) -> WeakScalingSeries:
    """Sweep core counts at fixed particles/core.

    Calibration: kappa comes from the paper's strong-scaling anchor (the
    12-core point of the 10^6-particle run); the same constant applies
    across the sweep since it is a per-pair cost.
    """
    # Calibrate once against the paper's configuration.
    anchor_workload = build_workload(test, 1_000_000)
    kappa = calibrate_kappa(preset, anchor_workload)
    points: List[WeakScalingPoint] = []
    ref_useful_per_rank: float | None = None
    for cores in core_counts:
        workload = build_workload(test, particles_per_core * cores)
        tracer = Tracer()
        model = ClusterModel(
            workload=workload,
            preset=preset,
            machine=machine,
            n_cores=cores,
            kappa=kappa,
            tracer=tracer,
        )
        avg = model.average_step_time(n_steps=n_steps)
        # Weak-scaling CompScal: useful per rank should stay constant.
        m = pop_from_events(tracer)
        if ref_useful_per_rank is None:
            ref_useful_per_rank = m.total_useful / m.n_ranks
        m = pop_from_events(
            tracer,
            reference_useful_total=ref_useful_per_rank * m.n_ranks,
        )
        points.append(
            WeakScalingPoint(
                cores=cores,
                n_particles=workload.n,
                time_per_step=avg,
                pop=m,
            )
        )
    return WeakScalingSeries(
        code=preset.label,
        test=test,
        machine=machine.name,
        particles_per_core=particles_per_core,
        points=points,
    )
