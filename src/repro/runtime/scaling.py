"""Strong-scaling experiment driver (Figures 1-3).

"This work employs a set of strong-scaling experiments to assess the
performance at scale with fixed number of particles for each test"
(Section 5.2).  :func:`strong_scaling` sweeps core counts for one
(code, test, machine) combination with the calibrated cluster model, and
:func:`format_scaling_table` prints the series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.config import SimulationConfig
from ..observability.pop import PopMetrics, pop_from_events
from ..observability.tracer import Tracer
from .calibration import calibrate_kappa
from .cluster import ClusterModel
from .machine import MachineSpec
from .workloads import Workload, build_workload

__all__ = [
    "ScalingPoint",
    "ScalingSeries",
    "strong_scaling",
    "format_scaling_table",
    "PAPER_CORE_COUNTS",
]

#: Core counts of the paper's x-axes (12 = one Piz Daint node).
PAPER_CORE_COUNTS = (12, 24, 48, 96, 192, 384, 768, 1536)


@dataclass(frozen=True)
class ScalingPoint:
    """One (cores, time) sample of a strong-scaling curve."""

    cores: int
    ranks: int
    time_per_step: float
    particles_per_core: float
    pop: PopMetrics

    @property
    def speedup_base(self) -> float:
        return self.cores * self.time_per_step  # used for relative speedup


@dataclass(frozen=True)
class ScalingSeries:
    """A full strong-scaling curve for one (code, test, machine)."""

    code: str
    test: str
    machine: str
    points: List[ScalingPoint]

    def times(self) -> np.ndarray:
        return np.array([p.time_per_step for p in self.points])

    def cores(self) -> np.ndarray:
        return np.array([p.cores for p in self.points])

    def speedups(self) -> np.ndarray:
        t = self.times()
        c = self.cores()
        return (t[0] * c[0] / c) / t * (c / c[0])  # = t[0]/t

    def parallel_efficiency(self) -> np.ndarray:
        t = self.times()
        c = self.cores()
        return t[0] * c[0] / (t * c)


def strong_scaling(
    preset: SimulationConfig,
    test: str,
    machine: MachineSpec,
    core_counts: Sequence[int] = PAPER_CORE_COUNTS,
    n_particles: int = 1_000_000,
    n_steps: int = 20,
    workload: Workload | None = None,
) -> ScalingSeries:
    """Sweep core counts with the calibrated model; returns the curve.

    ``n_steps`` matches the paper's 20-step runs; steps are statistically
    identical in the model so the average equals a single step, but the
    sweep still simulates all of them so traces carry per-step structure.
    """
    if workload is None:
        workload = build_workload(test, n_particles)
    kappa = calibrate_kappa(preset, workload)
    points: List[ScalingPoint] = []
    ref_useful: float | None = None
    for cores in core_counts:
        tracer = Tracer()
        model = ClusterModel(
            workload=workload,
            preset=preset,
            machine=machine,
            n_cores=cores,
            kappa=kappa,
            tracer=tracer,
        )
        avg = model.average_step_time(n_steps=min(n_steps, 3))
        pop = pop_from_events(tracer, reference_useful_total=ref_useful)
        if ref_useful is None:
            # Reference scale: its own useful total (CompScal = 1 there).
            ref_useful = pop.total_useful
            pop = pop_from_events(tracer, reference_useful_total=ref_useful)
        points.append(
            ScalingPoint(
                cores=cores,
                ranks=model.n_ranks,
                time_per_step=avg,
                particles_per_core=workload.n / cores,
                pop=pop,
            )
        )
    return ScalingSeries(
        code=preset.label, test=test, machine=machine.name, points=points
    )


def format_scaling_table(series_list: Sequence[ScalingSeries]) -> str:
    """Side-by-side table of time-per-step curves (the figure data)."""
    if not series_list:
        return "(no series)"
    all_cores = sorted({p.cores for s in series_list for p in s.points})
    head = f"{'cores':>7} " + " ".join(
        f"{s.machine[:12]:>14}" for s in series_list
    )
    sub = f"{'':>7} " + " ".join(
        f"{(s.code + '/' + s.test)[:14]:>14}" for s in series_list
    )
    lines = [sub, head, "-" * len(head)]
    lookup: List[Dict[int, float]] = [
        {p.cores: p.time_per_step for p in s.points} for s in series_list
    ]
    for cores in all_cores:
        row = [f"{cores:>7d}"]
        for table in lookup:
            t = table.get(cores)
            row.append(f"{t:>14.2f}" if t is not None else f"{'-':>14}")
        lines.append(" ".join(row))
    lines.append("(average seconds per time-step, lower is better)")
    return "\n".join(lines)
