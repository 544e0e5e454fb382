"""The consolidated run report behind ``Simulation.report()``.

One typed, dict-convertible object: every execution path's counters
(neighbour cache, h iteration, gravity, checkpoint, guard), one section
each, plus the POP efficiency metrics computed from the measured span
timeline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from .pop import PopMetrics

__all__ = [
    "RunReport",
    "format_neighbor_cache",
    "format_gravity",
]


@dataclass(frozen=True)
class RunReport:
    """Everything one finished (or in-flight) run can tell about itself.

    ``neighbor_cache`` and ``h_iteration`` are filled on every run;
    sections that do not apply to the run's configuration are ``None``
    (e.g. ``gravity`` on a run without self-gravity).
    """

    steps: int
    time: float
    n_particles: int
    neighbor_cache: Dict[str, float]
    #: The h iteration: adaptations, mean count sweeps per particle and
    #: share of particles ending within the count tolerance.
    h_iteration: Dict[str, float]
    #: Barnes-Hut work: calls, mean P2P/M2P interactions per step (and
    #: per particle of a step) and which rendering ran (``None`` when
    #: gravity is off).
    gravity: Optional[Dict[str, object]] = None
    checkpoint: Optional[Dict[str, float]] = None
    #: Step-guard activity (a ``repro.resilience.guard.GuardReport`` —
    #: duck-typed here to keep observability import-free of resilience).
    guard: Optional[object] = None
    pop: Optional[PopMetrics] = None
    #: Execution-backend provenance: resolved name, compiled flag,
    #: toolchain version/detail and the originally requested name.
    backend: Optional[Dict[str, object]] = None

    @classmethod
    def of_simulation(cls, sim) -> "RunReport":
        """The report of a :class:`~repro.core.simulation.Simulation`: its
        neighbour-cache, gravity, checkpoint and guard counters with the
        POP efficiency metrics computed from the measured span timeline."""
        from .pop import pop_from_events

        backend = dict(sim.backend.describe(), requested=sim.backend_requested)
        # Per particle per adaptation: count sweeps, ending within tolerance.
        hs = sim._ncache.stats
        per = max(hs.particles, 1)
        gravity = None
        if sim._gravity_calls:
            steps = max(len(sim.history), 1)
            p2p = sum(s.n_p2p for s in sim.history) / steps
            m2p = sum(s.n_m2p for s in sim.history) / steps
            n = max(sim.particles.n, 1)
            gravity = {
                "calls": sim._gravity_calls,
                "p2p_per_step": p2p,
                "m2p_per_step": m2p,
                "p2p_per_particle": p2p / n,
                "m2p_per_particle": m2p / n,
                "path": sim._gravity_path,
            }
        tr, manager, guard = sim.tracer, sim.checkpoint_manager, sim.step_guard
        return cls(
            steps=sim.step_index,
            time=sim.time,
            n_particles=sim.particles.n,
            neighbor_cache=dict(asdict(hs), hit_rate=hs.hit_rate),
            h_iteration={
                "adaptations": hs.adaptations,
                "mean_sweeps": hs.sweeps / per,
                "within_tolerance_share": hs.within_tolerance / per,
            },
            gravity=gravity,
            checkpoint=manager.stats() if manager is not None else None,
            guard=guard.report() if guard is not None else None,
            pop=pop_from_events(tr) if tr.enabled and tr.events else None,
            backend=backend,
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain nested dict (JSON-serializable)."""
        out: Dict[str, object] = {
            "steps": self.steps,
            "time": self.time,
            "n_particles": self.n_particles,
            "neighbor_cache": dict(self.neighbor_cache),
            "h_iteration": dict(self.h_iteration),
            "gravity": dict(self.gravity) if self.gravity else None,
            "checkpoint": dict(self.checkpoint) if self.checkpoint else None,
            "guard": (
                self.guard.as_dict() if self.guard is not None else None
            ),
            "pop": asdict(self.pop) if self.pop is not None else None,
            "backend": dict(self.backend) if self.backend else None,
        }
        return out

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"run: steps={self.steps} t={self.time:.6g} "
            f"n_particles={self.n_particles}"
        ]
        if self.backend is not None:
            lines.append(
                f"backend: {self.backend.get('name', '?')} "
                f"(requested={self.backend.get('requested', '?')}, "
                f"{self.backend.get('version', '?')})"
            )
        lines.append(
            format_neighbor_cache(self.neighbor_cache, self.h_iteration)
        )
        if self.gravity is not None:
            lines.append(format_gravity(self.gravity))
        if self.checkpoint is not None:
            lines.append(
                f"checkpoint: writes={self.checkpoint.get('writes', 0)} "
                f"last_write={self.checkpoint.get('last_write_seconds', 0.0):.4f}s"
            )
        if self.guard is not None:
            lines.append(self.guard.summary())
        if self.pop is not None:
            lines.append(self.pop.row().strip())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# One-line formatters of the report's sections
# ----------------------------------------------------------------------
def format_neighbor_cache(stats, h_iteration=None) -> str:
    """One-line report of a run's Verlet cache: hit rate, invalidations,
    what the builds searched and, given the report's ``h_iteration``
    block, how the h iteration ended."""
    line = (
        f"neighbor-cache: hit_rate={stats['hit_rate']:5.3f} "
        f"(hits={stats['hits']}, builds={stats['builds']} in "
        f"{stats['searches']} searches of {stats['pairs_searched']} pairs, "
        f"invalidated: displacement={stats['misses_displacement']}, "
        f"h-change={stats['misses_h_change']}, "
        f"cold/shape={stats['misses_shape']})"
    )
    if h_iteration is None:
        return line
    return (
        f"{line}; h-iteration: {h_iteration['adaptations']} adaptations, "
        f"{h_iteration['mean_sweeps']:.2f} sweeps per particle, "
        f"{h_iteration['within_tolerance_share']:.1%} within tolerance"
    )


def format_gravity(stats) -> str:
    """One-line report of the Barnes-Hut work of a self-gravitating run."""
    return (
        f"gravity: calls={stats['calls']} "
        f"p2p/step={stats['p2p_per_step']:.0f} "
        f"m2p/step={stats['m2p_per_step']:.0f} "
        f"(per particle {stats['p2p_per_particle']:.0f} + "
        f"{stats['m2p_per_particle']:.0f}) path={stats['path']}"
    )
