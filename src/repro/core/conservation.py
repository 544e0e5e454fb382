"""Conservation diagnostics.

"It is much more important to limit the deviations in under-resolved
regimes by enforcing fundamental conservation laws" (Section 5).  The
driver snapshots mass, momentum and the energy budget every step; tests
assert drift bounds, and the step guard's health check
(:mod:`repro.resilience.guard`) judges the same ledger against the
scenario's bounds to flag silent data corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConservationState", "measure_conservation", "relative_drift"]


@dataclass(frozen=True)
class ConservationState:
    """Snapshot of the globally conserved quantities."""

    time: float
    total_mass: float
    momentum: np.ndarray
    angular_momentum: np.ndarray
    kinetic_energy: float
    internal_energy: float
    potential_energy: float

    @property
    def total_energy(self) -> float:
        return self.kinetic_energy + self.internal_energy + self.potential_energy

    def summary(self) -> str:
        return (
            f"t={self.time:.5g} M={self.total_mass:.6g} "
            f"E_kin={self.kinetic_energy:.6g} E_int={self.internal_energy:.6g} "
            f"E_pot={self.potential_energy:.6g} E_tot={self.total_energy:.6g} "
            f"|p|={np.linalg.norm(self.momentum):.3e}"
        )


def measure_conservation(
    particles, time: float = 0.0, potential_energy: float = 0.0
) -> ConservationState:
    """Snapshot the conserved quantities of a particle system."""
    return ConservationState(
        time=time,
        total_mass=particles.total_mass,
        momentum=particles.linear_momentum(),
        angular_momentum=particles.angular_momentum(),
        kinetic_energy=particles.kinetic_energy(),
        internal_energy=particles.internal_energy(),
        potential_energy=potential_energy,
    )


def relative_drift(
    initial: ConservationState, current: ConservationState
) -> dict[str, float]:
    """Relative drift of each conserved quantity since ``initial``.

    Momentum drift is normalized by the momentum *scale*
    ``sqrt(2 m E_kin)`` rather than |p| (which is ~0 for symmetric ICs).
    """
    ke_scale = max(initial.kinetic_energy, current.kinetic_energy, 0.0)
    # Cold ICs (Evrard: v=0) have no initial momentum scale; fall back to
    # the energy scale so the ratio stays meaningful.
    if ke_scale <= 0.0:
        ke_scale = abs(initial.internal_energy) + abs(initial.potential_energy)
    p_scale = max(np.sqrt(2.0 * initial.total_mass * ke_scale), 1e-300)
    e_scale = max(
        abs(initial.kinetic_energy)
        + abs(initial.internal_energy)
        + abs(initial.potential_energy),
        1e-300,
    )
    return {
        "mass": abs(current.total_mass - initial.total_mass)
        / max(abs(initial.total_mass), 1e-300),
        "momentum": float(
            np.linalg.norm(current.momentum - initial.momentum) / p_scale
        ),
        "energy": abs(current.total_energy - initial.total_energy) / e_scale,
    }
