"""Silent-data-corruption detectors (Table 4 "Error Detection").

Three complementary detectors, cheap enough to run every step:

* :class:`ChecksumDetector` — bitwise CRC over arrays that must not
  change between two points of the step (e.g. masses, or positions
  between the force evaluation and the output); catches any flip in its
  window, at zero false positives.
* :class:`RangeDetector` — physical-plausibility bounds (finite values,
  positive density/mass/h, velocities under a configurable ceiling);
  catches the large excursions exponent-bit flips produce.
* :class:`ConservationDetector` — ABFT-style check on the global
  mass/momentum/energy ledger against step-over-step drift tolerances;
  catches corruptions that bend the physics without leaving the
  plausible range.

Each returns a list of human-readable findings (empty = clean), and the
composite :class:`SdcMonitor` aggregates them with detection counters so
recall/precision can be measured against the injector.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..core.conservation import ConservationState, measure_conservation

__all__ = [
    "ChecksumDetector",
    "RangeDetector",
    "ConservationDetector",
    "SdcMonitor",
    "scan_phase_output",
]


def scan_phase_output(
    name: str,
    array: np.ndarray,
    *,
    positive: bool = False,
    ceiling: float = 1e30,
) -> List[str]:
    """Plausibility scan of one phase-output array (step-guard range pass).

    The per-particle analogue of :class:`RangeDetector`, applied to raw
    kernel outputs (density, IAD matrices, accelerations, energy rates)
    right after the phase that wrote them: values must be finite, below an absolute
    ceiling no healthy SPH quantity approaches, and — for densities and
    grad-h factors — strictly positive.  Returns findings (empty = clean).
    """
    findings: List[str] = []
    if not np.all(np.isfinite(array)):
        findings.append(f"non-finite values in phase output {name!r}")
    elif np.any(np.abs(array) > ceiling):
        findings.append(f"phase output {name!r} exceeds plausibility ceiling")
    elif positive and np.any(array <= 0.0):
        findings.append(f"non-positive values in phase output {name!r}")
    return findings


class ChecksumDetector:
    """CRC32 snapshots of arrays expected to be invariant over a window."""

    def __init__(self) -> None:
        self._sums: Dict[str, int] = {}

    def snapshot(self, name: str, array: np.ndarray) -> None:
        self._sums[name] = zlib.crc32(np.ascontiguousarray(array).tobytes())

    def verify(self, name: str, array: np.ndarray) -> List[str]:
        if name not in self._sums:
            raise KeyError(f"no snapshot named {name!r}")
        now = zlib.crc32(np.ascontiguousarray(array).tobytes())
        if now != self._sums[name]:
            return [f"checksum mismatch on {name!r}"]
        return []


@dataclass(frozen=True)
class RangeDetector:
    """Physical plausibility bounds on the particle state."""

    v_max: float = 1e6
    h_max: float = 1e6
    u_max: float = 1e12

    def check(self, particles) -> List[str]:
        findings: List[str] = []
        for name in ("x", "v", "a"):
            arr = getattr(particles, name)
            if not np.all(np.isfinite(arr)):
                findings.append(f"non-finite values in {name}")
        for name, lo_ok in (("m", False), ("h", False), ("rho", True), ("u", True)):
            arr = getattr(particles, name)
            if not np.all(np.isfinite(arr)):
                findings.append(f"non-finite values in {name}")
            elif lo_ok:
                if np.any(arr < 0.0):
                    findings.append(f"negative values in {name}")
            elif np.any(arr <= 0.0):
                findings.append(f"non-positive values in {name}")
        if np.any(np.abs(particles.v) > self.v_max):
            findings.append("velocity exceeds plausibility ceiling")
        if np.any(particles.h > self.h_max):
            findings.append("smoothing length exceeds plausibility ceiling")
        if np.any(np.abs(particles.u) > self.u_max):
            findings.append("internal energy exceeds plausibility ceiling")
        return findings


@dataclass
class ConservationDetector:
    """ABFT ledger check: conserved quantities must drift smoothly.

    A per-step relative jump beyond tolerance in mass (exact invariant),
    momentum (machine-precision invariant for symmetric force loops) or
    total energy flags corruption.
    """

    mass_tol: float = 1e-12
    momentum_tol: float = 1e-8
    # Per-step energy jumps: physics drifts too (unstabilized WCSPH free
    # surfaces move several percent of E per step), so the ledger only
    # flags the order-of-magnitude excursions corruption produces.
    energy_tol: float = 0.25
    _last: ConservationState | None = field(default=None, repr=False)

    def observe(
        self, particles, time: float, potential_energy: float = 0.0, *,
        state: ConservationState | None = None,
    ) -> List[str]:
        """Findings of this step against the last; ``state`` is the step's
        :func:`measure_conservation` when the caller took it already."""
        if state is None:
            state = measure_conservation(particles, time, potential_energy)
        findings: List[str] = []
        last = self._last
        if last is not None:
            m_scale = max(abs(last.total_mass), 1e-300)
            if abs(state.total_mass - last.total_mass) / m_scale > self.mass_tol:
                findings.append("total mass changed between steps")
            p_scale = max(
                np.sqrt(2.0 * last.total_mass * max(last.kinetic_energy, 1e-300)),
                1e-300,
            )
            dp = float(np.linalg.norm(state.momentum - last.momentum))
            if dp / p_scale > self.momentum_tol:
                findings.append("momentum jumped beyond symmetric-loop tolerance")
            e_scale = max(
                abs(last.kinetic_energy)
                + abs(last.internal_energy)
                + abs(last.potential_energy),
                1e-300,
            )
            de = abs(state.total_energy - last.total_energy)
            if de / e_scale > self.energy_tol:
                findings.append("total energy jumped beyond physical drift")
        self._last = state
        return findings

    def reset(self) -> None:
        self._last = None


@dataclass
class SdcMonitor:
    """Composite detector with detection accounting."""

    range_detector: RangeDetector = field(default_factory=RangeDetector)
    conservation: ConservationDetector = field(default_factory=ConservationDetector)
    checks_run: int = 0
    detections: int = 0

    def check_step(
        self, particles, time: float, potential_energy: float = 0.0, *,
        state: ConservationState | None = None,
    ) -> List[str]:
        """Run all per-step detectors; returns combined findings.

        ``state`` hands in the step's conservation snapshot, so the step
        measures it once (:meth:`ConservationDetector.observe`)."""
        findings = self.range_detector.check(particles)
        findings += self.conservation.observe(
            particles, time, potential_energy, state=state
        )
        self.checks_run += 1
        if findings:
            self.detections += 1
        return findings
