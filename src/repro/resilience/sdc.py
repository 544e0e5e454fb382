"""Silent-data-corruption detectors (Table 4 "Error Detection").

Detection is the step guard's per-step health check
(:meth:`repro.resilience.guard.StepGuard.check_health`): its range pass
is the two scans below, to which it adds the conservation ledger against
the scenario's bounds, a dt probe and a neighbour floor, and it acts on
what it finds.  The detectors:

* :class:`ChecksumDetector` — bitwise CRC over arrays that must not
  change between two points of the step (e.g. masses, or positions
  between the force evaluation and the output); catches any flip in its
  window, at zero false positives.
* :class:`RangeDetector` — physical-plausibility bounds (finite values,
  positive density/mass/h, velocities under a configurable ceiling);
  catches the large excursions exponent-bit flips produce.
* :func:`scan_phase_output` — the same plausibility scan for one raw
  phase-output array.

Each returns a list of human-readable findings (empty = clean).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = [
    "ChecksumDetector",
    "RangeDetector",
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
