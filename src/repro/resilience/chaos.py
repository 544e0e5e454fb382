"""Deterministic, seeded fault injection.

The paper's resilience pillar (Section 4, Tables 3–4) demands that the
mini-app *demonstrate* fault tolerance, not merely implement it.  This
module is the demonstration harness, one policy per fault that can occur:

==========================  =====================  ======================
policy                      models                 handled by
==========================  =====================  ======================
:class:`NumericalChaosPolicy`  poisoned values      step guard ladder
                            (NaN, Inf, bit flips)  (retry → … → degrade)
:class:`CheckpointIOChaos`  failing / torn         ``retry_io``, atomic
                            checkpoint I/O         rename, CRC on read
:class:`ProcessKillFault`   death of the process   service respawn +
                            that runs the job      resume from checkpoint
==========================  =====================  ======================

Every fault fires a bounded number of times, so an injected fault is
recoverable by construction and a test that injects ``k`` faults
observes exactly ``k``.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "NumericalFault",
    "NumericalChaosPolicy",
    "CheckpointIOChaos",
    "ProcessKillFault",
    "parse_numerical_faults",
]


# ======================================================================
# Numerical chaos: poisoned *values* instead of broken *processes*
# ======================================================================
#: Particle fields a numerical fault may target (the full SoA surface).
_NUMERICAL_ARRAYS = ("x", "v", "a", "m", "h", "rho", "u", "p", "cs", "du")
_NUMERICAL_KINDS = ("nan", "inf", "neg", "huge", "bitflip", "set")
_NUMERICAL_SITES = ("rates", "post")


@dataclass(frozen=True)
class NumericalFault:
    """One deterministic value corruption of a named particle array.

    Models the silent-data-corruption taxonomy at *driver* granularity:
    it corrupts the authoritative state the step guard watches.

    ========  =============================================
    kind      writes
    ========  =============================================
    nan       ``NaN`` (exponent-field corruption)
    inf       ``+Inf`` (overflowed accumulate)
    neg       a negative value (sign-bit flip on rho/u/...)
    huge      ``1e12`` (plausibility-ceiling excursion;
              in ``cs`` this collapses the CFL dt)
    bitflip   XOR of bit ``bit`` in the float64 pattern
    set       the literal ``value``
    ========  =============================================

    Parameters
    ----------
    step:
        Driver step index at which to fire — the value of
        ``Simulation.step_index`` *when the step begins* (matched
        exactly).
    array:
        Target :class:`~repro.core.particles.ParticleSystem` field name.
    site:
        ``"rates"`` fires right after the step's main rate evaluation
        (models a corrupted kernel output feeding the closing kick);
        ``"post"`` fires after the step completes (models a bit flip in
        resident state between steps).
    index:
        Flattened element index (wrapped modulo the array size).
    fires:
        Total firing budget: the fault poisons the first ``fires``
        matching injection-site visits, then is spent.  One visit per
        retry means ``fires=k`` fails the first try plus ``k-1`` ladder
        retries — the knob tests use to drive the guard to rung ``k``.
    once:
        Fire-once semantics — a healed retry of the same step is *not*
        re-poisoned (beyond the ``fires`` budget), so rollback-and-retry
        cures the fault by construction.
        ``once=False`` makes the fault persistent (re-fires on *every*
        retry of its step, ignoring ``fires``), which is how tests drive
        the guard to its terminal error.
    """

    step: int
    array: str
    kind: str = "nan"
    site: str = "rates"
    index: int = 0
    bit: int = 62
    value: float = 0.0
    fires: int = 1
    once: bool = True

    def __post_init__(self) -> None:
        if self.array not in _NUMERICAL_ARRAYS:
            raise ValueError(
                f"unknown target array {self.array!r}; "
                f"choose from {_NUMERICAL_ARRAYS}"
            )
        if self.kind not in _NUMERICAL_KINDS:
            raise ValueError(f"unknown numerical fault kind {self.kind!r}")
        if self.site not in _NUMERICAL_SITES:
            raise ValueError(f"unknown injection site {self.site!r}")
        if self.fires < 1:
            raise ValueError("fires must be >= 1")

    def inject(self, particles) -> str:
        """Corrupt the target element in place; returns a description."""
        arr = getattr(particles, self.array)
        flat = np.ravel(arr)  # view: the SoA arrays are C-contiguous
        i = self.index % flat.size
        if self.kind == "nan":
            flat[i] = np.nan
        elif self.kind == "inf":
            flat[i] = np.inf
        elif self.kind == "neg":
            flat[i] = -abs(self.value) if self.value else -1.0
        elif self.kind == "huge":
            flat[i] = self.value if self.value else 1e12
        elif self.kind == "set":
            flat[i] = self.value
        else:  # bitflip
            bits = arr.view(np.int64)
            np.ravel(bits)[i] ^= np.int64(1) << np.int64(self.bit % 64)
        return (
            f"{self.kind} into {self.array}[{i}] at step {self.step} "
            f"({self.site})"
        )


class NumericalChaosPolicy:
    """Fire-once numerical fault list consulted by the driver step.

    The driver calls :meth:`apply` at each injection site; matching
    faults corrupt the particle state in place.  ``once=True`` faults
    are consumed on first fire (so a guard retry recomputes a clean
    step); ``once=False`` faults re-fire on every retry of their step.
    """

    def __init__(self, faults: Sequence[NumericalFault]) -> None:
        self.faults: List[NumericalFault] = list(faults)
        self._count = [0] * len(self.faults)
        self.injections: List[str] = []

    @property
    def fired(self) -> int:
        """Distinct faults that have fired at least once."""
        return sum(1 for c in self._count if c > 0)

    @property
    def exhausted(self) -> bool:
        return all(c > 0 for c in self._count)

    def reset(self) -> None:
        """Re-arm every fault (fresh run with the same script)."""
        self._count = [0] * len(self.faults)
        self.injections = []

    def apply(self, step: int, site: str, particles) -> List[str]:
        """Inject every matching in-budget fault; returns descriptions."""
        applied: List[str] = []
        for i, fault in enumerate(self.faults):
            if fault.step != step or fault.site != site:
                continue
            if fault.once and self._count[i] >= fault.fires:
                continue
            self._count[i] += 1
            applied.append(fault.inject(particles))
        self.injections.extend(applied)
        return applied


def parse_numerical_faults(text: str) -> NumericalChaosPolicy:
    """Parse the CLI spelling ``kind:array@step[:site][*fires][!][,...]``.

    Examples: ``nan:rho@3`` (NaN into the density array after step 3's
    rate evaluation), ``bitflip:a@5:rates``, ``inf:u@2:post``,
    ``huge:cs@4`` (CFL/dt collapse), ``nan:rho@3*3`` (poisons the first
    try and two retries — exercises ladder rung 3), ``nan:rho@1!``
    (persistent — re-fires on every retry, driving the guard to its
    terminal error).
    """
    faults: List[NumericalFault] = []
    for raw in text.split(","):
        spec = raw.strip()
        if not spec:
            continue
        once = not spec.endswith("!")
        spec = spec.rstrip("!")
        spec, star, fires_text = spec.partition("*")
        head, sep, tail = spec.partition("@")
        if not sep:
            raise ValueError(
                f"bad numerical fault spec {raw!r}: expected kind:array@step"
            )
        try:
            kind, array = head.split(":")
        except ValueError:
            raise ValueError(
                f"bad numerical fault spec {raw!r}: expected kind:array@step"
            ) from None
        step_text, _, site = tail.partition(":")
        faults.append(
            NumericalFault(
                step=int(step_text),
                array=array,
                kind=kind,
                site=site or "rates",
                fires=int(fires_text) if star else 1,
                once=once,
            )
        )
    if not faults:
        raise ValueError("empty numerical fault spec")
    return NumericalChaosPolicy(faults)


# ======================================================================
# Process chaos: fail-stop the *hosting* process (service worker slots)
# ======================================================================
@dataclass
class ProcessKillFault:
    """Deterministic fail-stop of the process running a simulation.

    Fail-stops the whole driver process — the fault model of the
    service's job slots, where one OS process owns one run and the job
    manager must absorb its death by resuming from the job's checkpoint.

    Fire-once must survive the respawn (a recovered job re-reaches the
    trigger step), so the fired bit is a ``marker`` file next to the
    job's checkpoints rather than in-process state: the first process to
    reach ``step`` creates the marker and SIGKILLs itself mid-flight;
    the respawned process sees the marker and runs the step unharmed.
    """

    step: int
    marker: Optional[str] = None
    sig: int = 9  # SIGKILL: no atexit, no cleanup — a true fail-stop

    def maybe_fire(self, step_index: int) -> None:
        """Kill the current process if this is the trigger step and the
        fault has not fired before (marker-file check-and-set)."""
        if step_index != self.step:
            return
        import os

        if self.marker is not None:
            try:
                # O_EXCL create = atomic check-and-set across respawns
                # (and across racing processes sharing one job dir).
                fd = os.open(
                    self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.close(fd)
            except FileExistsError:
                return
        os.kill(os.getpid(), self.sig)


# ======================================================================
# Checkpoint-I/O chaos: transient OSError at the write/read boundary
# ======================================================================
@dataclass
class CheckpointIOChaos:
    """Deterministic transient ``OSError`` injection for checkpoint I/O.

    The first ``fail_writes`` write attempts (and ``fail_reads`` read
    attempts) raise ``OSError(error, ...)`` — disk-full by default —
    then the budget is spent and I/O succeeds.  Large budgets model a
    persistently broken filesystem (retry exhaustion paths).
    """

    fail_writes: int = 0
    fail_reads: int = 0
    error: int = errno.ENOSPC
    writes_failed: int = 0
    reads_failed: int = 0

    def check(self, op: str) -> None:
        """Raise the injected error while the ``op`` budget lasts."""
        if op == "write" and self.writes_failed < self.fail_writes:
            self.writes_failed += 1
            raise OSError(self.error, "injected transient checkpoint write failure")
        if op == "read" and self.reads_failed < self.fail_reads:
            self.reads_failed += 1
            raise OSError(self.error, "injected transient checkpoint read failure")
