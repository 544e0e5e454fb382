"""Self-healing step guard: detect → roll back → retry → degrade → die loudly.

The SPH-EXA line names detection of *and recovery from* silent data
corruption as a first-class exascale concern (Table 4 "Error
Detection").  :class:`StepGuard` is the driver's one per-step detector,
and it acts on what it finds: :class:`~repro.resilience.sdc
.RangeDetector` and :func:`~repro.resilience.sdc.scan_phase_output`
*see* a poisoned state, checkpoints *restore* one, and the guard closes
the loop at step granularity:

1. **Micro-snapshot ring.**  After every healthy step the guard captures
   an in-memory :class:`~repro.resilience.checkpoint.Checkpoint` (cheap
   array copies — no disk I/O; the same object the disk path serializes,
   so restore is the battle-tested bit-identical one).  The ring keeps
   :data:`SNAPSHOT_RING` entries: the newest is the rollback target, older
   ones are the deeper fallback when no disk checkpoint exists.

2. **Composite health check** after each step: finiteness and physical
   -range scans (reusing ``RangeDetector`` + ``scan_phase_output``),
   conserved-quantity drift against the per-scenario bounds from the
   scenario registry (times :data:`DRIFT_HEADROOM` — the registry bounds
   are calibrated for short golden runs), a next-dt probe that
   catches both non-finite time steps and dt *collapse* (a corrupted
   sound speed or acceleration shrinking the CFL dt by orders of
   magnitude), and a mean-neighbour-count floor that flags a diverged
   h iteration.  A step that *raises* is treated as maximally unhealthy.

3. **Degradation ladder** on failure: roll back to the last healthy
   snapshot and retry through escalating rungs —

   ========================  ============================================
   rung                      action after rollback
   ========================  ============================================
   ``retry``                 re-run the step as-is (cures transient SDC;
                             bitwise-neutral)
   ``dt-backoff``            shrink the stepper's dt memory by
                             :data:`DT_BACKOFF` (CFL backoff; changes the
                             trajectory, cures marginal-stability blowups)
   ``degrade``               drop to the serial numpy path (no phase
                             threads, no compiled backend; bitwise-neutral;
                             sheds the optimized machinery in case *it*
                             is the corruptor)
   ``checkpoint-restore``    restore the newest valid disk checkpoint
                             (or the oldest ring snapshot when no disk
                             checkpoint exists) and re-advance
   ========================  ============================================

   with :data:`ATTEMPTS_PER_RUNG` tries per rung.  When the ladder is
   exhausted the guard rolls back to the last healthy state, writes a
   last-resort disk checkpoint (when checkpointing is configured) so the
   run is resumable after the cause is fixed, and raises
   :class:`UnrecoverableStepError` carrying a structured
   :class:`PostMortem`.

**Determinism argument.**  Rollback restores bit-identical state (array
copies + stepper memory); it drops the Verlet cache's list, and the next
evaluation rebuilds it bitwise equal from the restored positions
(:meth:`~repro.resilience.checkpoint.Checkpoint.restore_into`).  The
solver is deterministic, so a retry recomputes exactly the step the
fault-free run would have taken; the ``retry`` and ``degrade`` rungs
(and a disk restore) are therefore *bitwise-neutral* — a run healed on
those rungs ends bit-identical to the never-faulted run.  Only
``dt-backoff`` intentionally alters the trajectory (that is its job).
Fire-once injection (:class:`~repro.resilience.chaos.NumericalFault`)
models real transient SDC: the retry is clean by construction.

Guard activity is observable: rollback/retry work runs inside
``State.RECOVERY`` spans, ``Simulation.report()`` carries a
:class:`GuardReport`, and the run ledger files its counters under
``guard.*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.conservation import relative_drift
from ..observability.tracer import State
from ..timestepping.criteria import combined_timestep
from .checkpoint import Checkpoint, CheckpointError, restore_checkpoint
from .sdc import RangeDetector, scan_phase_output

__all__ = [
    "GuardConfig",
    "GuardReport",
    "PostMortem",
    "StepGuard",
    "UnrecoverableStepError",
    "RUNG_RETRY",
    "RUNG_DT_BACKOFF",
    "RUNG_DEGRADE",
    "RUNG_CHECKPOINT",
    "DEFAULT_LADDER",
]

RUNG_RETRY = "retry"
RUNG_DT_BACKOFF = "dt-backoff"
RUNG_DEGRADE = "degrade"
RUNG_CHECKPOINT = "checkpoint-restore"
DEFAULT_LADDER: Tuple[str, ...] = (
    RUNG_RETRY,
    RUNG_DT_BACKOFF,
    RUNG_DEGRADE,
    RUNG_CHECKPOINT,
)

#: Loose fallback drift ceilings used for keys the configured scenario
#: bounds do not cover (mass is an exact invariant; energy drifts for
#: physical reasons, so only order-of-magnitude excursions are faults).
_DEFAULT_DRIFT_TOL = {"mass": 1e-9, "momentum": 1e-4, "energy": 0.5}

#: Exceptions a failing step may raise that the ladder can try to heal.
#: Anything else (KeyboardInterrupt, MemoryError, bugs in the guard
#: itself) propagates untouched.
_STEP_EXCEPTIONS = (
    ArithmeticError,
    RuntimeError,
    ValueError,
)


#: In-memory micro-snapshots kept.  The newest is the rollback target;
#: the oldest doubles as the last-resort restore when no disk checkpoint
#: exists.
SNAPSHOT_RING = 2
#: Retries spent on each rung of :data:`DEFAULT_LADDER` before escalating.
ATTEMPTS_PER_RUNG = 1
#: Factor applied to the stepper's dt memory on the ``dt-backoff`` rung.
DT_BACKOFF = 0.25
#: A next-step dt below this ratio times the current dt is a dt collapse.
DT_COLLAPSE_RATIO = 1e-4
#: Minimum healthy mean neighbour count (a diverged h iteration empties
#: the lists).
NEIGHBOR_FLOOR = 1.0
#: Multiplier on the scenario drift bounds: the registry bounds are
#: calibrated for short golden runs, the guard watches runs of any length.
DRIFT_HEADROOM = 10.0
#: The plausibility scanner of the health check's range pass.
RANGE_DETECTOR = RangeDetector()


@dataclass(frozen=True)
class GuardConfig:
    """The one per-run setting of the self-healing step guard.

    Parameters
    ----------
    drift_tolerances:
        Per-scenario conserved-quantity bounds (the scenario registry's
        ``invariants`` mapping), scaled by :data:`DRIFT_HEADROOM`;
        ``None`` falls back to loose defaults.
    """

    drift_tolerances: Optional[Mapping[str, float]] = None

    def tolerance(self, key: str) -> float:
        """Resolved drift ceiling for one conserved quantity."""
        if self.drift_tolerances is not None and key in self.drift_tolerances:
            return float(self.drift_tolerances[key]) * DRIFT_HEADROOM
        return _DEFAULT_DRIFT_TOL.get(key, np.inf)


@dataclass
class _Snapshot:
    """One ring entry: the checkpoint plus driver state it cannot carry."""

    checkpoint: Checkpoint
    history_len: int
    rates_current: bool


@dataclass(frozen=True)
class PostMortem:
    """Structured account of an unrecoverable step, for humans and JSON."""

    step: int
    time: float
    attempts: int
    rungs_tried: Tuple[str, ...]
    findings: Tuple[str, ...]
    attempt_log: Tuple[Dict[str, object], ...]
    rolled_back_to_step: int
    last_resort_checkpoint: Optional[str] = None
    checkpoint_note: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "time": self.time,
            "attempts": self.attempts,
            "rungs_tried": list(self.rungs_tried),
            "findings": list(self.findings),
            "attempt_log": [dict(a) for a in self.attempt_log],
            "rolled_back_to_step": self.rolled_back_to_step,
            "last_resort_checkpoint": self.last_resort_checkpoint,
            "checkpoint_note": self.checkpoint_note,
        }

    def describe(self) -> str:
        """One-paragraph human post-mortem (the CLI failure message)."""
        rungs = ", ".join(self.rungs_tried) or "none"
        findings = "; ".join(self.findings) or "step raised before any check"
        ckpt = (
            f"a last-resort checkpoint of the healthy state was written to "
            f"{self.last_resort_checkpoint} (resume from it once the "
            f"cause is fixed: re-run with the same checkpoint directory)"
            if self.last_resort_checkpoint
            else (self.checkpoint_note or "no checkpointing was configured, "
                  "so no restart file could be written")
        )
        return (
            f"step {self.step} (t={self.time:.6g}) could not be completed "
            f"after {self.attempts} attempt(s) through the degradation "
            f"ladder (rungs tried: {rungs}). Last health findings: "
            f"{findings}. The run was rolled back to the last healthy "
            f"state at step {self.rolled_back_to_step}, and {ckpt}."
        )


class UnrecoverableStepError(RuntimeError):
    """The degradation ladder is exhausted; carries the post-mortem."""

    def __init__(self, post_mortem: PostMortem):
        self.post_mortem = post_mortem
        super().__init__(post_mortem.describe())


@dataclass(frozen=True)
class GuardReport:
    """Guard activity of one run, embedded in ``Simulation.report()``."""

    checks: int
    healthy_steps: int
    failures: int
    rollbacks: int
    snapshots: int
    checkpoint_restores: int
    degraded: bool
    terminal: bool
    rung_attempts: Dict[str, int]
    rung_heals: Dict[str, int]
    incidents: List[Dict[str, object]]

    def counters(self) -> Dict[str, float]:
        """Flat numeric counters (the ledger's ``guard.*`` recovery keys)."""
        out: Dict[str, float] = {
            "checks": self.checks,
            "healthy_steps": self.healthy_steps,
            "failures": self.failures,
            "rollbacks": self.rollbacks,
            "snapshots": self.snapshots,
            "checkpoint_restores": self.checkpoint_restores,
            "degraded": int(self.degraded),
            "terminal": int(self.terminal),
        }
        for rung, n in self.rung_attempts.items():
            out[f"attempts_{rung}"] = n
        for rung, n in self.rung_heals.items():
            out[f"heals_{rung}"] = n
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "checks": self.checks,
            "healthy_steps": self.healthy_steps,
            "failures": self.failures,
            "rollbacks": self.rollbacks,
            "snapshots": self.snapshots,
            "checkpoint_restores": self.checkpoint_restores,
            "degraded": self.degraded,
            "terminal": self.terminal,
            "rung_attempts": dict(self.rung_attempts),
            "rung_heals": dict(self.rung_heals),
            "incidents": [dict(i) for i in self.incidents],
        }

    def summary(self) -> str:
        heals = ", ".join(f"{r}={n}" for r, n in self.rung_heals.items() if n)
        return (
            f"guard: checks={self.checks} failures={self.failures} "
            f"rollbacks={self.rollbacks} "
            f"ckpt-restores={self.checkpoint_restores} "
            f"healed[{heals or '-'}] degraded={self.degraded} "
            f"terminal={self.terminal}"
        )


class StepGuard:
    """Wraps ``Simulation.step()`` in snapshot / check / recover logic.

    One guard instance belongs to one driver (it is created by
    ``Simulation._apply_run_config`` from ``RunConfig.guard``); the
    driver's ``run()`` loop calls :meth:`guarded_step` instead of
    ``step()``.
    """

    def __init__(self, config: Optional[GuardConfig] = None) -> None:
        self.config = config if config is not None else GuardConfig()
        self._ring: List[_Snapshot] = []
        self.checks = 0
        self.healthy_steps = 0
        self.failures = 0
        self.rollbacks = 0
        self.snapshots = 0
        self.checkpoint_restores = 0
        self.degraded = False
        self.terminal: Optional[PostMortem] = None
        self.rung_attempts: Dict[str, int] = {r: 0 for r in DEFAULT_LADDER}
        self.rung_heals: Dict[str, int] = {r: 0 for r in DEFAULT_LADDER}
        #: Recent incident records (per failed attempt), capped.
        self.incidents: List[Dict[str, object]] = []
        self._max_incidents = 64

    # ------------------------------------------------------------------
    # Health check
    # ------------------------------------------------------------------
    def check_health(self, sim, stats=None) -> List[str]:
        """All findings of the composite post-step health check.

        Empty list = healthy.  ``stats`` is the just-completed step's
        :class:`~repro.core.simulation.StepStats` when available.
        """
        p = sim.particles
        findings = [f"range: {f}" for f in RANGE_DETECTOR.check(p)]
        # The rate/EOS outputs RangeDetector does not cover: a poisoned
        # du only reaches u at the *next* half-kick, so scan it now.
        for name in ("p", "cs", "du"):
            findings += [
                f"range: {f}" for f in scan_phase_output(name, getattr(p, name))
            ]
        # Conserved-quantity ledger vs the scenario's promised bounds.
        if sim.initial_conservation is not None and sim.history:
            drift = relative_drift(
                sim.initial_conservation, sim.history[-1].conservation
            )
            for key, value in drift.items():
                tol = self.config.tolerance(key)
                if not np.isfinite(value):
                    findings.append(f"drift: {key} drift is non-finite")
                elif value > tol:
                    findings.append(
                        f"drift: {key} drift {value:.3e} exceeds bound {tol:.3e}"
                    )
        # Next-dt probe: catches non-finite time steps and dt collapse
        # (corrupted cs / a / h shrink the CFL criterion by orders of
        # magnitude) *before* the next step commits to them.
        params = getattr(sim.stepper, "params", None)
        if params is not None and not findings:
            with np.errstate(all="ignore"):
                dt_next = float(
                    np.min(combined_timestep(p, sim._max_mu, params))
                )
            if not np.isfinite(dt_next) or dt_next <= 0.0:
                findings.append(f"dt: next time step is unusable ({dt_next})")
            elif (
                stats is not None
                and stats.dt > 0.0
                and np.isfinite(stats.dt)
                and dt_next < DT_COLLAPSE_RATIO * stats.dt
            ):
                findings.append(
                    f"dt: collapse — next dt {dt_next:.3e} is below "
                    f"{DT_COLLAPSE_RATIO:g} x current {stats.dt:.3e}"
                )
        # h-iteration divergence empties (or explodes) the neighbour
        # lists; the mean count is already measured per step.
        if (
            stats is not None
            and p.n > 1
            and stats.mean_neighbors < NEIGHBOR_FLOOR
        ):
            findings.append(
                f"neighbors: mean neighbour count "
                f"{stats.mean_neighbors:.2f} below floor "
                f"{NEIGHBOR_FLOOR:g} (h iteration diverged?)"
            )
        return findings

    # ------------------------------------------------------------------
    # Snapshot ring
    # ------------------------------------------------------------------
    def _snapshot(self, sim) -> None:
        self._ring.append(
            _Snapshot(
                checkpoint=Checkpoint.of_simulation(sim),
                history_len=len(sim.history),
                rates_current=sim._rates_current,
            )
        )
        if len(self._ring) > SNAPSHOT_RING:
            del self._ring[0]
        self.snapshots += 1

    def _restore(self, sim, snap: _Snapshot) -> None:
        snap.checkpoint.restore_into(sim)
        sim._rates_current = snap.rates_current
        del sim.history[snap.history_len:]

    def _rollback(self, sim, *, oldest: bool = False) -> int:
        """Restore a ring snapshot; returns the restored step index."""
        snap = self._ring[0] if oldest else self._ring[-1]
        self._restore(sim, snap)
        self.rollbacks += 1
        return sim.step_index

    # ------------------------------------------------------------------
    # Ladder rungs
    # ------------------------------------------------------------------
    def _recover(self, sim, rung: str) -> None:
        """Roll back and apply one rung's degradation, inside a RECOVERY span."""
        with sim.tracer.phase("guard-recovery", State.RECOVERY):
            self.rung_attempts[rung] += 1
            if rung == RUNG_CHECKPOINT:
                if self._restore_from_disk(sim):
                    return
                # No (valid) disk checkpoint: fall back to the deepest
                # in-memory snapshot the ring still holds.
                self._rollback(sim, oldest=True)
                return
            self._rollback(sim)
            if rung == RUNG_DT_BACKOFF:
                dt_prev = getattr(sim.stepper, "_dt_prev", None)
                if dt_prev:
                    sim.stepper._dt_prev = dt_prev * DT_BACKOFF
            elif rung == RUNG_DEGRADE:
                sim.degrade_to_serial()
                self.degraded = True

    def _restore_from_disk(self, sim) -> bool:
        if sim.run_config.resilience is None:
            return False
        try:
            if not restore_checkpoint(sim):
                return False
        except CheckpointError:
            return False
        # Drop history beyond the restored step and rebase the ring on
        # the restored state: everything newer described a rolled-back
        # timeline.
        while sim.history and sim.history[-1].index > sim.step_index:
            sim.history.pop()
        self._ring.clear()
        self._snapshot(sim)
        self.checkpoint_restores += 1
        self.rollbacks += 1
        return True

    # ------------------------------------------------------------------
    # The guarded step
    # ------------------------------------------------------------------
    def guarded_step(self, sim):
        """Advance the driver one *net* step, healing as needed.

        Normally one ``sim.step()``; after a disk restore it transparently
        re-advances the rolled-back steps too.  Returns the
        :class:`~repro.core.simulation.StepStats` of the target step.
        Raises :class:`UnrecoverableStepError` when the ladder fails.
        """
        if not self._ring:
            self._snapshot(sim)  # pre-first-step baseline
        target = sim.step_index + 1
        stats = None
        while sim.step_index < target:
            stats = self._advance_one(sim)
        return stats

    def _advance_one(self, sim):
        plan: List[Optional[str]] = [None]  # first try is not a rung
        for rung in DEFAULT_LADDER:
            plan.extend([rung] * ATTEMPTS_PER_RUNG)
        step = sim.step_index
        records: List[Dict[str, object]] = []
        for attempt, rung in enumerate(plan):
            if rung is not None:
                self._recover(sim, rung)
            try:
                stats = sim.step()
            except _STEP_EXCEPTIONS as exc:
                stats = None
                findings = [f"step raised {type(exc).__name__}: {exc}"]
            else:
                findings = self.check_health(sim, stats)
            self.checks += 1
            if not findings:
                if rung is not None:
                    self.rung_heals[rung] += 1
                self.healthy_steps += 1
                self._snapshot(sim)
                if sim.checkpoint_manager is not None:
                    sim.checkpoint_manager.after_step(sim)
                return stats
            self.failures += 1
            record: Dict[str, object] = {
                "step": step,
                "attempt": attempt,
                "rung": rung or "first-try",
                "findings": list(findings),
            }
            records.append(record)
            self.incidents.append(record)
            del self.incidents[: -self._max_incidents]
        self._terminal(sim, step, records)

    def _terminal(self, sim, step: int, records: List[Dict[str, object]]):
        """Exhausted ladder: restore health, write a restart file, raise."""
        with sim.tracer.phase("guard-terminal", State.RECOVERY):
            self._rollback(sim)
            ckpt_path: Optional[str] = None
            note = ""
            if sim.checkpoint_manager is not None:
                try:
                    ckpt_path = str(sim.checkpoint_manager.checkpoint(sim))
                except CheckpointError as exc:
                    note = f"last-resort checkpoint write failed: {exc}"
            pm = PostMortem(
                step=step,
                time=float(sim.time),
                attempts=len(records),
                rungs_tried=tuple(
                    dict.fromkeys(str(r["rung"]) for r in records)
                ),
                findings=tuple(records[-1]["findings"]) if records else (),
                attempt_log=tuple(records),
                rolled_back_to_step=sim.step_index,
                last_resort_checkpoint=ckpt_path,
                checkpoint_note=note,
            )
        self.terminal = pm
        raise UnrecoverableStepError(pm)

    # ------------------------------------------------------------------
    def report(self) -> GuardReport:
        """Immutable snapshot of the guard's activity counters."""
        return GuardReport(
            checks=self.checks,
            healthy_steps=self.healthy_steps,
            failures=self.failures,
            rollbacks=self.rollbacks,
            snapshots=self.snapshots,
            checkpoint_restores=self.checkpoint_restores,
            degraded=self.degraded,
            terminal=self.terminal is not None,
            rung_attempts=dict(self.rung_attempts),
            rung_heals=dict(self.rung_heals),
            incidents=[dict(i) for i in self.incidents[-16:]],
        )
