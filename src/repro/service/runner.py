"""The one spec → simulation → outcome execution path.

Everything that runs a :class:`~repro.service.spec.JobSpec` funnels
through :func:`execute_spec`: the service's worker slots (inline and
process isolation), the synchronous :func:`repro.api.run` wrapper and
the ``repro run`` CLI all build the simulation with
:func:`build_simulation`, step it with :func:`resume_and_run` and roll
the finished driver up with :func:`outcome_from_simulation` — which is
what makes "``repro.api.submit`` and ``Simulation.run`` produce
identical reports for the same spec" a structural property rather than
a test-enforced one.

The outcome carries sha256 digests of every final particle field plus a
deterministic ``result_digest`` over (steps, simulated time, digests) —
the bit-identity token the dedup cache and the kill-recovery acceptance
gate compare.  Wall-clock-dependent report sections (POP metrics, span
counts, checkpoint write seconds) are *not* digested: two bitwise-equal
runs never time identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

__all__ = [
    "DIGEST_FIELDS",
    "field_digests",
    "result_digest",
    "JobOutcome",
    "build_simulation",
    "resume_and_run",
    "outcome_from_simulation",
    "execute_spec",
]

#: Particle arrays covered by the final-state digest — the full
#: dynamically-evolved SoA surface (positions, velocities, smoothing
#: lengths, thermodynamics and rates).
DIGEST_FIELDS = ("x", "v", "h", "m", "rho", "u", "p", "cs", "du", "a")


def field_digests(particles) -> Dict[str, str]:
    """sha256 of each final particle array's exact bytes."""
    out: Dict[str, str] = {}
    for name in DIGEST_FIELDS:
        arr = getattr(particles, name, None)
        if arr is None:
            continue
        out[name] = hashlib.sha256(arr.tobytes()).hexdigest()
    return out


def result_digest(steps: int, time: float, digests: Dict[str, str]) -> str:
    """Deterministic digest of a run's bit-level result.

    ``time`` enters via ``float.hex()`` so roundoff-identical clocks
    digest identically and any ULP of drift does not.
    """
    blob = json.dumps(
        {
            "steps": int(steps),
            "time": float(time).hex(),
            "fields": {k: digests[k] for k in sorted(digests)},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class JobOutcome:
    """One finished job: identity, deterministic result, full report."""

    run_id: str
    spec_hash: str
    scenario: str
    code_version: str
    steps: int
    time: float
    n_particles: int
    drift: Dict[str, float]
    digests: Dict[str, str]
    result_digest: str
    report: Dict[str, Any]
    recoveries: int = 0
    cached: bool = False
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spec_hash": self.spec_hash,
            "scenario": self.scenario,
            "code_version": self.code_version,
            "steps": self.steps,
            "time": self.time,
            "n_particles": self.n_particles,
            "drift": dict(self.drift),
            "digests": dict(self.digests),
            "result_digest": self.result_digest,
            "report": self.report,
            "recoveries": self.recoveries,
            "cached": self.cached,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobOutcome":
        return cls(**data)


def build_simulation(
    spec,
    *,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    ledger_path: Optional[str] = None,
    run_id: Optional[str] = None,
):
    """Resolve a spec into a ready-to-run driver.

    Returns ``(sim, scenario)``.  Raises
    :class:`~repro.service.spec.SpecError` for malformed specs — before
    any particle is allocated.
    """
    scenario = spec.resolve()
    sim = scenario.make_simulation(
        test=spec.test,
        run_config=spec.run_config(
            scenario,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            ledger_path=ledger_path,
        ),
        sim_config=spec.sim_config(scenario),
        **dict(spec.overrides),
    )
    if run_id is not None:
        sim.run_id = run_id
    return sim, scenario


def resume_and_run(sim, n_steps: int) -> None:
    """Run ``sim`` to step ``n_steps``, first resuming from its checkpoint
    directory when it has one.

    The one restart path of a spec: a re-run with the same checkpoint
    directory continues from the newest valid checkpoint and stops at
    the spec's step count, whatever step it resumed at — so it ends on
    the uninterrupted run's step, clock and bits.
    """
    if sim.run_config.resilience is not None:
        sim.resume()
    if n_steps > sim.step_index:
        sim.run(n_steps=n_steps - sim.step_index)


def outcome_from_simulation(
    sim, spec, scenario, *, spec_hash: Optional[str] = None,
    recoveries: int = 0,
) -> JobOutcome:
    """Roll a finished driver up into the service's result record."""
    from ..observability import ledger as _ledger

    digests = field_digests(sim.particles)
    return JobOutcome(
        run_id=sim.run_id,
        spec_hash=spec_hash or spec.content_hash(),
        scenario=scenario.name,
        code_version=_ledger.code_version(),
        steps=int(sim.step_index),
        time=float(sim.time),
        n_particles=int(sim.particles.n),
        drift=sim.conservation_drift(),
        digests=digests,
        result_digest=result_digest(sim.step_index, sim.time, digests),
        report=sim.report().as_dict(),
        recoveries=recoveries,
    )


def execute_spec(
    spec,
    *,
    job_dir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    ledger_path: Optional[str] = None,
    run_id: Optional[str] = None,
    spec_hash: Optional[str] = None,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    cancel_check: Optional[Callable[[], bool]] = None,
    recoveries: int = 0,
) -> JobOutcome:
    """Run one spec to completion and return its outcome.

    With ``job_dir`` set, rolling checkpoints land there and a restarted
    call with the same ``job_dir`` *resumes* (:func:`resume_and_run`)
    instead of restarting — the worker-death absorption path.
    ``progress`` is called once per completed step with a plain-dict
    step summary; ``cancel_check`` is polled between steps and aborts the
    run via the driver's cooperative cancellation point when it returns
    ``True``.
    """
    from ..core.simulation import RunCancelled  # noqa: F401 (re-export site)

    sim, scenario = build_simulation(
        spec,
        checkpoint_dir=job_dir,
        checkpoint_every=checkpoint_every,
        ledger_path=ledger_path,
        run_id=run_id,
    )
    kill_switch = None
    if spec.kill_at_step is not None and job_dir is not None:
        from ..resilience.chaos import ProcessKillFault

        kill_switch = ProcessKillFault(
            step=int(spec.kill_at_step),
            marker=str(job_dir) + "/kill.fired",
        )

    def on_step(stats) -> None:
        if progress is not None:
            progress(
                {
                    "step": stats.index,
                    "time": stats.time,
                    "dt": stats.dt,
                    "n_particles": stats.n_particles,
                }
            )
        if kill_switch is not None:
            kill_switch.maybe_fire(stats.index)
        if cancel_check is not None and cancel_check():
            sim.request_cancel()

    sim.on_step(on_step)
    try:
        resume_and_run(sim, spec.resolved_steps(scenario))
        return outcome_from_simulation(
            sim, spec, scenario, spec_hash=spec_hash, recoveries=recoveries
        )
    finally:
        sim.close()
