"""Online autotuner: predict → execute → feedback inside ``Simulation.run``.

The tuner owns a bounded, deterministic exploration window at the start
of a run.  It measures the baseline configuration, then climbs a
one-knob-at-a-time ladder over the execution knobs (backend, Verlet
cache, workers, ...): each rung applies one candidate via
:meth:`Simulation._wire_exec`, measures ``steps_per_candidate`` whole
steps, keeps the candidate iff it beat the best time so far, and feeds
every measurement into the :class:`~repro.tuning.model.CostModel`.  When
the ladder (or the step budget) is exhausted, the best configuration is
applied and the rest of the run executes untouched.

Warm start: with a ledger configured, historical rows for the same
(scenario, host) seed the cost model, pick the ladder's starting
configuration, and let the tuner *prune* rungs whose predicted time —
with signature-level evidence — cannot plausibly beat the incumbent.
Every decision (measure / adopt / reject / prune / converge) lands in
the decision trail (``RunReport.tuning``) and as ``tuning`` spans on the
driver row, so a tuned run explains itself the same way everything else
in this codebase does.

Determinism: the rung order is a seeded shuffle (``TuningConfig.seed``),
so two tuners over the same knob space explore in the same order — the
property the reproducibility tests pin.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..observability.ledger import RunLedger, fingerprint_id
from ..profiling.trace import State
from .model import CostModel

__all__ = ["TuningConfig", "Autotuner", "SUPPORTED_KNOBS"]

#: Execution knobs the ladder knows how to vary, with their option
#: generators.  ``workers`` options depend on the host; ``backend`` on
#: the installed toolchains; the rest are fixed small sets.
SUPPORTED_KNOBS = (
    "backend",
    "neighbor_cache",
    "workers",
    "chunks_per_worker",
    "cache_skin",
)


def _finite_or_none(value: float) -> Optional[float]:
    """Strict-JSON guard: infinite prediction bounds become ``None``."""
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class TuningConfig:
    """Autotuning policy for one run (``RunConfig.tuning``).

    Parameters
    ----------
    enabled:
        Master switch; ``False`` keeps the config inert (identical step
        loop to ``tuning=None``).
    seed:
        Seeds the deterministic exploration order.
    steps_per_candidate:
        Steps measured per ladder rung; the rung's score is the best of
        them (the min absorbs one-off warmup costs such as JIT
        compilation or thread start after a backend/worker switch).
    max_exploration_steps:
        Hard bound on steps spent exploring (baseline included).  When
        the budget runs out mid-ladder the incumbent wins immediately.
    knobs:
        Which knobs the ladder climbs, in nominal order (the seeded
        shuffle permutes it).  Must be drawn from
        :data:`SUPPORTED_KNOBS`.
    workers_options / backend_options:
        Override the host-derived option lists (tests pin these).
    ledger_path:
        Warm-start source.  ``None`` falls back to the run's
        ``observability.ledger_path``; exploring cold is fine.
    scenario:
        Ledger key for warm-start lookups (defaults to the simulation's
        scenario label).
    prune_margin:
        A rung is skipped without execution when the model predicts —
        from at-least-two same-signature observations — that even its
        optimistic bound is ``prune_margin`` times worse than the
        incumbent.
    """

    enabled: bool = True
    seed: int = 0
    steps_per_candidate: int = 2
    max_exploration_steps: int = 24
    knobs: Tuple[str, ...] = ("backend", "neighbor_cache", "workers")
    workers_options: Optional[Tuple[int, ...]] = None
    backend_options: Optional[Tuple[str, ...]] = None
    ledger_path: Optional[str] = None
    scenario: Optional[str] = None
    prune_margin: float = 1.25

    def __post_init__(self) -> None:
        if self.steps_per_candidate < 1:
            raise ValueError(
                f"steps_per_candidate must be >= 1, got {self.steps_per_candidate}"
            )
        if self.max_exploration_steps < self.steps_per_candidate:
            raise ValueError(
                "max_exploration_steps must cover at least one candidate "
                f"({self.max_exploration_steps} < {self.steps_per_candidate})"
            )
        unknown = [k for k in self.knobs if k not in SUPPORTED_KNOBS]
        if unknown:
            raise ValueError(
                f"unknown tuning knobs {unknown}; supported: "
                f"{', '.join(SUPPORTED_KNOBS)}"
            )
        if self.prune_margin < 1.0:
            raise ValueError(f"prune_margin must be >= 1, got {self.prune_margin}")

    def with_(self, **kwargs) -> "TuningConfig":
        """Functional update (frozen dataclass convenience)."""
        return dataclasses.replace(self, **kwargs)


def knobs_of(exec_cfg) -> Dict[str, object]:
    """The ledger/model knob mapping of one ``ExecConfig``."""
    return {
        "workers": int(exec_cfg.workers),
        "chunks_per_worker": int(exec_cfg.chunks_per_worker),
        "neighbor_cache": bool(exec_cfg.neighbor_cache),
        "cache_skin": float(exec_cfg.cache_skin),
        "backend": str(exec_cfg.backend),
    }


class Autotuner:
    """One run's tuning session; driven by ``Simulation.run``'s step loop.

    Protocol: ``before_step()`` immediately before each step while
    ``not done``; ``after_step(wall_seconds)`` immediately after.  The
    tuner rewires the simulation's execution config between steps, never
    during one.
    """

    def __init__(self, sim, config: TuningConfig):
        self.sim = sim
        self.config = config
        self.done = False
        self.converged_step: Optional[int] = None
        self.trail: List[Dict[str, object]] = []
        self.explored_steps = 0
        base = sim.run_config.exec
        self._options = self._knob_options(base)
        self.model = CostModel(n0=int(sim.particles.n))
        self._warm = self._warm_start()
        if self._warm.get("baseline_knobs"):
            base = self._apply_knobs(base, self._warm["baseline_knobs"])
        self.baseline_exec = base
        self.best_exec = base
        self.best_score: Optional[float] = None
        self._plan = self._build_plan()
        self._trial: Optional[Tuple[str, object]] = None
        self._walls: List[float] = []
        self._step_indices: List[int] = []
        self._pending_exec = base  # applied at the next before_step
        self._measuring_baseline = True

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _runnable_backends(self) -> List[str]:
        """Backends a candidate may name: the pinned option list, else
        what this host can construct."""
        if self.config.backend_options is not None:
            return list(self.config.backend_options)
        from ..backend import available_backends

        return [n for n, ok in available_backends().items() if ok]

    def _knob_options(self, base) -> Dict[str, List[object]]:
        cfg = self.config
        options: Dict[str, List[object]] = {}
        if "backend" in cfg.knobs:
            options["backend"] = self._runnable_backends()
        if "neighbor_cache" in cfg.knobs:
            options["neighbor_cache"] = [True, False]
        if "workers" in cfg.knobs:
            if cfg.workers_options is not None:
                options["workers"] = list(cfg.workers_options)
            else:
                cpu = os.cpu_count() or 1
                options["workers"] = (
                    [0] + sorted({2, cpu}) if cpu >= 2 else [0]
                )
        if "chunks_per_worker" in cfg.knobs:
            options["chunks_per_worker"] = [1, 2, 4]
        if "cache_skin" in cfg.knobs:
            options["cache_skin"] = [0.1, 0.3, 0.5]
        return options

    def _build_plan(self) -> List[Tuple[str, object]]:
        """The rung list: one (knob, value) trial per non-incumbent
        option, in seeded-shuffle order."""
        import random

        rng = random.Random(self.config.seed)
        knob_order = [k for k in self.config.knobs if k in self._options]
        rng.shuffle(knob_order)
        plan: List[Tuple[str, object]] = []
        base_knobs = knobs_of(self.baseline_exec)
        for knob in knob_order:
            values = list(self._options[knob])
            rng.shuffle(values)
            for value in values:
                if value != base_knobs.get(knob):
                    plan.append((knob, value))
        return plan

    @staticmethod
    def _apply_knobs(exec_cfg, knobs: Dict[str, object]):
        # Ledger rows outlive the knob set: a knob a row carries that is
        # no longer an ``ExecConfig`` field is dropped here.
        fields = {f.name for f in dataclasses.fields(exec_cfg)}
        usable = {k: v for k, v in knobs.items() if k in fields}
        return dataclasses.replace(exec_cfg, **usable)

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def _warm_start(self) -> Dict[str, object]:
        """Seed the model and the starting config from the ledger."""
        path = self.config.ledger_path
        if path is None:
            obs = self.sim.run_config.observability
            path = getattr(obs, "ledger_path", None)
        out: Dict[str, object] = {"source": path, "rows": 0}
        if not path or not os.path.exists(path):
            return out
        scenario = (
            self.config.scenario
            or self.sim.scenario
            or self.sim.config.label
        )
        n = int(self.sim.particles.n)
        try:
            with RunLedger(path) as ledger:
                rows = ledger.runs(
                    scenario=scenario, host_id=fingerprint_id(), limit=64
                )
        except Exception:  # a broken ledger never blocks a run
            return out
        usable = [
            r
            for r in rows
            if r.step_p50() is not None
            and r.n_particles > 0
            and 0.5 <= r.n_particles / n <= 2.0
        ]
        if not usable:
            return out
        out["rows"] = self.model.absorb_ledger_rows(usable)
        best = min(usable, key=lambda r: r.step_p50() / r.n_particles)
        knobs = dict(best.knobs)
        knobs.pop("checkpoint_every", None)
        # Never warm-start onto a backend this host can't run (a cffi
        # row read on a compiler-free host, or an old row naming the
        # removed numba backend) — whether or not the ladder tunes it.
        if knobs.get("backend") not in self._runnable_backends():
            knobs.pop("backend", None)
        out["baseline_knobs"] = knobs
        out["baseline_run_id"] = best.run_id
        return out

    # ------------------------------------------------------------------
    # The step-loop protocol
    # ------------------------------------------------------------------
    def before_step(self) -> None:
        """Apply the pending candidate (if any) before the next step."""
        if self.done:
            return
        if self.explored_steps >= self.config.max_exploration_steps:
            self._finish(budget_exhausted=True)
            return
        if self._pending_exec is not None:
            self._switch_to(self._pending_exec)
            self._pending_exec = None
            self._walls = []
            self._step_indices = []

    def after_step(self, wall_seconds: float) -> None:
        """Feed one measured step back; advance the ladder when the
        current candidate has its quota."""
        if self.done:
            return
        self.explored_steps += 1
        self._walls.append(float(wall_seconds))
        self._step_indices.append(self.sim.step_index - 1)
        if len(self._walls) < self.config.steps_per_candidate:
            return
        score = min(self._walls)
        knobs = knobs_of(self._current_exec())
        self.model.observe_step(int(self.sim.particles.n), knobs, score)
        self._observe_phases(knobs)
        if self._measuring_baseline:
            self._measuring_baseline = False
            self.best_score = score
            self.trail.append(
                {
                    "step": self._step_indices[0],
                    "event": "baseline",
                    "knobs": knobs,
                    "t_step_s": score,
                }
            )
        else:
            knob, value = self._trial
            entry = {
                "step": self._step_indices[0],
                "event": "reject",
                "knob": knob,
                "value": value,
                "t_step_s": score,
                "incumbent_s": self.best_score,
            }
            if score < self.best_score:
                entry["event"] = "adopt"
                self.best_score = score
                self.best_exec = self._current_exec()
            self.trail.append(entry)
        self._advance()

    def _advance(self) -> None:
        """Queue the next unpruned rung, or converge."""
        while self._plan:
            knob, value = self._plan.pop(0)
            candidate = dataclasses.replace(self.best_exec, **{knob: value})
            pred = self.model.predict(
                knobs_of(candidate), int(self.sim.particles.n)
            )
            if (
                self.best_score is not None
                and pred.source == "signature"
                and pred.n_observations >= 2
                and pred.lo_seconds > self.best_score * self.config.prune_margin
            ):
                self.trail.append(
                    {
                        "step": self.sim.step_index,
                        "event": "prune",
                        "knob": knob,
                        "value": value,
                        "predicted_s": pred.t_seconds,
                        "predicted_lo_s": _finite_or_none(pred.lo_seconds),
                        "incumbent_s": self.best_score,
                    }
                )
                continue
            self._trial = (knob, value)
            self._pending_exec = candidate
            if pred.n_observations:
                self.trail.append(
                    {
                        "step": self.sim.step_index,
                        "event": "predict",
                        "knob": knob,
                        "value": value,
                        "predicted_s": pred.t_seconds,
                        "predicted_lo_s": _finite_or_none(pred.lo_seconds),
                        "predicted_hi_s": _finite_or_none(pred.hi_seconds),
                        "source": pred.source,
                    }
                )
            return
        self._finish(budget_exhausted=False)

    def _finish(self, *, budget_exhausted: bool) -> None:
        """Apply the winner and close the session."""
        if self._current_exec() is not self.best_exec:
            self._switch_to(self.best_exec)
        self.model.fit()
        self.done = True
        self.converged_step = self.sim.step_index
        self.trail.append(
            {
                "step": self.sim.step_index,
                "event": "converged",
                "budget_exhausted": budget_exhausted,
                "knobs": knobs_of(self.best_exec),
                "t_step_s": self.best_score,
                "explored_steps": self.explored_steps,
            }
        )

    # ------------------------------------------------------------------
    # Simulation plumbing
    # ------------------------------------------------------------------
    def _current_exec(self):
        return self.sim.run_config.exec

    def _switch_to(self, exec_cfg) -> None:
        with self.sim.tracer.phase("tuning", State.SYNC, self.sim.rank):
            self.sim._wire_exec(exec_cfg)

    def _observe_phases(self, knobs: Dict[str, object]) -> None:
        """Per-phase feedback: USEFUL driver spans of this candidate's steps."""
        tracer = self.sim.tracer
        if not getattr(tracer, "enabled", False):
            return
        steps = set(self._step_indices)
        totals: Dict[str, float] = {}
        for e in tracer.events:
            if e.step in steps and e.state is State.USEFUL and e.thread == 0:
                totals[e.phase] = totals.get(e.phase, 0.0) + e.duration
        if totals:
            n_steps = max(1, len(steps))
            self.model.observe_phases(
                int(self.sim.particles.n),
                knobs,
                {k: v / n_steps for k, v in totals.items()},
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def recommended_exec(self):
        return self.best_exec

    def report_dict(self) -> Dict[str, object]:
        """The ``RunReport.tuning`` section: decision trail + model fit."""
        return {
            "enabled": True,
            "done": self.done,
            "seed": self.config.seed,
            "explored_steps": self.explored_steps,
            "converged_step": self.converged_step,
            "baseline": knobs_of(self.baseline_exec),
            "recommendation": knobs_of(self.best_exec),
            "best_step_s": self.best_score,
            "warm_start": {
                "source": self._warm.get("source"),
                "rows": self._warm.get("rows", 0),
                "baseline_run_id": self._warm.get("baseline_run_id"),
            },
            "trail": list(self.trail),
            "model": self.model.as_dict(),
        }
