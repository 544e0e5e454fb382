"""The simulation driver — Algorithm 1 of the paper.

    while target simulated time is not reached do
        1. Build tree                       (phase A)
        2. Find neighbors and h             (phases B, C, D)
        3. Execute SPH kernels              (phases E, F, G, H)
        4. (Optional) compute self-gravity  (phase I)
        5. Compute new time-step            (phase J)
        6. Update velocity and position     (phase J)

Integration is kick-drift-kick leapfrog, so one :meth:`Simulation.step`
performs: half-kick with the current rates, drift, a full rate evaluation
(phases A-I), the closing half-kick, and the next-dt selection.  Each
step of the algorithm is one method of :class:`Simulation`, and
:meth:`Simulation.compute_rates` is their ordered call list.  Every
phase is timed into an Extrae-like :class:`~repro.observability.tracer.Tracer`,
which is what the Figure-4 reproduction and the POP metrics read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from ..backend import select_backend
from ..backend.base import backend_ops
from ..kernels.registry import make_kernel
from ..observability.config import new_run_id
from ..observability.tracer import make_tracer
from ..sph.eos import EquationOfState
from ..sph.smoothing import (
    SmoothingConfig,
    adapt_from_cached_list,
    adapt_smoothing_lengths,
)
from ..timestepping.integrator import apply_energy_floor, drift, kick
from ..timestepping.steppers import STEPPERS
from ..tree.box import Box
from ..tree.neighborlist import NeighborList, VerletNeighborCache
from ..tree.octree import Octree
from ..tree.pairs import Pairs, support_cut
from .config import RunConfig, SimulationConfig
from .conservation import ConservationState, measure_conservation, relative_drift
from .particles import ParticleSystem
from .phase_executor import PhaseExecutor
from .phases import Phase

if TYPE_CHECKING:  # avoid the core <-> resilience import cycle at runtime
    from ..observability.report import RunReport

__all__ = ["StepStats", "Simulation", "RunCancelled"]


class RunCancelled(RuntimeError):
    """Raised by :meth:`Simulation.run` at the cooperative cancellation
    point after :meth:`Simulation.request_cancel` was called.

    The driver state is left at the last *completed* step (nothing is
    rolled back), so a cancelled run can be reported, checkpointed or
    resumed like any other interrupted one.
    """

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"run cancelled at step {step_index}")


@dataclass(frozen=True)
class StepStats:
    """Summary of one completed time step."""

    index: int
    time: float
    dt: float
    n_particles: int
    n_pairs: int
    n_p2p: int
    n_m2p: int
    mean_neighbors: float
    energy_floor_hits: int
    conservation: ConservationState


@dataclass
class Simulation:
    """SPH simulation: one particle set, one Algorithm-1 loop.

    Parameters
    ----------
    particles, box, eos:
        State, domain (periodicity included) and equation of state — as
        produced by the :mod:`repro.ics` factories.
    config:
        Algorithm choices (a preset from :mod:`repro.core.presets` or a
        custom :class:`~repro.core.config.SimulationConfig`).
    g_const:
        Gravitational constant (1 in Evrard units); ignored when the
        config has gravity disabled.
    run_config:
        :class:`~repro.core.config.RunConfig` aggregating the execution
        environment: backend and phase threads (``exec``),
        checkpointing (``resilience``) and span tracing
        (``observability``; the driver makes its own ``tracer`` from
        it: a recording :class:`~repro.observability.tracer.Tracer`
        when enabled, the no-op
        :class:`~repro.observability.tracer.NullTracer` otherwise).
        ``None`` means the all-defaults config — serial,
        checkpoint-free, tracing on.  It is wired once, at
        construction.
    """

    particles: ParticleSystem
    box: Box
    eos: EquationOfState
    config: SimulationConfig = field(default_factory=SimulationConfig)
    g_const: float = 1.0
    run_config: Optional[RunConfig] = None
    #: Registry name of the workload this driver runs (ledger key; set
    #: by :meth:`repro.scenarios.registry.Scenario.make_simulation` and
    #: the CLI, ``None`` for hand-built runs).
    scenario: Optional[str] = None
    #: Stable identity of this execution.  Minted at construction (not at
    #: ledger-append time) so the service's result store and the run
    #: ledger file the same execution under the same key; pass one in to
    #: adopt an externally minted id (the job manager does).
    run_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.run_config is None:
            self.run_config = RunConfig()
        if self.run_id is None:
            self.run_id = new_run_id(self.scenario or self.config.label)
        self.kernel = make_kernel(self.config.kernel)
        self.time = 0.0
        self.step_index = 0
        self.potential_energy = 0.0
        self.history: List[StepStats] = []
        self._max_mu = 0.0
        self._gravity_calls = 0
        self._gravity_path: Optional[str] = None
        self._rates_current = False
        self._nlist = None
        self._ncache = VerletNeighborCache()
        self._tree: Optional[Octree] = None
        self._smoothing = SmoothingConfig(n_target=self.config.n_neighbors)
        # Self-gravity only applies to open-boundary scenarios (the paper
        # runs the periodic-Z square patch without gravity on every code,
        # gravity-capable or not — Table 5).
        self._self_gravity = self.config.gravity is not None and not bool(
            np.any(self.box.periodic)
        )
        self.stepper = STEPPERS[self.config.timestepping](
            self.config.timestep_params
        )
        self._ledger_written = False
        #: Steps *this* driver executed (a restore does not advance it):
        #: :meth:`close` appends a ledger row only after one.
        self._steps_executed = 0
        self._progress_hook = None
        self._cancel_requested = False
        self._apply_run_config()
        self.initial_conservation: Optional[ConservationState] = None

    def _apply_run_config(self) -> None:
        """Wire tracer, execution layer, checkpointing and guard from
        :attr:`run_config` (once, at construction)."""
        run = self.run_config
        self.tracer = make_tracer(run.observability)
        # The request resolves here (warn-once fallback to numpy when a
        # named compiled backend is unavailable); every phase, on
        # whichever thread, receives this resolved Backend.
        self.backend_requested = run.exec.backend
        self.backend = select_backend(run.exec.backend)
        self._phases = PhaseExecutor(self, run.exec.workers)
        self.checkpoint_manager = None
        if run.resilience is not None:
            from ..resilience.checkpoint import CheckpointManager

            self.checkpoint_manager = CheckpointManager(run.resilience)
        # Self-healing step guard + driver-level numerical chaos.  With a
        # guard, ``run()`` routes every step through
        # ``StepGuard.guarded_step`` and the checkpoint hook moves behind
        # the health check (so disk checkpoints never capture a poisoned
        # state).
        self.numerical_chaos = run.numerical_chaos
        self.step_guard = None
        if run.guard is not None:
            from ..resilience.guard import StepGuard

            self.step_guard = StepGuard(run.guard)

    # ------------------------------------------------------------------
    # Rate evaluation: Algorithm 1 steps 1-4 (phases A-I)
    # ------------------------------------------------------------------
    def compute_rates(self) -> None:
        """Rebuild tree/neighbours and evaluate all rates at current state.

        The Verlet-skin cache hands back the padded neighbour list while
        every particle sits within the skin budget (half for displacement,
        half for h growth) since it was built.  On the numpy path the
        pairs of the evaluation live in :class:`~repro.tree.pairs.Pairs`
        records, locals of this call: the h iteration counts off the
        padded list's geometry, phases D-H share the products of its
        support cut, and all of it is gone on return or raise.
        """
        cached = self._ncache.lookup(self.particles.x, self.particles.h, self.box)
        self._build_tree(self._self_gravity or cached is None)
        cut, pairs = self._find_neighbours(cached)
        c_matrices = self._density(cut, pairs)
        self._forces(cut, pairs, c_matrices)
        self._gravity()
        self._rates_current = True

    def _build_tree(self, needed: bool) -> None:
        """Phase A: the octree over the current positions, built when
        something consumes it this evaluation — the gravity walk, or the
        neighbour walk of a cache miss.  (A cache hit whose h out-grows
        the list builds it on demand, in the search.)  Gravity requires
        an open cube, neighbour walks honor the periodic box — the
        periodic-Z square patch never enables gravity, so one box serves
        both."""
        self._tree = None
        with self.tracer.phase(Phase.TREE_BUILD.letter):
            if needed:
                self._tree = Octree.build(self.particles.x, self.box)

    def _find_neighbours(self, cached) -> Tuple[NeighborList, Optional[Pairs]]:
        """Phases B-D: the h iteration (C) off the ``cached`` padded list
        or a fresh tree walk (B), then the cut of the final list to kernel
        support (D), which the pair phases run over.

        Returns the cut and its pair record (``None`` on the compiled
        path), and counts the cut's ordered pairs for :class:`StepStats`.
        """
        p, tr = self.particles, self.tracer

        def search(x, radii, box, mode, rows=None):
            # Called from inside the h iteration (phase C), so the
            # search's B span nests in C's.  The h iteration only counts
            # over this list and ends on ``within``, which orders what
            # survives; ``rows`` re-searches the rows that out-grew it.
            if self._tree is None:
                self._tree = Octree.build(p.x, self.box)
            with tr.phase(Phase.NEIGHBOR_SEARCH.letter):
                return self._tree.walk_neighbors(
                    x, radii, mode=mode, ops=self.backend.ops, sort_rows=False,
                    rows=rows,
                )

        # Every pair outside kernel support contributes an exact zero.  The
        # compiled h iteration emits the lower half of the cut off its own
        # geometry; on numpy the cut's record masks the geometry of the
        # hit's record (after a build, of a fresh record), so an
        # evaluation computes geometry once.
        ops = backend_ops(self.backend, self.kernel)
        support = None if ops is None else self.kernel.support
        pairs = None
        with tr.phase(Phase.SMOOTHING_LENGTH.letter):
            if cached is None:
                self._nlist, cut = adapt_smoothing_lengths(
                    p, self.box, self._smoothing, self._ncache, search=search,
                    backend=self.backend, support=support,
                )
            else:
                # The numpy sweeps count off the record the phases read
                # next: one geometry pass per cache-hit evaluation.
                if self.backend.ops is None:
                    pairs = Pairs(p, cached, self.kernel, self.box)
                self._nlist, cut = adapt_from_cached_list(
                    p, cached, self.box, self._smoothing, self._ncache,
                    pairs=pairs, backend=self.backend, search=search,
                    support=support,
                )
        if cut is None:
            with tr.phase(Phase.NEIGHBOR_LISTS.letter):
                cut, pairs = support_cut(
                    p, self._nlist, self.kernel, self.box, pairs=pairs
                )
            self._cut_pairs = cut.n_pairs
        else:
            # The compiled cut is its lower half (``j <= i``): every
            # off-diagonal pair once, plus the diagonal.
            self._cut_pairs = 2 * cut.n_pairs - p.n
        return cut, pairs

    def _density(self, cut, pairs):
        """Phases E-F: the density (and, for IAD gradients, the IAD
        matrices of the same pass — both read the previous density), then
        the equation of state.  Returns the matrices, else ``None``."""
        cfg = self.config
        c_matrices = self._phases.density(
            cut, pairs,
            volume_elements=cfg.volume_elements,
            xmass_exponent=cfg.xmass_exponent,
            return_iad=cfg.gradients == "iad",
            phase=Phase.DENSITY.letter,
        )
        with self.tracer.phase(Phase.EQUATION_OF_STATE.letter):
            self.eos.apply(self.particles)
        return c_matrices

    def _forces(self, cut, pairs, c_matrices) -> None:
        """Phase G: momentum and energy rates (``a``, ``du``) and the
        viscous signal that feeds the next dt."""
        result = self._phases.forces(
            cut, pairs,
            viscosity=self.config.viscosity,
            grad_h=self.config.grad_h,
            c_matrices=c_matrices,
            phase=Phase.MOMENTUM_ENERGY.letter,
        )
        self._max_mu = result.max_mu

    def _gravity(self) -> None:
        """Phase I: Barnes-Hut self-gravity added to ``a`` — an empty span
        where the scenario has none."""
        self._last_gravity_p2p = self._last_gravity_m2p = 0
        if not self._self_gravity:
            with self.tracer.phase(Phase.GRAVITY.letter):
                self.potential_energy = 0.0
            return
        p, cfg = self.particles, self.config
        grav = self._phases.gravity(
            g_const=self.g_const,
            softening=cfg.gravity_softening_factor * float(p.h.mean()),
            theta=cfg.gravity_theta,
            order=cfg.gravity_order,
            tree=self._tree,
            phase=Phase.GRAVITY.letter,
        )
        p.a += grav.acc
        self.potential_energy = grav.potential_energy(p.m)
        self._last_gravity_p2p, self._last_gravity_m2p = grav.n_p2p, grav.n_m2p
        self._gravity_calls += 1
        self._gravity_path = grav.path

    # ------------------------------------------------------------------
    # One leapfrog step (Algorithm 1 steps 5-6 around the rate evaluation)
    # ------------------------------------------------------------------
    def _update(self, dt: Optional[float] = None) -> Tuple[float, int]:
        """Phase J, one half of the leapfrog: with ``dt`` the closing half
        (half-kick, energy floor), without it the opening one (select dt,
        half-kick, drift).  Returns ``(dt, floor hits)``."""
        p = self.particles
        with self.tracer.phase(Phase.TIMESTEP_UPDATE.letter):
            if dt is not None:
                kick(p, 0.5 * dt)
                return dt, apply_energy_floor(p)
            dt = self.stepper.select(p, self._max_mu)
            if not np.isfinite(dt) or dt <= 0.0:
                raise RuntimeError(f"non-finite time step selected: {dt}")
            kick(p, 0.5 * dt)
            drift(p, dt, self.box)
            return dt, 0

    def step(self) -> StepStats:
        """One leapfrog step, wrapped in a whole-step container span."""
        with self.tracer.step_span(self.step_index):
            p = self.particles
            step_at_entry = self.step_index  # chaos faults key on this index
            if not self._rates_current:
                self.compute_rates()
            if self.initial_conservation is None:
                self.initial_conservation = measure_conservation(
                    p, self.time, self.potential_energy
                )
            dt, _ = self._update()
            self.compute_rates()
            if self.numerical_chaos is not None:
                self.numerical_chaos.apply(step_at_entry, "rates", p)
            _, floor_hits = self._update(dt)
            self.time += dt
            self.step_index += 1
            self._steps_executed += 1
            with self.tracer.phase(Phase.AUX_KERNELS.letter):
                conservation = measure_conservation(p, self.time, self.potential_energy)
            stats = StepStats(
                index=self.step_index,
                time=self.time,
                dt=dt,
                n_particles=p.n,
                n_pairs=self._cut_pairs,
                n_p2p=self._last_gravity_p2p,
                n_m2p=self._last_gravity_m2p,
                mean_neighbors=self._cut_pairs / p.n,
                energy_floor_hits=floor_hits,
                conservation=conservation,
            )
            self.history.append(stats)
            # With a step guard the checkpoint hook runs *after* the
            # health check (inside guarded_step) so a rolling checkpoint
            # can never capture a state the guard is about to reject.
            if self.checkpoint_manager is not None and self.step_guard is None:
                self.checkpoint_manager.after_step(self)
            if self.numerical_chaos is not None:
                self.numerical_chaos.apply(step_at_entry, "post", p)
            return stats

    def run(
        self, n_steps: Optional[int] = None, t_end: Optional[float] = None
    ) -> List[StepStats]:
        """Run ``n_steps`` more steps and/or until ``t_end`` simulated time.

        Steps from wherever the driver stands: a run that should continue
        from a checkpoint calls :meth:`resume` first (as
        :func:`repro.service.runner.resume_and_run` does).
        """
        if n_steps is None and t_end is None:
            raise ValueError("provide n_steps and/or t_end")
        done: List[StepStats] = []
        while (n_steps is None or len(done) < n_steps) and (
            t_end is None or self.time < t_end
        ):
            # Cooperative cancellation point: between steps, where the
            # state is whole and checkpointable.
            if self._cancel_requested:
                self._cancel_requested = False
                raise RunCancelled(self.step_index)
            if self.step_guard is not None:
                done.append(self.step_guard.guarded_step(self))
            else:
                done.append(self.step())
            if self._progress_hook is not None:
                self._progress_hook(done[-1])
        return done

    # ------------------------------------------------------------------
    # Service hooks: progress streaming + cooperative cancellation
    # ------------------------------------------------------------------
    def on_step(self, hook) -> "Simulation":
        """Install a per-step progress callback (``hook(stats)``).

        Called from :meth:`run` after each *healthy* completed step —
        behind the guard's health check, so subscribers never observe a
        step the guard is about to roll back.  ``None`` uninstalls.
        Returns ``self`` for chaining.
        """
        self._progress_hook = hook
        return self

    def request_cancel(self) -> None:
        """Ask the run loop to stop at the next between-steps boundary.

        Safe to call from any thread (a bare flag write); the loop
        raises :class:`RunCancelled` before starting another step.
        """
        self._cancel_requested = True

    def degrade_to_serial(self) -> None:
        """Drop to the plain serial path: phase threads off, compiled
        backend off.

        Both are degradation-neutral (the serial numpy reference
        produces equivalent results), so this is a safe rung: it sheds
        the optimized machinery in case that machinery is the corruptor.
        Idempotent; there is no un-degrade.
        """
        self._phases.close()
        self._phases = PhaseExecutor(self)
        self.backend = select_backend("numpy")

    def resume(self, path=None) -> bool:
        """Restore from a checkpoint file (newest valid one by default).

        Returns ``True`` when a checkpoint was restored.  Restoration is
        bit-identical: particle arrays, clock, step counter, stepper
        memory and the viscous-signal diagnostic all come back, and the
        neighbour cache is invalidated so lists rebuild from the restored
        positions.
        """
        from ..resilience.checkpoint import restore_checkpoint

        return restore_checkpoint(self, path)

    def report(self) -> "RunReport":
        """Everything this run can tell about itself, in one object
        (:meth:`~repro.observability.report.RunReport.of_simulation`)."""
        from ..observability.report import RunReport

        return RunReport.of_simulation(self)

    def close(self) -> None:
        """Join the phase threads, write the configured trace exports and,
        once, the run-ledger row — only when *this driver* executed steps:
        a never-run driver (cache-hit job) or one that merely restored a
        checkpoint writes no phantom history row.  Safe to call more than
        once (the context-manager exit calls it too).
        """
        self._phases.close()
        obs = self.run_config.observability
        if self.tracer.enabled and (obs.chrome_trace_path or obs.jsonl_path):
            from ..observability.export import write_chrome_trace, write_jsonl

            if obs.chrome_trace_path:
                write_chrome_trace(obs.chrome_trace_path, self.tracer)
            if obs.jsonl_path:
                write_jsonl(obs.jsonl_path, self.tracer)
        if obs.ledger_path and self._steps_executed and not self._ledger_written:
            from ..observability.ledger import append_run

            self._ledger_written = append_run(obs.ledger_path, self)

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def conservation_drift(self) -> dict[str, float]:
        """Relative drift of mass/momentum/energy since the first step.

        A driver restored at its last step has no history of its own: its
        current state is measured instead, which is what that step's
        history entry held.
        """
        if self.initial_conservation is None:
            return {"mass": 0.0, "momentum": 0.0, "energy": 0.0}
        current = (
            self.history[-1].conservation
            if self.history
            else measure_conservation(
                self.particles, self.time, self.potential_energy
            )
        )
        return relative_drift(self.initial_conservation, current)
