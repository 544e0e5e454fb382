"""The simulated cluster: strong-scaling execution model (Figures 1-3).

Given a test-case :class:`~repro.model.workloads.Workload` (the real
10^6-particle geometry), a parent-code preset and its code row
(:mod:`repro.model.codes`), a machine model and a core count,
:class:`ClusterModel`:

1. chooses the rank/thread layout (hybrid codes: one rank per 12-core
   NUMA domain; pure-MPI SPH-flow: one rank per core);
2. decomposes the *actual particle positions* with the row's method —
   work-weighted if the code load-balances dynamically;
3. estimates the halo matrix from the decomposition;
4. charges per-rank, per-phase compute (pair-equivalents x kappa), with
   per-code serial thread fractions (SPHYNX 1.3.1's serial tree build
   is what creates the idle regions of Figure 4), thread-scheduling
   imbalance by load-balancing scheme, individual-time-step rungs for
   ChaNGa, and communication through :class:`~repro.model.comm.SimComm`;
5. produces the average time per time-step and an Extrae-like trace.

The absolute scale comes from one calibration constant per (code, test)
anchored at the smallest measured core count (12 cores on Piz Daint);
everything about the *shape* of the curves — speedup, the stall when
particles/core drops toward 10^4, the load-imbalance-driven efficiency
loss — comes out of the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..core.config import SimulationConfig
from ..observability.tracer import State, Tracer
from .codes import THREAD_IMBALANCE, CodeRow, code_row
from .comm import SimComm
from .cost_model import PhaseWeights, particle_work_units
from .decomposition import Decomposition, decompose
from .halo import estimate_halo
from .machine import MachineSpec
from .workloads import Workload

__all__ = ["ClusterModel", "StepBreakdown"]

#: Bytes exchanged per halo particle (x, v, m, h, rho, u, p -> ~10 doubles).
HALO_FIELDS_BYTES = 80.0

#: Halo exchanges per step: positions/h for the search, updated densities
#: before forces, and one h-iteration refresh.
EXCHANGES_PER_STEP = 3.0

#: Fraction of a local particle's tree/search cost charged per ghost:
#: ghosts are inserted into the tree, sorted, and filtered as candidates,
#: but never integrated.  This term is what bends the strong-scaling
#: curves: with ~100-neighbour SPH the ghost shell of a subdomain holding
#: ~10^4 particles rivals the subdomain itself — "scaling stalls when
#: there are not enough particles/core (typically 10^4)" (Section 5.2).
HALO_WORK_FACTOR = 0.6

#: Serial thread fraction of a phase the code's row does not name.
_DEFAULT_SERIAL = 0.03

#: Deepest individual-time-step rung the model resolves.
_MAX_RUNG = 4

#: Share of the replicated global work re-paid on every fine substep
#: (individual time stepping patches the domain/tree each rung — the
#: multi-time-stepping overhead the paper names among the load-imbalance
#: factors).
_SUBSTEP_REPL_SHARE = 0.04


@dataclass(frozen=True)
class StepBreakdown:
    """Modeled timings of one step at one scale."""

    step_time: float
    compute_time: np.ndarray  # per rank
    comm_time: np.ndarray  # per rank
    substeps: int


@dataclass
class ClusterModel:
    """Execution model of one (workload, preset, machine, cores) point."""

    workload: Workload
    preset: SimulationConfig
    machine: MachineSpec
    n_cores: int
    weights: PhaseWeights = field(default_factory=PhaseWeights)
    kappa: float = 1.0e-9  # seconds per pair-equivalent (calibrated)
    tracer: Optional[Tracer] = None
    #: The code's row; ``None`` looks it up by ``preset.label``.
    code: Optional[CodeRow] = None

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if self.code is None:
            self.code = code_row(self.preset.label)
        if self.code.hybrid:
            # One rank per NUMA domain (12 cores): standard MPI+OpenMP
            # placement, and what keeps the MareNostrum (48-core nodes)
            # curves of Fig. 1 close to Piz Daint at equal core counts.
            numa = min(12, self.machine.cores_per_node)
            self.threads_per_rank = min(numa, self.n_cores)
        else:
            self.threads_per_rank = 1
        self.n_ranks = max(self.n_cores // self.threads_per_rank, 1)
        if self.tracer is None:
            self.tracer = Tracer()
        self._plan()

    # ------------------------------------------------------------------
    def _plan(self) -> None:
        w = self.workload
        p = self.preset
        code = self.code
        use_gravity = p.gravity is not None and w.has_gravity_source
        self.gravity_order = p.gravity_order if use_gravity else None
        units = particle_work_units(
            self.weights,
            mean_neighbors=w.mean_neighbors,
            n_total=w.n,
            density_factor=w.density_factor,
            use_iad=(p.gradients == "iad"),
            generalized_ve=(p.volume_elements == "generalized"),
            gravity_order=self.gravity_order,
        )
        self.phase_letters = [
            k for k in "ABCDEFGHIJ" if units[k].any() or k in "AEFGJ"
        ]
        total_units = sum(units.values())

        # Decomposition: dynamic load balancing cuts by measured work.
        dyn = code.load_balancing == "dynamic"
        self.decomposition: Decomposition = decompose(
            code.domain_decomposition,
            w.x,
            self.n_ranks,
            w.box,
            weights=total_units if dyn else None,
        )
        self.halo = estimate_halo(w.x, w.support, w.box, self.decomposition)

        # Individual time stepping: rungs from the free-fall time contrast
        # (dt ~ rho^-1/2 -> rung ~ log2 sqrt(rho/rho_ref)).  The reference
        # is a low percentile, not the minimum: partially-filled boundary
        # cells of the counting grid would otherwise fake a density
        # contrast in perfectly uniform distributions.
        if p.timestepping == "individual":
            dens = np.maximum(w.density_factor, 1e-3)
            ref = max(float(np.median(dens)), 1e-3)
            rung = np.floor(0.5 * np.log2(np.maximum(dens / ref, 1.0)))
            self.rung = np.clip(rung.astype(np.int64), 0, _MAX_RUNG)
        else:
            self.rung = np.zeros(w.n, dtype=np.int64)
        self.max_rung = int(self.rung.max())
        self.substeps = 1 << self.max_rung

        # Per-rank, per-rung unit matrices: U[phase][r, b].
        ranks = self.decomposition.assignment
        nb = self.max_rung + 1
        key = ranks * nb + self.rung
        self.rank_rung_units: Dict[str, np.ndarray] = {}
        for phase, u in units.items():
            mat = np.bincount(key, weights=u, minlength=self.n_ranks * nb)
            self.rank_rung_units[phase] = mat.reshape(self.n_ranks, nb)
        counts = np.bincount(key, minlength=self.n_ranks * nb)
        self.rank_rung_counts = counts.reshape(self.n_ranks, nb)

        # Halo bytes matrix (per exchange).
        self.halo_bytes = self.halo.recv * HALO_FIELDS_BYTES

        # Ghost-processing compute: charge a fraction of the per-particle
        # tree + search unit cost for every received halo particle.
        halo_counts = self.halo.recv_totals()
        logn = max(np.log2(max(w.n, 2)), 1.0)
        per_ghost = HALO_WORK_FACTOR * (
            self.weights.tree * logn
            + self.weights.search * w.mean_neighbors * self.weights.h_iterations
        )
        self.ghost_units = halo_counts * per_ghost  # (R,), split A/B below

        self.serial_frac = code.serial_fractions
        self.thread_imb = THREAD_IMBALANCE[code.load_balancing]
        self.replicated_units = code.replicated_fraction * float(total_units.sum())

    # ------------------------------------------------------------------
    def _phase_seconds(self, units_r: np.ndarray, phase: str) -> np.ndarray:
        """Seconds per rank for a phase's unit vector (thread-aware)."""
        serial = self.serial_frac.get(phase, _DEFAULT_SERIAL)
        threads = self.threads_per_rank
        per_core = self.kappa / self.machine.core_speed
        if threads == 1:
            return units_r * per_core
        parallel = units_r * (1.0 - serial) / threads * self.thread_imb
        return (units_r * serial + parallel) * per_core

    def _active_cols(self, substep: int) -> np.ndarray:
        """Rung columns whose particles step at this substep."""
        b = np.arange(self.max_rung + 1)
        period = 1 << (self.max_rung - b)
        return (substep % period) == 0

    def simulate_step(self, comm: Optional[SimComm] = None) -> StepBreakdown:
        """Charge one Algorithm-1 step; returns its timing breakdown."""
        if comm is None:
            comm = SimComm(self.n_ranks, self.machine.network, self.tracer)
        t0 = comm.clocks.copy()
        compute = np.zeros(self.n_ranks)
        for s in range(self.substeps):
            cols = self._active_cols(s)
            active_frac = np.divide(
                self.rank_rung_counts[:, cols].sum(axis=1),
                np.maximum(self.rank_rung_counts.sum(axis=1), 1),
            )
            for phase in self.phase_letters:
                mat = self.rank_rung_units[phase]
                units_r = mat[:, cols].sum(axis=1)
                if phase == "A" and s > 0:
                    # Tree is patched, not rebuilt, on fine substeps.
                    units_r = units_r * 0.2
                if phase in ("A", "B"):
                    # Ghost processing rides on tree build and search.
                    units_r = units_r + 0.5 * self.ghost_units * active_frac
                if phase == "A":
                    # Replicated global work (every rank pays it in full).
                    repl = self.replicated_units * (
                        1.0 if s == 0 else _SUBSTEP_REPL_SHARE
                    )
                    units_r = units_r + repl
                secs = self._phase_seconds(units_r, phase)
                for r in range(self.n_ranks):
                    if secs[r] > 0:
                        comm.compute(r, secs[r], phase)
                compute += secs
            # Halo exchanges (volume scaled by the active fraction) around
            # the search, density and force evaluations.
            scale = 0.5 * (active_frac[:, None] + active_frac[None, :])
            comm.exchange_bytes(
                self.halo_bytes * scale * EXCHANGES_PER_STEP, phase="G"
            )
            # New dt: the synchronizing collective of phase J.
            comm.allreduce(
                [np.zeros(1) for _ in range(self.n_ranks)], op="min", phase="J"
            )
        step_time = float((comm.clocks - t0).max())
        comm_time = (comm.clocks - t0) - compute
        return StepBreakdown(
            step_time=step_time,
            compute_time=compute,
            comm_time=comm_time,
            substeps=self.substeps,
        )

    def average_step_time(self, n_steps: int = 1) -> float:
        """Average modeled seconds per time step over ``n_steps``."""
        comm = SimComm(self.n_ranks, self.machine.network, self.tracer)
        total = 0.0
        for _ in range(n_steps):
            total += self.simulate_step(comm).step_time
        return total / max(n_steps, 1)

    # ------------------------------------------------------------------
    def thread_trace(self, tracer: Tracer, n_steps: int = 1) -> None:
        """Record a thread-resolved trace (the Figure 4 view).

        Rank-level phases are expanded onto ``threads_per_rank`` rows:
        serial parts run on thread 0 while the others idle; parallel
        parts get a fork/join sliver, slightly imbalanced useful spans
        (by the scheme's imbalance factor) and a sync tail.
        """
        threads = self.threads_per_rank
        per_core = self.kappa / self.machine.core_speed
        for _ in range(n_steps):
            clock = {r: max(tracer.clock(r, t) for t in range(threads)) for r in range(self.n_ranks)}
            for s in range(self.substeps):
                cols = self._active_cols(s)
                for phase in self.phase_letters:
                    mat = self.rank_rung_units[phase]
                    units_r = mat[:, cols].sum(axis=1)
                    if phase == "A" and s > 0:
                        units_r = units_r * 0.2
                    if phase in ("A", "B"):
                        units_r = units_r + 0.5 * self.ghost_units
                    if phase == "A":
                        units_r = units_r + self.replicated_units * (
                            1.0 if s == 0 else _SUBSTEP_REPL_SHARE
                        )
                    serial = self.serial_frac.get(phase, _DEFAULT_SERIAL)
                    for r in range(self.n_ranks):
                        u = units_r[r]
                        if u <= 0:
                            continue
                        t_serial = u * serial * per_core
                        t_par = u * (1.0 - serial) / threads * per_core
                        start = clock[r]
                        # Serial span on thread 0; other threads idle.
                        if t_serial > 0:
                            tracer.record(r, phase, State.USEFUL, t_serial, 0, start)
                            for th in range(1, threads):
                                tracer.record(r, phase, State.IDLE, t_serial, th, start)
                        # Fork, imbalanced parallel spans, sync to the max.
                        fork = 0.02 * t_par
                        spans = t_par * (
                            1.0
                            + (self.thread_imb - 1.0)
                            * np.linspace(-1.0, 1.0, max(threads, 2))[:threads]
                        )
                        tmax = float(spans.max()) if threads else 0.0
                        base = start + t_serial
                        for th in range(threads):
                            tracer.record(r, phase, State.FORK_JOIN, fork, th, base)
                            tracer.record(
                                r, phase, State.USEFUL, spans[th], th, base + fork
                            )
                            tail = tmax - spans[th]
                            if tail > 0:
                                tracer.record(
                                    r,
                                    phase,
                                    State.SYNC,
                                    tail,
                                    th,
                                    base + fork + spans[th],
                                )
                        clock[r] = base + fork + tmax
                # Communication + dt collective on thread 0, others idle.
                in_bytes = self.halo_bytes.sum(axis=1)
                out_bytes = self.halo_bytes.sum(axis=0)
                msgs = (self.halo_bytes > 0).sum(axis=1) + (self.halo_bytes > 0).sum(axis=0)
                net = self.machine.network
                t_comm = msgs * net.latency + (in_bytes + out_bytes) / net.bandwidth
                release = max(
                    clock[r] + t_comm[r] for r in range(self.n_ranks)
                ) + net.collective_time(self.n_ranks)
                for r in range(self.n_ranks):
                    tracer.record(r, "J", State.MPI, t_comm[r], 0, clock[r])
                    mpi_tail = release - (clock[r] + t_comm[r])
                    if mpi_tail > 0:
                        tracer.record(
                            r, "J", State.MPI, mpi_tail, 0, clock[r] + t_comm[r]
                        )
                    for th in range(1, threads):
                        tracer.record(
                            r, "J", State.IDLE, release - clock[r], th, clock[r]
                        )
                    clock[r] = release
