"""Communication-skeleton extraction (Section 2's skeleton apps).

"Skeleton applications, the name used to refer to reduced versions of
applications that produce the same network traffic of the full ones, are
of interest to model the performance of networks through simulation."
The paper points at compiler-assisted skeletonization [48] as a way to
obtain exactly-representative mini-apps.

This module implements the idea for the modeled SPH step: it *extracts*
the step's communication pattern — every point-to-point volume and every
collective, in order, with compute intervals replaced by their durations
— into a replayable :class:`CommSkeleton`.  Replaying the skeleton on a
fresh :class:`~repro.runtime.comm.SimComm` must reproduce the original
step time without re-running any of the SPH cost model, which is what
makes skeletons useful for fast network-design studies (e.g. sweeping
latency/bandwidth without touching the application model).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Literal

import numpy as np

from ..observability.tracer import Tracer
from .cluster import ClusterModel
from .comm import SimComm
from .machine import NetworkSpec

__all__ = ["SkeletonOp", "CommSkeleton", "extract_skeleton"]


@dataclass(frozen=True)
class SkeletonOp:
    """One replayable operation of the skeletonized step."""

    kind: Literal["compute", "exchange", "allreduce"]
    phase: str
    #: compute: per-rank seconds; exchange: (R, R) bytes; allreduce: None.
    payload: np.ndarray | None = None


@dataclass
class CommSkeleton:
    """Ordered operation list extracted from one application step."""

    n_ranks: int
    ops: List[SkeletonOp] = field(default_factory=list)

    @property
    def n_exchanges(self) -> int:
        return sum(1 for op in self.ops if op.kind == "exchange")

    @property
    def n_collectives(self) -> int:
        return sum(1 for op in self.ops if op.kind == "allreduce")

    def total_bytes(self) -> float:
        return float(
            sum(op.payload.sum() for op in self.ops if op.kind == "exchange")
        )

    def replay(
        self, network: NetworkSpec, tracer: Tracer | None = None
    ) -> float:
        """Execute the skeleton on a fresh communicator; returns step time.

        Only the network model participates — compute intervals are
        replayed as recorded — so sweeping ``network`` isolates the
        interconnect's contribution exactly.
        """
        comm = SimComm(self.n_ranks, network, tracer or Tracer())
        for op in self.ops:
            if op.kind == "compute":
                for r in range(self.n_ranks):
                    if op.payload[r] > 0:
                        comm.compute(r, float(op.payload[r]), op.phase)
            elif op.kind == "exchange":
                comm.exchange_bytes(op.payload, phase=op.phase)
            else:
                comm.allreduce(
                    [np.zeros(1) for _ in range(self.n_ranks)],
                    op="min",
                    phase=op.phase,
                )
        return comm.elapsed()

    def replay_trace(self, network: NetworkSpec) -> tuple[float, Tracer]:
        """Replay and keep the replay's per-rank trace.

        The returned tracer feeds the same observability pipeline real
        executions use — :func:`repro.observability.pop.pop_from_events`,
        the Chrome-trace/JSONL exporters — so modeled skeleton replays
        and measured threaded runs are comparable row for row.
        """
        tracer = Tracer()
        elapsed = self.replay(network, tracer)
        return elapsed, tracer


def extract_skeleton(model: ClusterModel) -> CommSkeleton:
    """Skeletonize one step of the cluster model.

    Walks the same substep/phase structure the model simulates, but
    records operations instead of executing them against a communicator.
    The compute payloads are the per-rank phase seconds; exchanges carry
    the scaled halo-byte matrices; one allreduce closes every substep.
    """
    skel = CommSkeleton(n_ranks=model.n_ranks)
    for s in range(model.substeps):
        cols = model._active_cols(s)
        active_frac = np.divide(
            model.rank_rung_counts[:, cols].sum(axis=1),
            np.maximum(model.rank_rung_counts.sum(axis=1), 1),
        )
        for phase in model.phase_letters:
            units_r = model.rank_rung_units[phase][:, cols].sum(axis=1)
            if phase == "A" and s > 0:
                units_r = units_r * 0.2
            if phase in ("A", "B"):
                units_r = units_r + 0.5 * model.ghost_units * active_frac
            if phase == "A":
                from .cluster import _SUBSTEP_REPL_SHARE

                units_r = units_r + model.replicated_units * (
                    1.0 if s == 0 else _SUBSTEP_REPL_SHARE
                )
            secs = model._phase_seconds(units_r, phase)
            skel.ops.append(SkeletonOp("compute", phase, secs))
        scale = 0.5 * (active_frac[:, None] + active_frac[None, :])
        from .cluster import EXCHANGES_PER_STEP

        skel.ops.append(
            SkeletonOp("exchange", "G", model.halo_bytes * scale * EXCHANGES_PER_STEP)
        )
        skel.ops.append(SkeletonOp("allreduce", "J"))
    return skel
