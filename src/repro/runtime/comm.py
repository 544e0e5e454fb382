"""Simulated MPI-like communication layer.

An mpi4py-shaped interface (Table 4: "X = {MPI}") executed in-process over
simulated ranks: the network model charges modeled time to per-rank
clocks, which feed the Extrae-like tracer.  The API is bulk-synchronous —
the caller invokes each operation for all ranks at once, mirroring how the
distributed SPH step is written — and follows the mpi4py buffer
convention (numpy arrays in, numpy arrays out).  The cluster model
(:mod:`repro.runtime.cluster`) and the communication skeleton
(:mod:`repro.runtime.skeleton`) drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ..observability.tracer import State, Tracer
from .machine import NetworkSpec

__all__ = ["SimComm"]

_REDUCE_OPS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sum": lambda v: np.sum(v, axis=0),
    "min": lambda v: np.min(v, axis=0),
    "max": lambda v: np.max(v, axis=0),
}


@dataclass
class SimComm:
    """Communicator over ``size`` simulated ranks.

    Per-rank clocks advance with modeled compute (:meth:`compute`) and
    communication; collectives synchronize clocks like real barriers,
    which is how waiting time (load imbalance) becomes visible in the
    trace.
    """

    size: int
    network: NetworkSpec
    tracer: Tracer = field(default_factory=Tracer)
    bytes_per_element: int = 8

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        self.clocks = np.zeros(self.size)
        self._stats = {"p2p_messages": 0, "p2p_bytes": 0.0, "collectives": 0}

    # ------------------------------------------------------------------
    def compute(self, rank: int, seconds: float, phase: str = "") -> None:
        """Charge useful compute time to one rank's clock."""
        if seconds < 0.0:
            raise ValueError("compute time must be non-negative")
        self.tracer.record(
            rank, phase, State.USEFUL, seconds, start=self.clocks[rank]
        )
        self.clocks[rank] += seconds

    def idle_until(self, rank: int, t: float, phase: str = "") -> None:
        """Advance a rank's clock to ``t``, recording the wait as idle."""
        wait = t - self.clocks[rank]
        if wait > 0.0:
            self.tracer.record(
                rank, phase, State.IDLE, wait, start=self.clocks[rank]
            )
            self.clocks[rank] = t

    # ------------------------------------------------------------------
    def allreduce(self, values: List[np.ndarray] | np.ndarray, op: str = "sum", phase: str = "allreduce"):
        """Reduce per-rank values; every rank receives the result.

        Synchronizing collective: all clocks advance to the slowest rank
        plus the log-tree collective time (waiting recorded as idle, the
        collective itself as MPI).
        """
        if op not in _REDUCE_OPS:
            raise ValueError(f"op must be one of {sorted(_REDUCE_OPS)}, got {op!r}")
        vals = [np.asarray(v) for v in values]
        if len(vals) != self.size:
            raise ValueError(f"expected {self.size} values, got {len(vals)}")
        result = _REDUCE_OPS[op](np.stack(vals))
        nbytes = float(np.asarray(result).size * self.bytes_per_element)
        enter = float(self.clocks.max())
        release = enter + self.network.collective_time(self.size, nbytes)
        for r in range(self.size):
            self.idle_until(r, enter, phase)
            self.tracer.record(r, phase, State.MPI, release - enter, start=enter)
        self.clocks[:] = release
        self._stats["collectives"] += 1
        return result

    def exchange_bytes(
        self, recv_bytes: np.ndarray, phase: str = "halo"
    ) -> np.ndarray:
        """Charge a halo exchange given only its volume matrix.

        ``recv_bytes[r, s]`` is what rank r receives from rank s.  No data
        moves — this is the cluster model's path, where exchanging real
        10^6-particle payloads would be pointless.  Each rank is charged
        latency per partner message (both directions) plus its total
        in+out volume over the NIC bandwidth.  Returns per-rank comm
        seconds.
        """
        recv = np.asarray(recv_bytes, dtype=np.float64)
        if recv.shape != (self.size, self.size):
            raise ValueError(f"recv_bytes must be ({self.size}, {self.size})")
        in_bytes = recv.sum(axis=1)
        out_bytes = recv.sum(axis=0)
        in_msgs = (recv > 0).sum(axis=1)
        out_msgs = (recv > 0).sum(axis=0)
        t = (in_msgs + out_msgs) * self.network.latency + (
            in_bytes + out_bytes
        ) / self.network.bandwidth
        for r in range(self.size):
            if t[r] > 0:
                self.tracer.record(r, phase, State.MPI, t[r], start=self.clocks[r])
        self.clocks += t
        self._stats["p2p_messages"] += int(in_msgs.sum())
        self._stats["p2p_bytes"] += float(in_bytes.sum())
        return t

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, float]:
        """Message/byte counters accumulated so far."""
        return dict(self._stats)

    def elapsed(self) -> float:
        """Wall time of the slowest rank."""
        return float(self.clocks.max())
